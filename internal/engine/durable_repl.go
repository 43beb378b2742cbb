package engine

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"hermit/internal/storage"
	"hermit/internal/wal"
)

// This file is the DurableDB surface the replication layer (internal/repl)
// builds on. A leader ships raw WAL frames — tailed from the on-disk
// segments in LSN order — and a follower mirrors them into its own log
// with ReplAppend (so the follower's WAL is byte-for-byte a prefix of the
// leader's) while applying each committed group's effects atomically with
// ReplApplyGroup. Global LSNs (strictly increasing across segment
// rotations, see wal.Options.BaseLSN) are the stream's coordinate system.

// LastLSN returns the LSN of the last record written to the WAL — the
// database's position in the global replication sequence.
func (d *DurableDB) LastLSN() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.log.LastLSN()
}

// WALSize returns the current WAL segment's byte length. A replication
// follower uses it to decide when a checkpoint (and segment rotation) is
// due on its side.
func (d *DurableDB) WALSize() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.log.Size()
}

// WALPosition reports the current segment number, the global LSN it
// continues from (its base), and the last LSN written. A subscriber whose
// resume point is at or past base can be served from the live segment
// alone; one further behind needs a retained predecessor segment or a
// snapshot bootstrap.
func (d *DurableDB) WALPosition() (seg, base, last uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.walSeg, d.walBase, d.log.LastLSN()
}

// WatchWAL registers ch for non-blocking wakeups whenever the WAL grows
// (and on segment rotation, re-registered onto the successor segment).
// Tokens coalesce; a woken tailer reads until it runs dry. The returned
// func unregisters ch; a subscriber that goes away must call it, or every
// later write and rotation keeps serving its channel.
func (d *DurableDB) WatchWAL(ch chan struct{}) (cancel func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.walWatchers = append(d.walWatchers, ch)
	d.log.Watch(ch)
	return func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.walWatchers = slices.DeleteFunc(d.walWatchers, func(w chan struct{}) bool { return w == ch })
		d.log.Unwatch(ch)
	}
}

// Dir returns the database directory (where WAL segments live).
func (d *DurableDB) Dir() string { return d.dir }

// BumpTxnSeq advances the transaction-id sequence to at least floor. A
// promoted follower calls this with the largest transaction id seen in
// mirrored frames: those carried the old leader's ids, which may run past
// what this database's own recovery seeded, and a reused id would tangle
// a new transaction's frames with an orphaned in-flight group's.
func (d *DurableDB) BumpTxnSeq(floor uint64) {
	for {
		cur := d.txnSeq.Load()
		if cur >= floor || d.txnSeq.CompareAndSwap(cur, floor) {
			return
		}
	}
}

// ReplSegment names one on-disk WAL segment a shipper can tail.
type ReplSegment struct {
	// Seg is the segment number; Path its file path.
	Seg  uint64
	Path string
	// Current marks the segment being appended to: its tail grows, while
	// every older segment is immutable.
	Current bool
}

// ReplWALSegments lists the WAL segments currently on disk, oldest first.
// Older segments are retained only up to DurableOptions.
// ReplRetainWALSegments, so a slow subscriber can find its resume point
// gone between a listing and an open — it must then re-list or fall back
// to snapshot bootstrap.
func (d *DurableDB) ReplWALSegments() []ReplSegment {
	d.mu.RLock()
	cur := d.walSeg
	d.mu.RUnlock()
	p := durablePaths{d.dir}
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil
	}
	var segs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal.") && strings.HasSuffix(name, ".log") {
			if seg, ok := parseEpoch(name[len("wal.") : len(name)-len(".log")]); ok && seg <= cur {
				segs = append(segs, seg)
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	out := make([]ReplSegment, len(segs))
	for i, seg := range segs {
		out[i] = ReplSegment{Seg: seg, Path: p.wal(seg), Current: seg == cur}
	}
	return out
}

// RecoveredPending returns the mutation records of transactions whose
// commit record had not reached the log when the database was last
// opened, keyed by transaction id. The frames are already durable here;
// only the commit decision is missing. A replication follower seeds its
// apply buffers from this so a group torn across a crash still applies
// exactly once when the leader re-ships its commit record.
func (d *DurableDB) RecoveredPending() map[uint64][]wal.Record {
	out := make(map[uint64][]wal.Record, len(d.recPending))
	for id, recs := range d.recPending {
		out[id] = append([]wal.Record(nil), recs...)
	}
	return out
}

// ReplAppend mirrors leader WAL records — with their original LSNs — into
// this database's log, in order. It does not apply their effects (that is
// ReplApplyGroup's job, gated on the commit record), so the follower's
// log can run ahead of its state by at most one in-flight transaction
// group, exactly like a leader crash mid-group. Records are submitted
// under the shared latch in one hold, so a concurrent checkpoint cannot
// rotate the segment mid-batch.
func (d *DurableDB) ReplAppend(recs []wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	d.mu.RLock()
	var last wal.Ticket
	var err error
	for _, rec := range recs {
		var tk wal.Ticket
		if tk, err = d.log.SubmitRaw(rec); err != nil {
			break
		}
		last = tk
	}
	d.mu.RUnlock()
	// One log, one hold: the last record's acknowledgement covers the run.
	if _, werr := last.Wait(); err == nil {
		err = werr
	}
	return err
}

// isDDLOp reports whether op changes the catalog (and so must apply under
// the exclusive latch, as a group of its own).
func isDDLOp(op wal.Op) bool {
	switch op {
	case wal.OpCreateTable, wal.OpCreatePartitioned, wal.OpCreateIndex, wal.OpDropIndex:
		return true
	}
	return false
}

// ReplApplyGroup applies the effects of one committed record group — a
// transaction's mutations (without its begin/commit framing), a single
// auto-committed mutation, or a single DDL record. Mutation groups apply
// through an engine transaction, so every row becomes visible at one
// commit timestamp and snapshot reads on a follower can never observe a
// half-applied group. The records must already be in the local log (see
// ReplAppend); this call changes state only.
func (d *DurableDB) ReplApplyGroup(recs []wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	if isDDLOp(recs[0].Op) {
		if len(recs) != 1 {
			return fmt.Errorf("engine: repl DDL group of %d records", len(recs))
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.apply(recs[0])
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	tx := BeginTxn(d.db.clock)
	for _, rec := range recs {
		tb, err := d.applyTarget(rec)
		if err != nil {
			tx.Rollback()
			return err
		}
		vals := decodeFloats(rec.Payload)
		switch rec.Op {
		case wal.OpInsert:
			err = tx.Insert(tb, vals)
		case wal.OpDelete:
			if len(vals) != 1 {
				err = fmt.Errorf("engine: malformed repl delete record")
				break
			}
			var found bool
			found, err = tx.Delete(tb, vals[0])
			if err == nil && !found {
				// The leader only logs deletes of present keys, so an absent
				// key here means the replica has diverged.
				err = fmt.Errorf("engine: repl delete of absent key %v in %q", vals[0], rec.Table)
			}
		case wal.OpUpdate:
			if len(vals) != 3 {
				err = fmt.Errorf("engine: malformed repl update record")
				break
			}
			err = tx.Update(tb, vals[0], int(vals[1]), vals[2])
		default:
			err = fmt.Errorf("engine: repl group carries op %d", rec.Op)
		}
		if err != nil {
			tx.Rollback()
			return err
		}
	}
	_, err := tx.Commit()
	return err
}

// ReplTableSnap is one logical table's full state in a snapshot bootstrap:
// schema, index definitions, and every live row (rows from all partitions
// merged — routing is a pure function of the primary key, so the receiver
// re-derives placement).
type ReplTableSnap struct {
	Name  string
	Cols  []string
	PKCol int
	Parts int
	Defs  []IndexDef
	Rows  [][]float64
}

// ReplSnap is a snapshot bootstrap image: the database's full state as of
// LSN, for initialising a follower too far behind the retained WAL.
type ReplSnap struct {
	// LSN is the cut: the image holds every effect with LSN <= this, and
	// none after. The receiver resumes its subscription at LSN.
	LSN    uint64
	Tables []ReplTableSnap
}

// ReplSnapshot captures a bootstrap image under the exclusive latch:
// writers are quiesced, the WAL is flushed, and the cut LSN plus every
// table's live rows are read in one consistent moment. Bootstrap is the
// rare path (a new or long-dead follower), so stalling writes for the
// scan is the simplicity-correctness trade taken here.
func (d *DurableDB) ReplSnapshot() (*ReplSnap, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.log.Sync(); err != nil {
		return nil, err
	}
	snap := &ReplSnap{LSN: d.log.LastLSN()}
	names := make([]string, 0, len(d.tables))
	for name := range d.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		meta := d.tables[name]
		ts := ReplTableSnap{
			Name:  name,
			Cols:  append([]string(nil), meta.Cols...),
			PKCol: meta.PKCol,
			Parts: meta.Partitions,
			Defs:  append([]IndexDef(nil), meta.Defs...),
		}
		for _, tb := range meta.phys {
			tb.ScanLive(func(_ storage.RID, row []float64) bool {
				ts.Rows = append(ts.Rows, append([]float64(nil), row...))
				return true
			})
		}
		snap.Tables = append(snap.Tables, ts)
	}
	return snap, nil
}

// ReplRestore initialises a freshly-created database from a bootstrap
// image: tables, rows and indexes apply unlogged, the WAL's base is reset
// to the image's cut LSN, and a checkpoint persists the whole state — so
// a restart recovers to exactly the cut, and the follower resumes its
// subscription at snap.LSN. The database must be empty (no tables, no
// logged records); anything else is a caller bug, rejected before any
// state changes. A crash before the checkpoint's manifest rename leaves a
// directory that recovers behind the cut, which the subscription
// handshake detects and answers with a fresh bootstrap.
func (d *DurableDB) ReplRestore(snap *ReplSnap) error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	d.mu.Lock()
	if len(d.tables) != 0 || d.log.Size() != wal.HeaderLen {
		d.mu.Unlock()
		return fmt.Errorf("engine: ReplRestore needs an empty database")
	}
	for _, ts := range snap.Tables {
		meta := &durableMeta{
			Cols:       append([]string(nil), ts.Cols...),
			PKCol:      ts.PKCol,
			Partitions: ts.Parts,
			Defs:       append([]IndexDef(nil), ts.Defs...),
		}
		if err := d.createPhysical(ts.Name, meta); err != nil {
			d.mu.Unlock()
			return err
		}
		d.tables[ts.Name] = meta
		for _, row := range ts.Rows {
			var pk float64
			if meta.PKCol < len(row) {
				pk = row[meta.PKCol]
			}
			tb, _ := meta.route(pk)
			if _, err := tb.Insert(row); err != nil {
				d.mu.Unlock()
				return fmt.Errorf("engine: restoring snapshot row in %q: %w", ts.Name, err)
			}
		}
		for _, tb := range meta.phys {
			for _, def := range meta.Defs {
				if err := applyIndexDef(tb, def); err != nil {
					d.mu.Unlock()
					return err
				}
			}
		}
	}
	if err := d.resetWALBaseLocked(snap.LSN); err != nil {
		d.mu.Unlock()
		return err
	}
	d.mu.Unlock()
	return d.checkpointLocked()
}

// resetWALBaseLocked re-bases an empty current segment at lsn, so the next
// record appended (or mirrored via ReplAppend) numbers from lsn+1. Caller
// holds d.mu exclusively and d.ckptMu.
func (d *DurableDB) resetWALBaseLocked(lsn uint64) error {
	if d.log.Size() != wal.HeaderLen {
		return fmt.Errorf("engine: wal base reset on a non-empty segment")
	}
	if err := d.log.Close(); err != nil {
		return err
	}
	p := durablePaths{d.dir}
	wo := d.opts.walOptions()
	wo.BaseLSN = lsn
	log, err := wal.OpenWith(p.wal(d.walSeg), wo)
	if err != nil {
		return err
	}
	d.log = log
	d.walBase = lsn
	for _, ch := range d.walWatchers {
		log.Watch(ch)
	}
	return nil
}
