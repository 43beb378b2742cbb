package engine

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"

	"hermit/internal/storage"
	"hermit/internal/wal"
)

// This file is the DurableDB surface the replication layer (internal/repl)
// builds on, apart from ReplApply, which lives with the replay path it
// shares with recovery (replay.go). A leader ships raw WAL frames — tailed
// from the on-disk segments in LSN order — and a follower hands them to
// ReplApply, which mirrors them into its own log (so the follower's WAL is
// byte-for-byte a prefix of the leader's) and applies each committed group
// atomically, exactly as recovery would. Global LSNs (strictly increasing
// across segment rotations, see wal.Options.BaseLSN) are the stream's
// coordinate system.

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
	return d.pub.WALSeg, d.walBase, d.log.LastLSN()
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
	cur := d.pub.WALSeg
	d.mu.RUnlock()
	p := durablePaths{d.dir}
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil
	}
	// Segments numbered past the current one are crash leftovers of an
	// unpublished rotation.
	segs := walSegments(entries)
	segs = segs[:sort.Search(len(segs), func(i int) bool { return segs[i] > cur })]
	out := make([]ReplSegment, len(segs))
	for i, seg := range segs {
		out[i] = ReplSegment{Seg: seg, Path: p.wal(seg), Current: seg == cur}
	}
	return out
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
	for _, name := range slices.Sorted(maps.Keys(d.tables)) {
		meta := d.tables[name]
		ts := ReplTableSnap{
			Name:  name,
			Cols:  append([]string(nil), meta.Cols...),
			PKCol: meta.PKCol,
			Parts: meta.Partitions,
			Defs:  append([]IndexDef(nil), meta.Defs...),
		}
		for _, tb := range d.db.lookup(name).phys {
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
		if _, err := d.db.create(ts.Name, ts.Cols, ts.PKCol, ts.Parts); err != nil {
			d.mu.Unlock()
			return err
		}
		d.tables[ts.Name] = &durableMeta{
			Cols:       append([]string(nil), ts.Cols...),
			PKCol:      ts.PKCol,
			Partitions: ts.Parts,
			Defs:       append([]IndexDef(nil), ts.Defs...),
		}
		for _, row := range ts.Rows {
			if _, err := d.db.Insert(ts.Name, row); err != nil {
				d.mu.Unlock()
				return fmt.Errorf("engine: restoring snapshot row in %q: %w", ts.Name, err)
			}
		}
		for _, def := range ts.Defs {
			if err := d.db.CreateIndex(ts.Name, def); err != nil {
				d.mu.Unlock()
				return err
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
// record appended (or mirrored via ReplApply) numbers from lsn+1. Caller
// holds d.mu exclusively and d.ckptMu.
func (d *DurableDB) resetWALBaseLocked(lsn uint64) error {
	if d.log.Size() != wal.HeaderLen {
		return fmt.Errorf("engine: wal base reset on a non-empty segment")
	}
	if err := d.log.Close(); err != nil {
		return err
	}
	log, err := d.openWAL(d.pub.WALSeg, lsn)
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
