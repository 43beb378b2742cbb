package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"hermit/internal/keyorder"
	"hermit/internal/storage"
	"hermit/internal/wal"
)

// Errors returned by the transaction layer.
var (
	// ErrWriteConflict is returned by Txn.Commit when another transaction
	// committed a change to one of this transaction's written keys after
	// the snapshot was taken (first committer wins); nothing was applied.
	ErrWriteConflict = errors.New("engine: write-write conflict (first committer wins)")
	// ErrTxnDone is returned for operations on a committed or rolled-back
	// transaction.
	ErrTxnDone = errors.New("engine: transaction already committed or rolled back")
)

// Txn is a snapshot-isolation transaction over a database's tables, named
// as in every other read and write: reads resolve against the snapshot
// taken at Begin, writes are buffered privately — each on the partition
// that owns its key — and become visible atomically at Commit, which
// detects write-write conflicts under the first-committer-wins rule. A
// transaction of a durable database also encodes each buffered mutation's
// WAL record, and Commit logs them as a txn-begin / mutations / txn-commit
// group under one transaction id: recovery replays the group only if its
// commit record reached the log, so a crash mid-commit rolls the whole
// transaction back. A Txn is not safe for concurrent use by multiple
// goroutines.
type Txn struct {
	db   *DB
	snap *Snapshot
	// writes is keyed by keyorder.Bits of the primary key: a float64 map
	// key could never find a NaN key again.
	writes map[*Table]map[uint64]*txnWrite
	recs   []wal.Record // a durable database's mutation records, in buffer order
	pks    []float64    // the durable stripe keys Commit must hold
	done   bool
}

// txnWrite is the buffered final state of one written key: a full row
// image (insert or update collapse to "this row exists with these values")
// or a deletion.
type txnWrite struct {
	pk  float64
	row []float64 // nil for a delete
	del bool
}

// Begin starts a snapshot-isolation transaction on the database's clock,
// WAL-logged on a durable database. Only DML is transactional; DDL keeps
// its own paths.
func (db *DB) Begin() *Txn {
	return &Txn{db: db, snap: db.clock.Snapshot(), writes: make(map[*Table]map[uint64]*txnWrite)}
}

// Snapshot returns the transaction's read snapshot, valid until Commit or
// Rollback. Queries run with it as Query.Snap observe the database as of
// Begin (buffered writes excluded; use Get for read-your-own-writes point
// lookups).
func (x *Txn) Snapshot() *Snapshot { return x.snap }

// effective returns the transaction's view of pk in t: the buffered write
// if any, else the version visible at the snapshot.
func (x *Txn) effective(t *Table, pk float64) (row []float64, live bool, err error) {
	if w := x.writes[t][keyorder.Bits(pk)]; w != nil {
		if w.del {
			return nil, false, nil
		}
		return w.row, true, nil
	}
	rid, ok := t.resolveVisible(pk, x.snap.ts)
	if !ok {
		return nil, false, nil
	}
	r, err := t.store.Get(rid, nil)
	if err != nil {
		return nil, false, err
	}
	return r, true, nil
}

func (x *Txn) buffer(t *Table, w *txnWrite) {
	m := x.writes[t]
	if m == nil {
		m = make(map[uint64]*txnWrite)
		x.writes[t] = m
	}
	m[keyorder.Bits(w.pk)] = w
}

// Mutate buffers one mutation on the table op.Table names — Insert, Delete
// or Update by op.Kind — on the partition that owns its key, reporting
// whether a delete found its key. On a durable database it also encodes the WAL
// record Commit logs for it; a delete of an absent key buffers nothing:
// there is nothing to commit or replay.
func (x *Txn) Mutate(op Op) (bool, error) {
	if x.done {
		return false, ErrTxnDone
	}
	tb, part, pk, err := x.db.target(&op)
	if err != nil {
		return false, err
	}
	found, err := x.stage(tb, &op)
	if err != nil || x.db.dur == nil || op.Kind == OpDelete && !found {
		return found, err
	}
	rec := wal.Record{Table: op.Table, Part: part}
	rec.Op, rec.Payload = encodeOp(nil, &op)
	x.recs = append(x.recs, rec)
	x.pks = append(x.pks, pk)
	return found, nil
}

// Insert buffers a row insert. Duplicate keys — visible at the snapshot or
// inserted earlier in this transaction — are rejected immediately.
func (x *Txn) Insert(table string, row []float64) error {
	_, err := x.Mutate(Op{Kind: OpInsert, Table: table, Row: row})
	return err
}

// Delete buffers a delete, reporting whether the key was live in the
// transaction's view.
func (x *Txn) Delete(table string, pk float64) (bool, error) {
	return x.Mutate(Op{Kind: OpDelete, Table: table, PK: pk})
}

// Update buffers a single-column update against the transaction's view of
// the row (its own writes included). The primary-key column cannot change.
func (x *Txn) Update(table string, pk float64, col int, v float64) error {
	_, err := x.Mutate(Op{Kind: OpUpdate, Table: table, PK: pk, Col: col, Value: v})
	return err
}

// stage buffers mutation op on t, the engine table it routes to: Mutate's
// core, through which recovery (applyGroup) replays a logged group without
// logging it again.
func (x *Txn) stage(t *Table, op *Op) (bool, error) {
	switch op.Kind {
	case OpInsert:
		if len(op.Row) != len(t.cols) {
			return false, storage.ErrBadRow
		}
		pk := op.Row[t.pkCol]
		_, live, err := x.effective(t, pk)
		if err != nil {
			return false, err
		}
		if live {
			return false, fmt.Errorf("%w: %v", ErrDupKey, pk)
		}
		x.buffer(t, &txnWrite{pk: pk, row: append([]float64(nil), op.Row...)})
		return false, nil
	case OpDelete:
		_, live, err := x.effective(t, op.PK)
		if err != nil || !live {
			return false, err
		}
		x.buffer(t, &txnWrite{pk: op.PK, del: true})
		return true, nil
	case OpUpdate:
		if op.Col == t.pkCol {
			return false, fmt.Errorf("engine: update: cannot change primary-key column %q (delete and re-insert)", t.cols[op.Col])
		}
		if op.Col < 0 || op.Col >= len(t.cols) {
			return false, ErrNoSuchColumn
		}
		row, live, err := x.effective(t, op.PK)
		if err != nil {
			return false, err
		}
		if !live {
			return false, fmt.Errorf("engine: update: no row with pk %v", op.PK)
		}
		nw := append([]float64(nil), row...)
		nw[op.Col] = op.Value
		x.buffer(t, &txnWrite{pk: op.PK, row: nw})
		return false, nil
	}
	return false, fmt.Errorf("engine: op kind %d is not a mutation", op.Kind)
}

// Get returns the transaction's view of pk in the named table: its own
// buffered write when present, else the row visible at the snapshot.
func (x *Txn) Get(table string, pk float64) ([]float64, bool, error) {
	if x.done {
		return nil, false, ErrTxnDone
	}
	l, err := x.db.named(table)
	if err != nil {
		return nil, false, err
	}
	tb, _ := l.route(pk)
	row, live, err := x.effective(tb, pk)
	if err != nil || !live {
		return nil, false, err
	}
	return append([]float64(nil), row...), true, nil
}

// Rollback discards the buffered writes and releases the snapshot; nothing
// was applied or logged. Safe to call after Commit (a no-op), so
// `defer x.Rollback()` always cleans up.
func (x *Txn) Rollback() {
	if x.done {
		return
	}
	x.done = true
	x.snap.Release()
}

// stamped describes one version stamping to perform under the commit lock:
// an insert (nothing ended), a delete (nothing written) or an update.
type stamped struct {
	t   *Table
	ti  int // t's place among the transaction's tables
	pk  float64
	rid storage.RID // new version's row (noRID for a delete)
	old storage.RID // the head an update or a delete ends (noRID for an insert)
}

// Commit atomically applies the buffered writes: it validates every
// written key against the latest committed state (ErrWriteConflict when a
// later commit touched one — first committer wins), applies the version
// rows and index entries, and stamps them all with one new commit
// timestamp, so concurrent snapshots observe either the whole transaction
// or none of it. On any error nothing is applied. On a durable database it then
// logs the group and returns once the commit record is acknowledged under
// the sync policy. The transaction is done afterwards either way.
func (x *Txn) Commit() error {
	if x.db.dur == nil {
		return x.commit()
	}
	tk, err := x.submitCommit()
	if err != nil {
		return err
	}
	if _, err := tk.Wait(); err != nil {
		return fmt.Errorf("engine: wal append after txn apply (in-memory state ahead of log until next checkpoint): %w", err)
	}
	return nil
}

// submitCommit is Commit on a durable database up to the wait: apply,
// then submit the group's frames. The write keys' durable stripes are held
// from the in-memory commit through the log submits, so per-key log order
// equals apply order exactly as on the auto-commit paths. The group is one
// run in one log — the shared latch keeps a rotation out — so the returned
// ticket, the commit record's, covers the begin and mutation frames before
// it; if a submit fails midway, the frames already pending reach the file
// with the log's next wait, barrier or close, as an uncommitted tail.
func (x *Txn) submitCommit() (wal.Ticket, error) {
	d := x.db.dur
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(x.recs) == 0 {
		return wal.Ticket{}, x.commit()
	}
	stripes := make([]uint64, 0, len(x.pks))
	seen := make(map[uint64]bool, len(x.pks))
	for _, pk := range x.pks {
		if s := stripeOf(pk); !seen[s] {
			seen[s] = true
			stripes = append(stripes, s)
		}
	}
	sort.Slice(stripes, func(a, b int) bool { return stripes[a] < stripes[b] })
	for _, s := range stripes {
		d.rows.stripes[s].Lock()
	}
	defer func() {
		for i := len(stripes) - 1; i >= 0; i-- {
			d.rows.stripes[stripes[i]].Unlock()
		}
	}()
	if err := x.commit(); err != nil {
		return wal.Ticket{}, err
	}
	id := d.txnSeq.Add(1)
	var (
		tk  wal.Ticket
		err error
	)
	submit := func(rec wal.Record) {
		if err == nil {
			rec.Txn = id
			tk, err = d.log.Submit(rec)
		}
	}
	submit(wal.Record{Op: wal.OpTxnBegin})
	for _, rec := range x.recs {
		submit(rec)
	}
	submit(wal.Record{Op: wal.OpTxnCommit})
	if err != nil {
		return wal.Ticket{}, fmt.Errorf("engine: wal submit after txn apply (in-memory state ahead of log until next checkpoint): %w", err)
	}
	return tk, nil
}

// commit is Commit in memory: it takes the written tables' catalog latches
// in a deterministic order — tables by tid, then stripes by index — so
// concurrent multi-key committers can never deadlock.
func (x *Txn) commit() error {
	if x.done {
		return ErrTxnDone
	}
	x.done = true
	defer x.snap.Release()
	if len(x.writes) == 0 {
		return nil
	}
	tables := make([]*Table, 0, len(x.writes))
	for t := range x.writes {
		tables = append(tables, t)
	}
	sort.Slice(tables, func(a, b int) bool { return tables[a].tid < tables[b].tid })
	for _, t := range tables {
		t.catalog.RLock()
		defer t.catalog.RUnlock()
	}
	left, err := x.apply(tables)
	if err != nil {
		return err
	}
	// The stripes are free again: each table reclaims for what the commit had
	// to leave on its queue.
	for i, t := range tables {
		t.reclaimAfter(1 + left[i])
	}
	return nil
}

// apply is commit under the tables' catalog latches: it takes the written
// keys' stripes, validates, applies, stamps and settles, and lets the stripes
// go. It returns, per table, the number of ended versions it left queued.
func (x *Txn) apply(tables []*Table) ([]int, error) {
	type stripeRef struct {
		t *Table
		s uint64
	}
	var stripes []stripeRef
	for _, t := range tables {
		seen := make(map[uint64]bool)
		for _, w := range x.writes[t] {
			s := stripeOf(w.pk)
			if !seen[s] {
				seen[s] = true
				stripes = append(stripes, stripeRef{t, s})
			}
		}
	}
	sort.Slice(stripes, func(a, b int) bool {
		if stripes[a].t.tid != stripes[b].t.tid {
			return stripes[a].t.tid < stripes[b].t.tid
		}
		return stripes[a].s < stripes[b].s
	})
	for _, sr := range stripes {
		sr.t.rows.stripes[sr.s].Lock()
		defer sr.t.rows.stripes[sr.s].Unlock()
	}

	// Validate: first committer wins. Chain heads are stable under the
	// stripes, so a clean validation here cannot be invalidated before the
	// stamp below.
	for _, t := range tables {
		for _, w := range x.writes[t] {
			// (An absent key reads as the zero header, which passes.)
			if _, h := t.head(w.pk); h.beginTS > x.snap.ts || h.endTS > x.snap.ts {
				return nil, fmt.Errorf("%w: key %v in table %q", ErrWriteConflict, w.pk, t.name)
			}
		}
	}

	// Apply: append version rows and secondary-index entries. Unstamped
	// versions are invisible and the primary index still names the old
	// heads, so readers cannot observe a partial transaction here.
	var pend []stamped
	for ti, t := range tables {
		ws := make([]*txnWrite, 0, len(x.writes[t]))
		for _, w := range x.writes[t] {
			ws = append(ws, w)
		}
		// Deterministic apply order within a table.
		slices.SortFunc(ws, func(a, b *txnWrite) int { return keyorder.Compare(a.pk, b.pk) })
		for _, w := range ws {
			pk := w.pk
			old, h := t.head(pk)
			if w.del {
				if h.live() {
					pend = append(pend, stamped{t: t, ti: ti, pk: pk, rid: noRID, old: old})
					t.writes.Add(1)
				}
				continue
			}
			rid, err := t.store.Insert(w.row)
			if err != nil {
				// Unreachable in practice (width validated at buffer time);
				// surface loudly rather than commit a partial transaction.
				return nil, fmt.Errorf("engine: txn apply: %w", err)
			}
			t.insertIndexEntries(rid, w.row)
			t.writes.Add(1)
			for i, v := range w.row {
				t.runtime[i].widen(v)
			}
			st := stamped{t: t, ti: ti, pk: pk, rid: rid, old: noRID}
			if h.live() {
				st.old = old
			}
			pend = append(pend, st)
		}
	}

	// Stamp and publish: one commit timestamp for the whole transaction.
	c := x.db.clock
	c.commitMu.Lock()
	commitTS := c.ts.Load() + 1
	for _, s := range pend {
		switch {
		case s.old == noRID:
			s.t.stampInsert(s.rid, s.pk, commitTS, nil)
		case s.rid == noRID:
			s.t.stampDelete(s.old, s.pk, commitTS)
		default:
			s.t.stampUpdate(s.pk, s.rid, commitTS)
		}
	}
	c.ts.Store(commitTS)
	c.commitMu.Unlock()

	// Settle, as every commit does (Table.settle), the stripes still held. The
	// transaction's snapshot pinned everything it has just ended, so it goes
	// first.
	x.snap.Release()
	quiet := c.OldestActive() >= commitTS
	left := make([]int, len(tables))
	var buf [rowStack]float64
	for _, s := range pend {
		var row []float64
		if s.old != noRID {
			var err error
			if row, err = s.t.store.Get(s.old, buf[:0]); err != nil {
				continue // unreachable: the stripe is held and old was live
			}
		}
		left[s.ti] += s.t.settle(commitTS, quiet, s.rid, s.old, row)
	}

	return left, nil
}
