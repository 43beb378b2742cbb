package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"hermit/internal/keyorder"
	"hermit/internal/storage"
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

// Txn is a snapshot-isolation transaction: reads resolve against the
// snapshot taken at Begin, writes are buffered privately and become
// visible atomically at Commit, which detects write-write conflicts under
// the first-committer-wins rule. A transaction may span every table
// ordered by the same commit clock — including the per-partition tables of
// a partitioned table — and is not safe for concurrent use by multiple
// goroutines.
type Txn struct {
	clock *Clock
	snap  *Snapshot
	// writes is keyed by keyorder.Bits of the primary key: a float64 map
	// key could never find a NaN key again.
	writes map[*Table]map[uint64]*txnWrite
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

// BeginTxn starts a transaction on the given commit clock. DB.Begin is the
// common entry point; partitioned tables begin on their shared clock.
func BeginTxn(clock *Clock) *Txn {
	return &Txn{
		clock:  clock,
		snap:   clock.Snapshot(),
		writes: make(map[*Table]map[uint64]*txnWrite),
	}
}

// Begin starts a snapshot-isolation transaction on the database's clock.
func (db *DB) Begin() *Txn { return BeginTxn(db.clock) }

// Snapshot returns the transaction's read snapshot, valid until Commit or
// Rollback. Queries run through Table.Exec with it as Query.Snap observe
// the database as of Begin (buffered writes excluded; use Get for
// read-your-own-writes point lookups).
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

// check validates that the transaction can still buffer writes against t.
func (x *Txn) check(t *Table) error {
	if x.done {
		return ErrTxnDone
	}
	if t.clock != x.clock {
		return fmt.Errorf("engine: table %q is ordered by a different commit clock", t.name)
	}
	return nil
}

// Insert buffers a row insert. Duplicate keys — visible at the snapshot or
// inserted earlier in this transaction — are rejected immediately.
func (x *Txn) Insert(t *Table, row []float64) error {
	if err := x.check(t); err != nil {
		return err
	}
	if len(row) != len(t.cols) {
		return storage.ErrBadRow
	}
	pk := row[t.pkCol]
	_, live, err := x.effective(t, pk)
	if err != nil {
		return err
	}
	if live {
		return fmt.Errorf("%w: %v", ErrDupKey, pk)
	}
	x.buffer(t, &txnWrite{pk: pk, row: append([]float64(nil), row...)})
	return nil
}

// Delete buffers a delete, reporting whether the key was live in the
// transaction's view. Deletes of absent keys are not buffered (there is
// nothing to commit).
func (x *Txn) Delete(t *Table, pk float64) (bool, error) {
	if err := x.check(t); err != nil {
		return false, err
	}
	_, live, err := x.effective(t, pk)
	if err != nil || !live {
		return false, err
	}
	x.buffer(t, &txnWrite{pk: pk, del: true})
	return true, nil
}

// Update buffers a single-column update against the transaction's view of
// the row (its own writes included). The primary-key column cannot change.
func (x *Txn) Update(t *Table, pk float64, col int, v float64) error {
	if err := x.check(t); err != nil {
		return err
	}
	if col == t.pkCol {
		return fmt.Errorf("engine: update: cannot change primary-key column %q (delete and re-insert)", t.cols[col])
	}
	if col < 0 || col >= len(t.cols) {
		return ErrNoSuchColumn
	}
	row, live, err := x.effective(t, pk)
	if err != nil {
		return err
	}
	if !live {
		return fmt.Errorf("engine: update: no row with pk %v", pk)
	}
	nw := append([]float64(nil), row...)
	nw[col] = v
	x.buffer(t, &txnWrite{pk: pk, row: nw})
	return nil
}

// Mutate buffers one mutation op on t — Insert, Delete or Update by
// op.Kind — reporting whether a delete found its key.
func (x *Txn) Mutate(t *Table, op Op) (bool, error) {
	switch op.Kind {
	case OpInsert:
		return false, x.Insert(t, op.Row)
	case OpDelete:
		return x.Delete(t, op.PK)
	case OpUpdate:
		return false, x.Update(t, op.PK, op.Col, op.Value)
	}
	return false, fmt.Errorf("engine: op kind %d is not a mutation", op.Kind)
}

// Get returns the transaction's view of pk: its own buffered write when
// present, else the row visible at the snapshot.
func (x *Txn) Get(t *Table, pk float64) ([]float64, bool, error) {
	if err := x.check(t); err != nil {
		return nil, false, err
	}
	row, live, err := x.effective(t, pk)
	if err != nil || !live {
		return nil, false, err
	}
	return append([]float64(nil), row...), true, nil
}

// Rollback discards the buffered writes and releases the snapshot. Safe to
// call after Commit (a no-op), so `defer x.Rollback()` always cleans up.
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

// CommitResult reports a committed transaction's commit timestamp.
type CommitResult struct {
	// TS is the commit timestamp.
	TS uint64
}

// Commit atomically applies the buffered writes: it validates every
// written key against the latest committed state (ErrWriteConflict when a
// later commit touched one — first committer wins), applies the version
// rows and index entries, and stamps them all with one new commit
// timestamp, so concurrent snapshots observe either the whole transaction
// or none of it. On any error nothing is applied. The transaction is done
// afterwards either way.
func (x *Txn) Commit() (CommitResult, error) {
	if x.done {
		return CommitResult{}, ErrTxnDone
	}
	x.done = true
	defer x.snap.Release()
	if len(x.writes) == 0 {
		return CommitResult{}, nil
	}

	// Deterministic lock order: tables by tid, then stripes by index —
	// concurrent multi-key committers can never deadlock.
	tables := make([]*Table, 0, len(x.writes))
	for t := range x.writes {
		tables = append(tables, t)
	}
	sort.Slice(tables, func(a, b int) bool { return tables[a].tid < tables[b].tid })
	for _, t := range tables {
		t.catalog.RLock()
		defer t.catalog.RUnlock()
	}
	res, left, err := x.apply(tables)
	if err != nil {
		return res, err
	}
	// The stripes are free again: each table reclaims for what the commit had
	// to leave on its queue.
	for i, t := range tables {
		t.reclaimAfter(1 + left[i])
	}
	return res, nil
}

// apply is Commit under the tables' catalog latches: it takes the written
// keys' stripes, validates, applies, stamps and settles, and lets the stripes
// go. It returns, per table, the number of ended versions it left queued.
func (x *Txn) apply(tables []*Table) (CommitResult, []int, error) {
	res := CommitResult{}
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
				return res, nil, fmt.Errorf("%w: key %v in table %q", ErrWriteConflict, w.pk, t.name)
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
				return res, nil, fmt.Errorf("engine: txn apply: %w", err)
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
	c := x.clock
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

	res.TS = commitTS
	return res, left, nil
}
