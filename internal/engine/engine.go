// Package engine is the mini-RDBMS that hosts both indexing mechanisms for
// the experiments: a main-memory engine (the paper's DBMS-X stand-in) whose
// tables are storage.Tables with B+-tree primary/secondary indexes and
// Hermit indexes. A DB opened with OpenDurable has a durable part
// (durable.go): a WAL and checkpoints into the paged block tier
// (internal/block), which the PostgreSQL experiment reads.
//
// The engine is deliberately small — catalog, index maintenance on writes,
// and point/range query routing — because the paper's evaluation only
// exercises those paths; there is no SQL front end.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hermit/internal/btree"
	"hermit/internal/hermit"
	"hermit/internal/storage"
)

// Errors returned by engine operations.
var (
	ErrNoSuchTable  = errors.New("engine: no such table")
	ErrNoSuchColumn = errors.New("engine: no such column")
	ErrDupIndex     = errors.New("engine: index already exists on column")
	ErrNoHostIndex  = errors.New("engine: hermit host column has no complete index")
	ErrDupTable     = errors.New("engine: table already exists")
	ErrDupKey       = errors.New("engine: duplicate primary key")
	// ErrNotDurable is what a method that needs a log (Checkpoint, Sync,
	// BlockRead, the replication surface, …) returns on a DB made by NewDB.
	ErrNotDurable = errors.New("engine: the database has no log (open it with OpenDurable)")
)

// DB is a catalog of tables sharing one tuple-identifier scheme and one
// commit clock: plain and hash-partitioned tables under the names their
// users write (tables.go). A lookup takes no latch — the catalog map is
// replaced whole — so tables can be created while others serve queries.
// One opened with OpenDurable also logs every write and DDL and checkpoints
// into block files (durable.go); one made by NewDB lives in memory only.
type DB struct {
	scheme hermit.PointerScheme
	clock  *Clock
	// mu serialises catalog changes: table creation and index DDL.
	mu     sync.Mutex
	tables atomic.Pointer[map[string]*logical]
	// dur is the durable part, nil in memory. Its tables keep delete lists,
	// which its delta flushes read (mvcc.go).
	dur *durable
}

// NewDB creates an in-memory database using the given tuple-identifier
// scheme (§5.1), with its own commit clock.
func NewDB(scheme hermit.PointerScheme) *DB {
	db := &DB{scheme: scheme, clock: newClock()}
	db.tables.Store(&map[string]*logical{})
	return db
}

// tableSeq issues process-wide unique table ids; commit lock ordering
// (txn.go) sorts by them, so they must never repeat even across databases.
var tableSeq atomic.Uint64

// Scheme returns the database's tuple-identifier scheme.
func (db *DB) Scheme() hermit.PointerScheme { return db.scheme }

// newTable makes one engine table; pkCol receives a primary index.
func (db *DB) newTable(name string, cols []string, pkCol int) *Table {
	t := &Table{
		name:         name,
		tid:          tableSeq.Add(1),
		cols:         append([]string(nil), cols...),
		pkCol:        pkCol,
		scheme:       db.scheme,
		clock:        db.clock,
		store:        storage.NewTable(len(cols)),
		primary:      btree.New(btree.DefaultOrder),
		runtime:      newColRuntime(len(cols)),
		trackDeletes: db.dur != nil,
		handSeen:     math.MaxUint64,
	}
	t.keyCeiling.Store(math.Float64bits(math.Inf(-1)))
	return t
}

// Table is one relation plus its indexes. Rows are multi-versioned (see
// mvcc.go): every mutation puts an immutable version row into the store
// (in a slot a reclaimed version has freed, if there is one),
// every secondary index keeps one entry per version, the primary index one
// entry per key, and reads resolve visibility against a commit-timestamp
// snapshot.
type Table struct {
	name   string
	tid    uint64 // process-wide unique id; commit lock ordering key
	cols   []string
	pkCol  int
	scheme hermit.PointerScheme
	clock  *Clock
	store  *storage.Table

	// MVCC state (mvcc.go), all guarded by mvccMu: vers holds, per store
	// block (nil until a version of the block is stamped), a frozen bit per
	// slot and the header granules of the slots that are not, so a RID
	// indexes straight to its version header or to the fact that it needs
	// none; granFree keeps emptied granules for the next stamp; headers
	// counts the slots that hold a header and late those of them that only
	// the horizon keeps from freezing, none of which began below lateFloor;
	// hand and handSeen are the budgeted sweep's position and what it has
	// had to leave this revolution. ended queues the RIDs of ended versions
	// in endTS order until a commit reclaims them, pending is its length and
	// late the count above, both kept atomic so a commit can look without the
	// latch (reclaimAfter), and reclaimed counts the versions reclaimed;
	// liveRows counts the rows live at the latest timestamp. What a
	// table that flushes deltas owes its next delta block — trackDeletes, set at
	// creation; any other table keeps neither — is deletes, in commit order the
	// deletes no flush has recorded yet, and one unflushed bit per slot in
	// vers, unflushed counting the set ones: the versions no block holds. The
	// chains' heads are the primary index's entries, under the same latch.
	mvccMu       sync.RWMutex
	vers         []*verBlock
	granFree     []*verGranule
	headers      int
	late         atomic.Int64
	lateFloor    uint64
	hand         int
	handSeen     uint64
	ended        fifo[storage.RID]
	pending      atomic.Int64
	reclaimed    uint64
	liveRows     int
	deletes      fifo[keyDeath]
	unflushed    int
	trackDeletes bool
	// keyCeiling holds the bits of the key ceiling (ceiling): raised under
	// mvccMu, read under a key's stripe by an auto-commit insert.
	keyCeiling atomic.Uint64

	// primary maps each key to its newest version's RID — the head of the
	// key's version chain — under mvccMu. It is a unique-key tree
	// (btree.Tree.Swap): written at commit by stampInsert/stampUpdate and
	// by reclaim, never by the apply phase.
	primary *btree.Tree
	// maint is the catalog: every secondary structure of the table, one
	// index each, the pre-existing ones first. A write walks it to keep them
	// in step; DDL edits it.
	maint []index

	// Concurrency control (see latches.go for the full protocol): catalog
	// guards maint against DDL; rows serialises same-key row mutations;
	// mvccMu (above) and each index's own latch give every unsynchronised
	// structure its reader/writer latch, so concurrent readers on different
	// indexes never contend and writers only block the structures they
	// touch. TRS-Trees (inside Hermit indexes) latch themselves.
	catalog sync.RWMutex
	rows    stripedLock

	// runtime holds the planner's per-column statistics (query/update
	// counters, cached bounds, per-path latency and false-positive EWMAs);
	// writes counts all row mutations. Both are written lock-free on hot
	// paths (see planner.go) and read by the planner and the advisor.
	runtime []colRuntime
	writes  atomic.Uint64
	// Table-wide latency calibration (planner.go): EWMAs of observed
	// nanoseconds and of the model cost across all timed queries. The
	// global ratio anchors per-path calibration so a path that has never
	// run (e.g. scan on an indexed column) is compared on the same scale
	// as the paths that have.
	calLat  atomic.Uint64 // float64 bits
	calCost atomic.Uint64 // float64 bits
	calObs  atomic.Uint64

	profile atomic.Bool
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Scheme returns the table's tuple-identifier scheme.
func (t *Table) Scheme() hermit.PointerScheme { return t.scheme }

// Store exposes the underlying row store (used by workload loaders).
func (t *Table) Store() *storage.Table { return t.store }

// Primary exposes the primary index.
func (t *Table) Primary() *btree.Tree { return t.primary }

// Columns returns the column names.
func (t *Table) Columns() []string { return append([]string(nil), t.cols...) }

// PKCol returns the primary-key column index.
func (t *Table) PKCol() int { return t.pkCol }

// SetProfile toggles per-phase timing on queries and inserts.
func (t *Table) SetProfile(on bool) { t.profile.Store(on) }

// colIndex resolves a column name.
func (t *Table) colIndex(name string) (int, error) {
	for i, c := range t.cols {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrNoSuchColumn, name)
}

// identify maps a RID, whose row has primary key pk, to the identifier
// stored in secondary indexes.
func (t *Table) identify(rid storage.RID, pk float64) uint64 {
	if t.scheme == hermit.PhysicalPointers {
		return uint64(rid)
	}
	return hermit.LogicalID(pk)
}

// InsertStats breaks an insert's cost into the paper's Fig. 22b categories.
type InsertStats struct {
	Table    time.Duration // base table + primary index
	Existing time.Duration // pre-existing (host) secondary indexes
	New      time.Duration // newly created indexes (Hermit or baseline)
}

// Insert appends a row, maintaining the primary index and every secondary
// structure. Duplicate primary keys are rejected.
func (t *Table) Insert(row []float64) (storage.RID, error) {
	rid, _, err := t.insert(row)
	return rid, err
}

// InsertProfiled is Insert plus the per-category timing used by Fig. 22b.
func (t *Table) InsertProfiled(row []float64) (storage.RID, InsertStats, error) {
	return t.insert(row)
}

func (t *Table) insert(row []float64) (storage.RID, InsertStats, error) {
	// Validate the width up front: row[t.pkCol] below must not panic on a
	// short row (e.g. a malformed ExecuteBatch op).
	if len(row) != len(t.cols) {
		return 0, InsertStats{}, storage.ErrBadRow
	}
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	rid, st, err := t.applyInsert(row)
	if err == nil {
		t.reclaimAfter(1)
	}
	return rid, st, err
}

// applyInsert is insert under the catalog latch and up to the commit: it
// takes the key's stripe and lets go of it.
func (t *Table) applyInsert(row []float64) (storage.RID, InsertStats, error) {
	var st InsertStats
	profile := t.profile.Load()

	var t0 time.Time
	if profile {
		t0 = time.Now()
	}
	pk := row[t.pkCol]
	// The stripe serialises check-then-act sequences on the same key (the
	// duplicate check against the version chain; every committer of this
	// key holds the stripe, so the head is stable until we stamp).
	stripe := t.rows.mu(pk)
	stripe.Lock()
	defer stripe.Unlock()
	// A key above the ceiling has no chain to probe, so an ascending load
	// makes its duplicate check without the mvccMu hold.
	if !(pk > t.ceiling()) {
		if _, hdr := t.head(pk); hdr.live() {
			return 0, st, fmt.Errorf("%w: %v", ErrDupKey, pk)
		}
	}
	rid, err := t.store.Insert(row)
	if err != nil {
		return 0, st, err
	}
	t.writes.Add(1)
	for i, v := range row {
		t.runtime[i].widen(v)
	}
	if profile {
		st.Table = time.Since(t0)
		t0 = time.Now()
	}
	id := t.identify(rid, row[t.pkCol])
	// Pre-existing complete indexes (e.g. the host index), then the
	// structures marked new.
	n := t.existing()
	applyAll(t.maint[:n], true, id, row)
	if profile {
		st.Existing = time.Since(t0)
		t0 = time.Now()
	}
	applyAll(t.maint[n:], true, id, row)
	if profile {
		st.New = time.Since(t0)
		t0 = time.Now()
	}
	// Commit: stamp the version, point the primary index at it and publish
	// the clock atomically, making the row visible to subsequent snapshots.
	c := t.clock
	c.commitMu.Lock()
	commitTS := c.ts.Load() + 1
	t.stampInsert(rid, pk, commitTS, c)
	c.commitMu.Unlock()
	if profile {
		st.Table += time.Since(t0) // the primary-index write is here
	}
	return rid, st, nil
}

// insertIndexEntries inserts one version's entries into every secondary
// index — the maintenance step of UpdateColumn and Txn.Commit (Insert walks
// the same list in its two Fig. 22b phases). The primary index is written
// at commit, by stampInsert/stampUpdate. Caller holds t.catalog shared.
func (t *Table) insertIndexEntries(rid storage.RID, row []float64) {
	applyAll(t.maint, true, t.identify(rid, row[t.pkCol]), row)
}

// removeIndexEntries removes one version's entries from every secondary
// index — reclaim's inverse of insertIndexEntries. Caller holds
// t.catalog shared.
func (t *Table) removeIndexEntries(rid storage.RID, row []float64) {
	applyAll(t.maint, false, t.identify(rid, row[t.pkCol]), row)
}

// Delete removes the row with the given primary key, reporting whether the
// key existed. Under MVCC a delete ends the live version's timestamp
// interval; index entries and the store row stay while a snapshot older than
// the delete can resolve the row, and otherwise go before Delete returns
// (reclaimAfter).
func (t *Table) Delete(pk float64) (bool, error) {
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	budget := t.applyDelete(pk)
	if budget > 0 {
		t.reclaimAfter(budget)
	}
	return budget > 0, nil
}

// applyDelete commits the delete of pk, if it is live, under its stripe, and
// returns the reclaim budget the commit has earned (see applyUpdate): none
// when the key was absent.
func (t *Table) applyDelete(pk float64) (budget int) {
	stripe := t.rows.mu(pk)
	stripe.Lock()
	defer stripe.Unlock()
	cur, hdr := t.head(pk)
	if !hdr.live() {
		return 0
	}
	t.writes.Add(1)
	c := t.clock
	c.commitMu.Lock()
	commitTS := c.ts.Load() + 1
	t.stampDelete(cur, pk, commitTS)
	c.ts.Store(commitTS)
	c.commitMu.Unlock()
	var buf [rowStack]float64
	row, err := t.store.Get(cur, buf[:0])
	if err != nil {
		return 2 // unreachable: the stripe is held and cur was live
	}
	return 1 + t.settle(commitTS, c.OldestActive() >= commitTS, noRID, cur, row)
}

// UpdateColumn changes one column of the row with the given primary key.
// Under MVCC the update appends a fresh version row carrying the new value
// and indexes it everywhere; the superseded version keeps its entries while
// a snapshot older than the update is open, and otherwise is reclaimed
// before UpdateColumn returns. The primary-key column itself cannot be
// changed — the version chains and the per-key write stripes are keyed by
// it; delete and re-insert instead.
func (t *Table) UpdateColumn(pk float64, col int, v float64) error {
	if col == t.pkCol {
		return fmt.Errorf("engine: update: cannot change primary-key column %q (delete and re-insert)", t.cols[col])
	}
	if col < 0 || col >= len(t.cols) {
		return ErrNoSuchColumn
	}
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	budget, err := t.applyUpdate(pk, col, v)
	if budget > 0 {
		t.reclaimAfter(budget)
	}
	return err
}

// applyUpdate commits the update under pk's stripe. It returns the reclaim
// budget the commit has earned: none when nothing was committed (an update to
// the value the row already has), one when the superseded version could be
// reclaimed here, with the stripe held and its row at hand, and two when it
// had to be left on the queue.
func (t *Table) applyUpdate(pk float64, col int, v float64) (budget int, err error) {
	stripe := t.rows.mu(pk)
	stripe.Lock()
	defer stripe.Unlock()
	cur, hdr := t.head(pk)
	if !hdr.live() {
		return 0, fmt.Errorf("engine: update: no row with pk %v", pk)
	}
	// The new version's row is built in pooled scratch: the store copies it
	// on insert and the index maintenance below only reads it.
	sc := getScratch()
	defer putScratch(sc)
	row, err := t.store.Get(cur, sc.rows)
	if err != nil {
		return 0, err
	}
	sc.rows = row
	t.writes.Add(1)
	t.runtime[col].updates.Add(1)
	t.runtime[col].widen(v)
	old := row[col]
	if math.Float64bits(old) == math.Float64bits(v) {
		return 0, nil // the value it has, bit for bit: -0 over +0 is an update
	}
	row[col] = v
	rid, err := t.store.Insert(row)
	if err != nil {
		return 0, err
	}
	t.insertIndexEntries(rid, row)
	c := t.clock
	c.commitMu.Lock()
	commitTS := c.ts.Load() + 1
	t.stampUpdate(pk, rid, commitTS)
	c.ts.Store(commitTS)
	c.commitMu.Unlock()
	row[col] = old
	return 1 + t.settle(commitTS, c.OldestActive() >= commitTS, rid, cur, row), nil
}
