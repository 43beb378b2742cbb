package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"hermit/internal/hermit"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// QueryStats describes one query's execution for the throughput and
// breakdown experiments.
type QueryStats struct {
	// Kind is the index mechanism that served the query.
	Kind IndexKind
	// Path is the access path the query ran on — the planner's choice, or
	// Query.Path when set (finer-grained than Kind: PathHermit and
	// PathTRSDirect both report KindHermit).
	Path AccessPath
	// Rows is the number of qualifying tuples.
	Rows int
	// Candidates counts the distinct candidates the access path handed the
	// base-table pass, false positives and versions no snapshot of the query
	// sees included (equals Rows for exact mechanisms on a table with one
	// version per row).
	Candidates int
	// Breakdown holds per-phase time when the table's profile flag is on:
	// TRS-Tree, host (or secondary) index, primary index (resolving logical
	// identifiers) and base table (the pass).
	Breakdown hermit.Breakdown
}

// FalsePositiveRatio of this query.
func (q QueryStats) FalsePositiveRatio() float64 {
	if q.Candidates == 0 {
		return 0
	}
	return 1 - float64(q.Rows)/float64(q.Candidates)
}

// queryScratch holds the buffers one query execution reuses. The objects
// are pooled package-wide so a steady-state read allocates nothing:
// candidate ids and RIDs land in recycled backing arrays, and the
// pre-bound append callback (a method value created once per scratch
// object) keeps index Scan calls from minting a fresh closure per query.
// Scratch memory never escapes into query results — the pass copies into
// the caller's Answer — so returning the object to the pool is always safe.
//
// Pool discipline: scratch is acquired before any latch and released after
// the query has let go of them all; it interacts with no latch, so it adds
// nothing to the lock order.
type queryScratch struct {
	ids  []uint64
	rids []storage.RID
	// out holds the RIDs Exec does not keep; rows holds the rows Lookup
	// does not keep, and UpdateColumn's copy of the current version.
	out  []storage.RID
	rows []float64
	// harvest is the Hermit lookups' scratch; tres the TRS-Tree result of
	// PathTRSDirect, which resolves the tree's output itself.
	harvest hermit.Scratch
	tres    trstree.Result

	// appendID appends a scanned entry's id into ids; bound once here so
	// Scan callbacks do not allocate per query.
	appendID func(key float64, id uint64) bool
}

// maxScratchEntries caps scratch retention, in entries and in row values:
// a query that harvested an unusually large candidate set (a full-table
// scan, say) must not pin that memory in the pool forever.
const maxScratchEntries = 1 << 16

var queryScratchPool = sync.Pool{New: func() any {
	sc := &queryScratch{}
	sc.appendID = func(_ float64, id uint64) bool { sc.ids = append(sc.ids, id); return true }
	return sc
}}

// getScratch draws a scratch object from the pool.
func getScratch() *queryScratch { return queryScratchPool.Get().(*queryScratch) }

// putScratch resets and returns a scratch object to the pool, dropping
// oversized backing arrays.
func putScratch(sc *queryScratch) {
	sc.ids = trimmed(sc.ids)
	sc.rids = trimmed(sc.rids)
	sc.out = trimmed(sc.out)
	sc.rows = trimmed(sc.rows)
	sc.harvest.Trim(maxScratchEntries)
	if cap(sc.tres.IDs) > maxScratchEntries {
		sc.tres.IDs = nil
	}
	queryScratchPool.Put(sc)
}

// trimmed empties a pooled buffer, dropping it when it outgrew
// maxScratchEntries.
func trimmed[T any](s []T) []T {
	if cap(s) > maxScratchEntries {
		return nil
	}
	return s[:0]
}

// ErrPathUnavailable is returned for a Query whose Path names an access
// path the table cannot run for its predicate — one Explain lists as
// unavailable. A forced path is never silently re-routed.
var ErrPathUnavailable = errors.New("engine: access path not available for this predicate")

// Pred is one range predicate: Lo <= Col <= Hi.
type Pred struct {
	Col    int
	Lo, Hi float64
}

// Query is one read: the rows with Lo <= Col <= Hi (a point query is
// Lo == Hi) that also satisfy And when it is set, as of one snapshot.
// Values compare as float64s do: -0 equals +0, and a NaN — value or bound —
// satisfies no range. The one exception is a key named by itself: a point
// on the primary index (PathPrimary, Lo and Hi the same bits) finds that
// key, NaN payloads included.
type Query struct {
	// Col, Lo and Hi are the predicate.
	Col    int
	Lo, Hi float64
	// And is an optional second predicate (a two-column query). A
	// composite index on (Col, And.Col) serves it when Path is PathAuto;
	// otherwise the first predicate's path runs and the base-table pass
	// checks And on each row.
	And *Pred
	// Snap is the snapshot the query reads at. When nil, the query takes
	// one and releases it before returning.
	Snap *Snapshot
	// Path forces the access path of the first predicate; the zero value,
	// PathAuto, lets the planner choose. A path the table cannot run for
	// the predicate fails with ErrPathUnavailable.
	Path AccessPath
}

// Answer is what a query's base-table pass appends to: the RIDs of the
// matching row versions, in RID order, and their rows, whole and back to
// back (len(Columns()) values each), one per RID. A RID names one version
// of a row and is good while a snapshot that sees it is held; the rows
// are copies.
type Answer struct {
	RIDs []storage.RID
	Rows []float64
}

// Exec answers q with whole rows: it appends every matching row, row by
// row and back to back (len(Columns()) values each), to dst and returns
// the grown buffer. The rows are copied under q.Snap — or under a snapshot
// the query holds for the whole call — so no concurrent commit can reclaim
// a row between finding and copying it. With a reused dst a warm query on
// an exact path allocates nothing. Execution results (hit counts,
// false-positive ratios, sampled latencies) feed the planner's per-path
// statistics. Queries hold only the catalog read latch plus the read
// latches of the structures they traverse, so queries on different
// indexes do not contend and writers never block snapshot reads.
func (t *Table) Exec(q Query, dst []float64) ([]float64, QueryStats, error) {
	sc := getScratch()
	defer putScratch(sc)
	a := Answer{RIDs: sc.out[:0], Rows: dst}
	st, err := t.run(q, &a, sc)
	sc.out = a.RIDs
	return a.Rows, st, err
}

// Lookup is Exec keeping the RIDs instead of the rows: it appends the RIDs
// of the matching row versions visible at q.Snap, in RID order, into
// dst[:0] (freshly allocated when dst is nil). With a nil q.Snap, the
// query's own snapshot is released on return, and the RIDs are good only
// until the next commit to the table.
func (t *Table) Lookup(q Query, dst []storage.RID) ([]storage.RID, QueryStats, error) {
	sc := getScratch()
	defer putScratch(sc)
	a := Answer{RIDs: dst[:0], Rows: sc.rows[:0]}
	st, err := t.run(q, &a, sc)
	sc.rows = a.Rows
	if err != nil {
		return nil, st, err
	}
	return a.RIDs, st, nil
}

// Run answers q into a, keeping both the RIDs and the rows (a partition's
// gather leg merges on the rows and reports the RIDs). On error a is left
// as it was.
func (t *Table) Run(q Query, a *Answer) (QueryStats, error) {
	sc := getScratch()
	defer putScratch(sc)
	return t.run(q, a, sc)
}

// SplitRows appends to dst one view per row of flat, Exec's back-to-back
// layout of width-value rows; the views share flat's memory.
func SplitRows(flat []float64, width int, dst [][]float64) [][]float64 {
	for i := 0; i+width <= len(flat) && width > 0; i += width {
		dst = append(dst, flat[i:i+width:i+width])
	}
	return dst
}

// run is every query's one execution: it plans q (or takes q.Path), runs
// the access path, and hands the path's candidates to the base-table pass,
// which appends the answer to a.
func (t *Table) run(q Query, a *Answer, sc *queryScratch) (QueryStats, error) {
	if q.Col < 0 || q.Col >= len(t.cols) || q.And != nil && (q.And.Col < 0 || q.And.Col >= len(t.cols)) {
		return QueryStats{}, ErrNoSuchColumn
	}
	if q.Snap == nil {
		q.Snap = t.clock.Snapshot()
		defer q.Snap.Recycle()
	}
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	if q.And != nil {
		return t.run2Locked(q, a, sc)
	}
	return t.runLocked(q, a, sc)
}

// run2Locked is run's two-column case,
//
//	q.Lo <= q.Col <= q.Hi AND q.And.Lo <= q.And.Col <= q.And.Hi,
//
// with t.catalog held shared. Under PathAuto a composite Hermit index on
// (Col, And.Col) serves it, else a complete composite index; otherwise —
// and whenever q.Path is set — the first predicate runs on its own path
// and the pass checks And on every row it copies.
func (t *Table) run2Locked(q Query, a *Answer, sc *queryScratch) (QueryStats, error) {
	var x *index
	path := PathHermit
	if q.Path == PathAuto {
		if x = t.find(KindHermit, q.Col, q.And.Col); x == nil {
			path, x = PathBTree, t.find(KindBTree, q.Col, q.And.Col)
		}
	}
	n := len(a.RIDs)
	var st QueryStats
	var err error
	if x == nil {
		st, err = t.runLocked(q, a, sc)
	} else {
		st, err = t.execPathLocked(q, path, x, a, sc)
		st.Path = path
	}
	st.Rows = len(a.RIDs) - n // the pass counted the first predicate's rows
	return st, err
}

// runLocked is run's single-predicate case (and the first predicate of a
// two-column query no composite index serves); t.catalog is held shared.
func (t *Table) runLocked(q Query, a *Answer, sc *queryScratch) (QueryStats, error) {
	path, modelCost := q.Path, 0.0
	if path == PathAuto {
		var ests [numPaths]PathEstimate
		path, ests, _, _ = t.planLocked(q.Col, q.Lo, q.Hi, false)
		modelCost = ests[path].Cost
	} else if !t.availableLocked(q.Col, path) {
		return QueryStats{}, fmt.Errorf("%w: %v on column %q", ErrPathUnavailable, path, t.cols[q.Col])
	}
	// Latency is sampled (1 in latencySampleMask+1) so the feedback loop
	// does not tax every query with clock reads.
	timed := t.runtime[q.Col].paths[path].count.Load()&latencySampleMask == 0
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	st, err := t.execPathLocked(q, path, t.find(path.Kind(), q.Col, noCol), a, sc)
	if err != nil {
		return st, err
	}
	var elapsed time.Duration
	if timed {
		elapsed = time.Since(t0)
	}
	t.recordQuery(q.Col, path, modelCost, elapsed, st)
	st.Path = path
	return st, nil
}

// execPathLocked runs q on one access path — its first predicate, or both
// when x, the index the path runs (nil for PathScan and PathPrimary), is
// looked up by two columns — and the candidates through the pass; t.catalog
// is held shared. The caller guarantees the path is available (planLocked
// or availableLocked).
func (t *Table) execPathLocked(q Query, path AccessPath, x *index, a *Answer, sc *queryScratch) (QueryStats, error) {
	st := QueryStats{Kind: path.Kind()}
	var err error
	switch path {
	case PathHermit:
		// The TRS-Tree latches itself; the host index is the structure bound
		// to the index at creation, under its own latch.
		profile := t.profile.Load()
		x.hostMu.RLock()
		if x.and == noCol {
			st.Breakdown = x.hx.Lookup(q.Lo, q.Hi, &sc.harvest, profile)
		} else {
			st.Breakdown = x.hx.LookupAB(q.Lo, q.Hi, q.And.Lo, q.And.Hi, &sc.harvest, profile)
		}
		x.hostMu.RUnlock()
		err = t.pass(q, sc.harvest.IDs, t.harvested(), false, sc, &st, a)
	case PathCM:
		// CM is physical-pointers only, so its candidates are version RIDs.
		x.mu.RLock()
		x.hostMu.RLock()
		sc.ids = sc.ids[:0]
		x.cx.Lookup(q.Lo, q.Hi, sc.appendID)
		x.hostMu.RUnlock()
		x.mu.RUnlock()
		err = t.pass(q, sc.ids, versionRIDs, false, sc, &st, a)
	case PathBTree:
		err = t.btreeRange(q, x, sc, &st, a)
	case PathPrimary:
		err = t.primaryRange(q, sc, &st, a)
	case PathTRSDirect:
		err = t.trsDirectRange(q, x, sc, &st, a)
	default:
		err = t.scanRange(q, sc, &st, a)
	}
	return st, err
}

// harvest names what an access path hands the pass.
type harvest int

const (
	// versionRIDs are RIDs of row versions, in any order and possibly
	// repeated: what an index stores under physical pointers.
	versionRIDs harvest = iota
	// logicalIDs are logical identifiers (hermit.LogicalID): what an index
	// stores under logical pointers.
	logicalIDs
	// visibleRIDs are the versions visible at the query's snapshot, already
	// resolved by the path and left in the scratch's rids (primaryRange).
	visibleRIDs
)

// harvested is what the table's secondary indexes hand the pass.
func (t *Table) harvested() harvest {
	if t.scheme == hermit.LogicalPointers {
		return logicalIDs
	}
	return versionRIDs
}

// pass is the one base-table visit every access path ends in — step 4 of
// Fig. 3, and the tuple fetch of a secondary-index plan. Over the
// candidates ids it
//
//  1. resolves logical identifiers to their versions visible at q.Snap
//     (resolveKeys, the primary-index hop), or sorts and deduplicates
//     version RIDs;
//  2. drops, under one mvccMu hold, the versions q.Snap does not see;
//  3. copies the surviving rows, in RID order, to a.Rows with one
//     storage.GetRun under one store latch;
//  4. checks the predicate on each copied row where the path is inexact
//     (exact false), and q.And wherever it is set, dropping the rows that
//     fail from a.Rows;
//  5. appends the RIDs of the rows it kept to a.RIDs.
//
// Each row is read once. st.Candidates counts the distinct candidates
// (visibleRIDs: set by the path), st.Rows those that satisfy the first
// predicate; the profile times step 1 of logical identifiers as the
// primary-index phase and the rest as the base-table phase. On error a is
// left as it was.
func (t *Table) pass(q Query, ids []uint64, h harvest, exact bool, sc *queryScratch, st *QueryStats, a *Answer) error {
	profile := t.profile.Load()
	var t0 time.Time
	if profile {
		t0 = time.Now()
	}
	rids := sc.rids
	switch h {
	case versionRIDs:
		slices.Sort(ids)
		ids = slices.Compact(ids)
		st.Candidates = len(ids)
		rids = rids[:0]
		t.mvccMu.RLock()
		for _, id := range ids {
			if t.header(storage.RID(id)).visibleAt(q.Snap.ts) {
				rids = append(rids, storage.RID(id))
			}
		}
		t.mvccMu.RUnlock()
	case logicalIDs:
		rids, st.Candidates = t.resolveKeys(ids, q.Snap.ts, rids)
		if profile {
			st.Breakdown[hermit.PhasePrimaryIndex] += time.Since(t0)
			t0 = time.Now()
		}
		slices.Sort(rids)
	default:
		slices.Sort(rids)
	}
	sc.rids = rids
	w, n := len(t.cols), len(a.Rows)
	a.Rows = slices.Grow(a.Rows, len(rids)*w)
	rows := a.Rows[n : n+len(rids)*w]
	if _, err := t.store.GetRun(rids, rows); err != nil {
		a.Rows = a.Rows[:n]
		return err
	}
	kept, matched := 0, 0
	for i, rid := range rids {
		row := rows[i*w : (i+1)*w]
		if !exact && !(row[q.Col] >= q.Lo && row[q.Col] <= q.Hi) {
			continue
		}
		matched++
		if q.And != nil && !(row[q.And.Col] >= q.And.Lo && row[q.And.Col] <= q.And.Hi) {
			continue
		}
		copy(rows[kept*w:], row)
		rids[kept] = rid
		kept++
	}
	a.Rows = a.Rows[:n+kept*w]
	a.RIDs = append(a.RIDs, rids[:kept]...)
	st.Rows = matched
	if profile {
		st.Breakdown[hermit.PhaseBaseTable] += time.Since(t0)
	}
	return nil
}

// RangeQueryInto is Lookup(Query{Col: col, Lo: lo, Hi: hi}, dst). It
// exists only for benchmark/, which calls it, and goes with benchmark v2.
func (t *Table) RangeQueryInto(col int, lo, hi float64, dst []storage.RID) ([]storage.RID, QueryStats, error) {
	return t.Lookup(Query{Col: col, Lo: lo, Hi: hi}, dst)
}

// PointQueryInto is RangeQueryInto(col, v, v, dst). It exists only for
// benchmark/, which calls it, and goes with benchmark v2.
func (t *Table) PointQueryInto(col int, v float64, dst []storage.RID) ([]storage.RID, QueryStats, error) {
	return t.Lookup(Query{Col: col, Lo: v, Hi: v}, dst)
}

// btreeRange executes the conventional secondary-index plan, the Baseline
// of every figure: a scan of x, then the pass. Under physical pointers the
// candidates are version RIDs and the index is exact; under logical
// pointers they are primary keys, and the version the snapshot sees may
// hold another value than the one the entry was made for, so the pass
// checks the predicate. A two-key x (physical pointers only) serves both
// predicates, so the pass checks neither (but for NaN bounds).
func (t *Table) btreeRange(q Query, x *index, sc *queryScratch, st *QueryStats, a *Answer) error {
	profile := t.profile.Load()
	var t0 time.Time
	if profile {
		t0 = time.Now()
	}
	sc.ids = sc.ids[:0]
	x.mu.RLock()
	if x.and == noCol {
		x.tree.Scan(q.Lo, q.Hi, sc.appendID)
	} else {
		x.tree.ScanAB(q.Lo, q.Hi, q.And.Lo, q.And.Hi, sc.appendID)
		if ordered(q.And.Lo, q.And.Hi) {
			q.And = nil
		}
	}
	x.mu.RUnlock()
	if profile {
		st.Breakdown[hermit.PhaseHostIndex] += time.Since(t0)
	}
	h := t.harvested()
	return t.pass(q, sc.ids, h, h == versionRIDs && ordered(q.Lo, q.Hi), sc, st, a)
}

// ordered reports whether an index scan from lo to hi — which takes its
// bounds in keyorder's total order — finds exactly the keys the predicate
// lo <= key <= hi admits: when neither bound is NaN.
func ordered(lo, hi float64) bool { return !math.IsNaN(lo) && !math.IsNaN(hi) }

// primaryRange serves range queries on the primary-key column. The
// primary index keeps one entry per key, the head of its version chain, so
// the scan yields the heads directly and each resolves through its chain to
// the incarnation visible at the snapshot; the key value itself is shared
// by every version, so the pass checks no predicate — but for NaN bounds,
// unless they name one key (Query). With a reused dst this path — the PK
// point read — allocates nothing.
func (t *Table) primaryRange(q Query, sc *queryScratch, st *QueryStats, a *Answer) error {
	sc.ids = sc.ids[:0]
	t.mvccMu.RLock()
	t.primary.Scan(q.Lo, q.Hi, sc.appendID)
	sc.rids = sc.rids[:0]
	for _, head := range sc.ids {
		sc.rids = append(sc.rids, storage.RID(head))
	}
	sc.rids = t.visibleFromAll(sc.rids, q.Snap.ts)
	t.mvccMu.RUnlock()
	st.Candidates = len(sc.ids)
	exact := ordered(q.Lo, q.Hi) || math.Float64bits(q.Lo) == math.Float64bits(q.Hi)
	return t.pass(q, nil, visibleRIDs, exact, sc, st, a)
}

// scanRange is the unindexed fallback: a full table scan over every
// version row, filtered by the predicate; the pass resolves visibility.
func (t *Table) scanRange(q Query, sc *queryScratch, st *QueryStats, a *Answer) error {
	sc.ids = sc.ids[:0]
	err := t.store.ScanColumn(q.Col, func(rid storage.RID, v float64) bool {
		if v >= q.Lo && v <= q.Hi {
			sc.ids = append(sc.ids, uint64(rid))
		}
		return true
	})
	if err != nil {
		return err
	}
	return t.pass(q, sc.ids, versionRIDs, true, sc, st, a)
}

// trsDirectRange executes PathTRSDirect on Hermit index x: a TRS-Tree
// lookup resolved by one sequential pass over the host column — the version
// rows whose host value falls in a predicted range, plus the buffered
// outliers — with no host-index or primary-index latches; the pass
// validates.
func (t *Table) trsDirectRange(q Query, x *index, sc *queryScratch, st *QueryStats, a *Answer) error {
	tres := &sc.tres
	x.hx.Tree().LookupInto(q.Lo, q.Hi, tres)
	sc.ids = append(sc.ids[:0], tres.IDs...)
	// Outlier identifiers are primary keys under logical pointers: they
	// resolve through the primary index and the version chains to the
	// version the snapshot reads, which joins the scanned RIDs.
	if t.scheme == hermit.LogicalPointers {
		sc.rids, _ = t.resolveKeys(sc.ids, q.Snap.ts, sc.rids)
		sc.ids = sc.ids[:0]
		for _, rid := range sc.rids {
			sc.ids = append(sc.ids, uint64(rid))
		}
	}
	err := t.store.ScanColumn(x.b, func(rid storage.RID, nv float64) bool {
		for _, r := range tres.Ranges {
			if nv >= r.Lo && nv <= r.Hi {
				sc.ids = append(sc.ids, uint64(rid))
				break
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	return t.pass(q, sc.ids, versionRIDs, false, sc, st, a)
}

// FetchRows reads the rows at rids into dst[:0], one row each. It exists
// only for benchmark/, which calls it after RangeQueryInto or
// PointQueryInto, and goes with benchmark v2.
func (t *Table) FetchRows(rids []storage.RID, dst [][]float64) ([][]float64, error) {
	flat, err := t.store.GetRun(rids, nil)
	if err != nil {
		return nil, err
	}
	return SplitRows(flat, len(t.cols), dst[:0]), nil
}
