package engine

import (
	"errors"
	"fmt"
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
	// Candidates counts tuples fetched before validation (equals Rows for
	// exact mechanisms).
	Candidates int
	// Breakdown holds per-phase time when the table's profile flag is on.
	// For the baseline the phases map to: secondary index (PhaseHostIndex),
	// primary index (PhasePrimaryIndex), base table (PhaseBaseTable).
	Breakdown hermit.Breakdown
}

// FalsePositiveRatio of this query.
func (q QueryStats) FalsePositiveRatio() float64 {
	if q.Candidates == 0 {
		return 0
	}
	return 1 - float64(q.Rows)/float64(q.Candidates)
}

// queryScratch holds the harvest buffers one query execution reuses. The
// objects are pooled package-wide so a steady-state read allocates
// nothing: candidate keys, ids, and RIDs land in recycled backing arrays,
// and the pre-bound append callbacks (method values created once per
// scratch object) keep index Scan calls from minting a fresh closure per
// query. Scratch memory never escapes into query results — results go to
// the caller's dst buffer or a fresh allocation, and Exec copies rows out
// of the RIDs it keeps in out — so returning the object to the pool is
// always safe.
//
// Pool discipline: scratch is acquired after all latches the path takes
// are decided and is released before the query returns; it interacts with
// no latch, so it adds nothing to the lock order.
type queryScratch struct {
	ids  []uint64
	rids []storage.RID
	res  []storage.RID
	// out is Exec's RID stage: the RIDs whose rows it copies out.
	out []storage.RID
	// row is UpdateColumn's copy of the current version: the next
	// version's row is built in it.
	row []float64
	// harvest is the physical-pointer Hermit lookup's scratch; tres the
	// TRS-Tree result of the paths that resolve the tree's output themselves.
	harvest hermit.Scratch
	tres    trstree.Result

	// appendID appends a scanned entry's id into ids; bound once here so
	// Scan callbacks do not allocate per query.
	appendID func(key float64, id uint64) bool
}

// maxScratchEntries caps scratch retention: a query that harvested an
// unusually large candidate set (a full-table scan, say) must not pin that
// memory in the pool forever.
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
	if cap(sc.ids) > maxScratchEntries {
		sc.ids = nil
	}
	if cap(sc.rids) > maxScratchEntries {
		sc.rids = nil
	}
	if cap(sc.res) > maxScratchEntries {
		sc.res = nil
	}
	if cap(sc.out) > maxScratchEntries {
		sc.out = nil
	}
	sc.ids, sc.rids, sc.res, sc.out = sc.ids[:0], sc.rids[:0], sc.res[:0], sc.out[:0]
	sc.harvest.Trim(maxScratchEntries)
	if cap(sc.tres.IDs) > maxScratchEntries {
		sc.tres.IDs = nil
	}
	queryScratchPool.Put(sc)
}

// resultBuf returns the buffer query results are appended into: the
// caller's dst (reset to length zero), or a fresh allocation sized for n
// results when no dst was supplied.
func resultBuf(dst []storage.RID, n int) []storage.RID {
	if dst == nil && n > 0 {
		return make([]storage.RID, 0, n)
	}
	return dst[:0]
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
type Query struct {
	// Col, Lo and Hi are the predicate.
	Col    int
	Lo, Hi float64
	// And is an optional second predicate (a two-column query). A
	// composite index on (Col, And.Col) serves it when Path is PathAuto;
	// otherwise the first predicate's path runs and And is checked on each
	// row it returns.
	And *Pred
	// Snap is the snapshot the query reads at. When nil, Exec takes one
	// and releases it before returning.
	Snap *Snapshot
	// Path forces the access path of the first predicate; the zero value,
	// PathAuto, lets the planner choose. A path the table cannot run for
	// the predicate fails with ErrPathUnavailable.
	Path AccessPath
}

// Exec answers q with whole rows: it appends every matching row, row by
// row and back to back (len(Columns()) values each), to dst and returns
// the grown buffer. The rows are read under q.Snap — or under a snapshot
// Exec holds for the whole call — so no concurrent commit can reclaim a
// row between finding and copying it. With a reused dst a warm query on
// an exact path allocates nothing. Execution results (hit counts,
// false-positive ratios, sampled latencies) feed the planner's per-path
// statistics. Queries hold only the catalog read latch plus the read
// latches of the structures they traverse, so queries on different
// indexes do not contend and writers never block snapshot reads.
func (t *Table) Exec(q Query, dst []float64) ([]float64, QueryStats, error) {
	if q.Snap == nil {
		q.Snap = t.clock.Snapshot()
		defer q.Snap.Recycle()
	}
	sc := getScratch()
	defer putScratch(sc)
	rids, st, err := t.Lookup(q, sc.out)
	if err != nil {
		return dst, st, err
	}
	sc.out = rids
	dst, err = t.appendRows(dst, rids)
	return dst, st, err
}

// appendRows appends the rows at rids to dst, back to back, under one hold
// of the store's latch.
func (t *Table) appendRows(dst []float64, rids []storage.RID) ([]float64, error) {
	n, need := len(dst), len(rids)*len(t.cols)
	dst = slices.Grow(dst, need)
	if _, err := t.store.GetRun(rids, dst[n:n+need]); err != nil {
		return dst[:n], err
	}
	return dst[:n+need], nil
}

// SplitRows appends to dst one view per row of flat, Exec's back-to-back
// layout of width-value rows; the views share flat's memory.
func SplitRows(flat []float64, width int, dst [][]float64) [][]float64 {
	for i := 0; i+width <= len(flat) && width > 0; i += width {
		dst = append(dst, flat[i:i+width:i+width])
	}
	return dst
}

// Lookup is Exec's first stage: it plans q (or takes q.Path), runs the
// access path and appends the RIDs of the matching row versions visible
// at q.Snap into dst[:0] (freshly allocated when dst is nil). A RID names
// one version of a row and is good while a snapshot that sees it is held:
// with a nil q.Snap, Lookup's own snapshot is released on return, and the
// RIDs are good only until the next commit to the table.
func (t *Table) Lookup(q Query, dst []storage.RID) ([]storage.RID, QueryStats, error) {
	if q.Col < 0 || q.Col >= len(t.cols) || q.And != nil && (q.And.Col < 0 || q.And.Col >= len(t.cols)) {
		return nil, QueryStats{}, ErrNoSuchColumn
	}
	if q.Snap == nil {
		q.Snap = t.clock.Snapshot()
		defer q.Snap.Recycle()
	}
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	if q.And != nil {
		return t.lookup2Locked(q, dst)
	}
	return t.lookupLocked(q, dst)
}

// lookupLocked is Lookup's single-predicate case; t.catalog is held shared.
func (t *Table) lookupLocked(q Query, dst []storage.RID) ([]storage.RID, QueryStats, error) {
	path, modelCost := q.Path, 0.0
	if path == PathAuto {
		var ests [numPaths]PathEstimate
		path, ests, _, _ = t.planLocked(q.Col, q.Lo, q.Hi, false)
		modelCost = ests[path].Cost
	} else if !t.availableLocked(q.Col, path) {
		return nil, QueryStats{}, fmt.Errorf("%w: %v on column %q", ErrPathUnavailable, path, t.cols[q.Col])
	}
	// Latency is sampled (1 in latencySampleMask+1) so the feedback loop
	// does not tax every query with clock reads.
	timed := t.runtime[q.Col].paths[path].count.Load()&latencySampleMask == 0
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	rids, st, err := t.execPathLocked(q.Snap, path, q.Col, q.Lo, q.Hi, dst)
	if err != nil {
		return nil, st, err
	}
	var elapsed time.Duration
	if timed {
		elapsed = time.Since(t0)
	}
	t.recordQuery(q.Col, path, modelCost, elapsed, st)
	st.Path = path
	return rids, st, nil
}

// execPathLocked executes the predicate over one access path at the given
// snapshot; t.catalog is held shared. The caller guarantees the path is
// available (planLocked or availableLocked). Results are appended into
// dst[:0], or into a fresh allocation when dst is nil.
func (t *Table) execPathLocked(snap *Snapshot, path AccessPath, col int, lo, hi float64, dst []storage.RID) ([]storage.RID, QueryStats, error) {
	switch path {
	case PathHermit:
		if t.scheme == hermit.LogicalPointers {
			return t.hermitLogicalRange(snap, col, lo, hi, dst)
		}
		// The Hermit lookup traverses its self-latching TRS-Tree, then the
		// host index; both candidate harvesting and validation run against
		// immutable version rows, so the engine only filters visibility.
		sc := getScratch()
		defer putScratch(sc)
		hostMu := t.hermitHostMu[col]
		hostMu.RLock()
		res := t.hermits[col].LookupInto(lo, hi, &sc.harvest)
		hostMu.RUnlock()
		rids := t.filterVersions(snap, res.RIDs, dst)
		return rids, QueryStats{
			Kind:       KindHermit,
			Rows:       len(rids),
			Candidates: res.Candidates,
			Breakdown:  res.Breakdown,
		}, nil
	case PathCM:
		// CM lookups read the bucket map and scan the host index (CM is
		// physical-pointers only, so candidates are version RIDs).
		cmMu := t.cmMu.get(col)
		cmMu.RLock()
		hostMu := t.cmHostMu[col]
		hostMu.RLock()
		res := t.cms[col].Lookup(lo, hi)
		hostMu.RUnlock()
		cmMu.RUnlock()
		rids := t.filterVersions(snap, res.RIDs, dst)
		return rids, QueryStats{
			Kind:       KindCM,
			Rows:       len(rids),
			Candidates: res.Candidates,
		}, nil
	case PathBTree:
		return t.baselineRange(snap, t.secondary[col], t.secondaryMu.get(col), KindBTree, col, lo, hi, dst)
	case PathPrimary:
		return t.primaryRange(snap, lo, hi, dst)
	case PathTRSDirect:
		return t.trsDirectRange(snap, col, lo, hi, dst)
	default:
		return t.scanRange(snap, col, lo, hi, dst)
	}
}

// filterVersions appends the candidates whose version is visible at the
// snapshot into dst[:0] (freshly allocated when dst is nil), leaving src
// intact — src is usually pooled scratch, which must never escape into
// results; a caller that owns src may pass src[:0] to filter in place.
// Exact for candidate sets that are per-version (every index keeps one
// entry per version, and a version's row is immutable, so a validated
// candidate either is the visible incarnation of its key or is filtered
// here; the visible incarnation always appears among the candidates
// through its own entries).
func (t *Table) filterVersions(snap *Snapshot, src, dst []storage.RID) []storage.RID {
	out := resultBuf(dst, len(src))
	t.verMu.RLock()
	for _, rid := range src {
		if t.header(rid).visibleAt(snap.ts) {
			out = append(out, rid)
		}
	}
	t.verMu.RUnlock()
	return out
}

// hermitLogicalRange executes the Hermit mechanism under logical pointers
// with MVCC-aware resolution: TRS-Tree ranges are scanned on the host
// index as usual, the harvested primary keys take the primary-index hop to
// their chain heads and resolve from there to the incarnation visible at
// the snapshot (not necessarily the newest, which is what the primary
// names), which is then validated against the target predicate.
func (t *Table) hermitLogicalRange(snap *Snapshot, col int, lo, hi float64, dst []storage.RID) ([]storage.RID, QueryStats, error) {
	hx := t.hermits[col]
	st := QueryStats{Kind: KindHermit}
	profile := t.profile.Load()
	var t0 time.Time
	if profile {
		t0 = time.Now()
	}
	sc := getScratch()
	defer putScratch(sc)
	tres := &sc.tres
	hx.Tree().LookupInto(lo, hi, tres)
	if profile {
		st.Breakdown[hermit.PhaseTRSTree] += time.Since(t0)
		t0 = time.Now()
	}
	// Outlier identifiers are primary keys under this scheme. Harvest into
	// the scratch so the host-index appends never grow the index-owned
	// backing array.
	sc.ids = append(sc.ids[:0], tres.IDs...)
	hostMu := t.hermitHostMu[col]
	hostMu.RLock()
	host := t.secondary[t.hostOf[col]]
	if host == nil {
		// pk-hosted indexes are rejected at creation under logical
		// pointers, so the host B+-tree always exists here; guard anyway.
		hostMu.RUnlock()
		return nil, st, ErrNoHostIndex
	}
	for _, r := range tres.Ranges {
		host.Scan(r.Lo, r.Hi, sc.appendID)
	}
	hostMu.RUnlock()
	if profile {
		st.Breakdown[hermit.PhaseHostIndex] += time.Since(t0)
		t0 = time.Now()
	}
	// Resolve each candidate key to its visible incarnation (the primary-
	// index hop), batched ...
	sc.res, st.Candidates = t.resolveKeys(sc.ids, snap.ts, sc.res)
	if profile {
		st.Breakdown[hermit.PhasePrimaryIndex] += time.Since(t0)
		t0 = time.Now()
	}
	// ... then validate the target predicate against the base table.
	out := resultBuf(dst, len(sc.res))
	for _, rid := range sc.res {
		m, err := t.store.Value(rid, col)
		if err == nil && m >= lo && m <= hi {
			out = append(out, rid)
		}
	}
	if profile {
		st.Breakdown[hermit.PhaseBaseTable] += time.Since(t0)
	}
	st.Rows = len(out)
	return out, st, nil
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

// baselineRange executes the conventional secondary-index plan: index
// scan, then visibility resolution. This is the Baseline of every figure.
// mu is the scanned index's latch. Under physical pointers candidates are
// version RIDs filtered directly; under logical pointers they are primary
// keys resolved through the version chains, with the predicate re-checked
// on the visible incarnation (whose value may differ from the harvested
// entry's version).
func (t *Table) baselineRange(snap *Snapshot, idx interface {
	Scan(lo, hi float64, fn func(key float64, id uint64) bool)
}, mu *sync.RWMutex, kind IndexKind, col int, lo, hi float64, dst []storage.RID) ([]storage.RID, QueryStats, error) {
	st := QueryStats{Kind: kind}
	profile := t.profile.Load()
	var t0 time.Time
	if profile {
		t0 = time.Now()
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.ids = sc.ids[:0]
	mu.RLock()
	idx.Scan(lo, hi, sc.appendID)
	mu.RUnlock()
	if profile {
		st.Breakdown[hermit.PhaseHostIndex] += time.Since(t0)
		t0 = time.Now()
	}
	if t.scheme == hermit.LogicalPointers {
		// Resolve the harvested keys through the primary index and the
		// version chains, then re-check the predicate on the visible
		// incarnations.
		sc.res, st.Candidates = t.resolveKeys(sc.ids, snap.ts, sc.res)
		out := resultBuf(dst, len(sc.res))
		for _, rid := range sc.res {
			m, err := t.store.Value(rid, col)
			if err == nil && m >= lo && m <= hi {
				out = append(out, rid)
			}
		}
		if profile {
			st.Breakdown[hermit.PhasePrimaryIndex] += time.Since(t0)
			t0 = time.Now()
		}
		st.Rows = len(out)
		return out, st, nil
	}
	sc.rids = sc.rids[:0]
	for _, id := range sc.ids {
		sc.rids = append(sc.rids, storage.RID(id))
	}
	out := t.filterVersions(snap, sc.rids, dst)
	if profile {
		st.Breakdown[hermit.PhaseBaseTable] += time.Since(t0)
	}
	st.Rows = len(out)
	st.Candidates = len(sc.ids)
	return out, st, nil
}

// primaryRange serves range queries on the primary-key column. The
// primary index keeps one entry per key, the head of its version chain, so
// the scan yields the heads directly and each resolves through its chain to
// the incarnation visible at the snapshot; the key value itself is shared
// by every version, so no predicate re-check is needed. With a reused dst
// this path — the PK point read — allocates nothing.
func (t *Table) primaryRange(snap *Snapshot, lo, hi float64, dst []storage.RID) ([]storage.RID, QueryStats, error) {
	st := QueryStats{Kind: KindPrimary}
	sc := getScratch()
	defer putScratch(sc)
	sc.ids = sc.ids[:0]
	t.primaryMu.RLock()
	t.primary.Scan(lo, hi, sc.appendID)
	out := resultBuf(dst, len(sc.ids))
	for _, head := range sc.ids {
		out = append(out, storage.RID(head))
	}
	t.handOver()
	out = t.visibleFromAll(out, snap.ts)
	t.verMu.RUnlock()
	st.Rows, st.Candidates = len(out), len(sc.ids)
	return out, st, nil
}

// scanRange is the unindexed fallback: a full table scan over every
// version row, filtered by predicate and visibility.
func (t *Table) scanRange(snap *Snapshot, col int, lo, hi float64, dst []storage.RID) ([]storage.RID, QueryStats, error) {
	st := QueryStats{Kind: KindNone}
	sc := getScratch()
	defer putScratch(sc)
	sc.rids = sc.rids[:0]
	err := t.store.ScanColumn(col, func(rid storage.RID, v float64) bool {
		if v >= lo && v <= hi {
			sc.rids = append(sc.rids, rid)
		}
		return true
	})
	if err != nil {
		return nil, st, err
	}
	st.Candidates = len(sc.rids)
	out := t.filterVersions(snap, sc.rids, dst)
	st.Rows = len(out)
	return out, st, nil
}

// FetchRows reads the rows at rids into dst[:0], one row each. It exists
// only for benchmark/, which calls it after RangeQueryInto or
// PointQueryInto, and goes with benchmark v2.
func (t *Table) FetchRows(rids []storage.RID, dst [][]float64) ([][]float64, error) {
	flat, err := t.appendRows(nil, rids)
	if err != nil {
		return nil, err
	}
	return SplitRows(flat, len(t.cols), dst[:0]), nil
}
