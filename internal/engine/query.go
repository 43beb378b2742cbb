package engine

import (
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
	// Path is the access path the planner executed (finer-grained than
	// Kind: PathHermit and PathTRSDirect both report KindHermit).
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
// the caller's dst buffer or a fresh allocation — so returning the object
// to the pool is always safe.
//
// Pool discipline: scratch is acquired after all latches the path takes
// are decided and is released before the query returns; it interacts with
// no latch, so it adds nothing to the lock order.
type queryScratch struct {
	ids  []uint64
	rids []storage.RID
	res  []storage.RID
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
	sc.ids, sc.rids, sc.res = sc.ids[:0], sc.rids[:0], sc.res[:0]
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

// RangeQuery returns the RIDs of rows with lo <= col <= hi, reading at a
// snapshot of the latest commit timestamp. It routes through the access
// path the cost-based planner estimates cheapest (see planner.go);
// SetRouting(RouteStatic) restores the fixed pre-planner priority (Hermit,
// then CM, then a complete B+-tree, then the primary index, then a full
// scan). Execution results — hit counts, false-positive ratios, sampled
// latencies — are fed back into the planner's per-path statistics. Queries
// hold only the catalog read latch (shared with all other queries and
// writers) plus the read latch of the index structures they traverse, so
// concurrent queries on different indexes do not contend, and writers
// never block snapshot reads.
func (t *Table) RangeQuery(col int, lo, hi float64) ([]storage.RID, QueryStats, error) {
	snap := t.clock.Snapshot()
	defer snap.Recycle()
	return t.RangeQueryAtInto(snap, col, lo, hi, nil)
}

// RangeQueryInto is RangeQuery with a caller-supplied result buffer: the
// matching RIDs are appended into dst[:0] and the (possibly grown) buffer
// is returned. A caller that carries dst across queries amortises the
// result allocation away entirely; dst may be nil for a fresh buffer.
func (t *Table) RangeQueryInto(col int, lo, hi float64, dst []storage.RID) ([]storage.RID, QueryStats, error) {
	snap := t.clock.Snapshot()
	defer snap.Recycle()
	return t.RangeQueryAtInto(snap, col, lo, hi, dst)
}

// RangeQueryAt is RangeQuery reading at the caller's snapshot: every index
// still returns candidate RIDs, but visibility is resolved per candidate
// against the snapshot's commit timestamp, so the result reflects exactly
// the state at Snapshot time no matter what commits concurrently.
func (t *Table) RangeQueryAt(snap *Snapshot, col int, lo, hi float64) ([]storage.RID, QueryStats, error) {
	return t.RangeQueryAtInto(snap, col, lo, hi, nil)
}

// RangeQueryAtInto is RangeQueryAt with a caller-supplied result buffer
// (see RangeQueryInto for the dst contract). With a reused dst a warm
// query on an exact path allocates nothing.
func (t *Table) RangeQueryAtInto(snap *Snapshot, col int, lo, hi float64, dst []storage.RID) ([]storage.RID, QueryStats, error) {
	if col < 0 || col >= len(t.cols) {
		return nil, QueryStats{}, ErrNoSuchColumn
	}
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	var chosen AccessPath
	var modelCost float64
	if RoutingMode(t.routing.Load()) == RouteCost {
		var ests [numPaths]PathEstimate
		chosen, ests, _, _ = t.planLocked(col, lo, hi)
		modelCost = ests[chosen].Cost
	} else {
		chosen = t.staticPathLocked(col)
	}
	// Latency is sampled (1 in latencySampleMask+1) so the feedback loop
	// does not tax every query with clock reads.
	timed := t.runtime[col].paths[chosen].count.Load()&latencySampleMask == 0
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	rids, st, err := t.execPathLocked(snap, chosen, col, lo, hi, dst)
	if err != nil {
		return nil, st, err
	}
	var elapsed time.Duration
	if timed {
		elapsed = time.Since(t0)
	}
	t.recordQuery(col, chosen, modelCost, elapsed, st)
	st.Path = chosen
	return rids, st, nil
}

// staticPathLocked is the fixed pre-planner routing priority; t.catalog is
// held shared.
func (t *Table) staticPathLocked(col int) AccessPath {
	return pathForKind(t.indexOnLocked(col))
}

// rangeQueryLocked routes a single-column predicate through the static
// priority; t.catalog is held shared. (The composite two-column fallback
// uses it so RangeQuery2's behaviour is independent of the planner.)
func (t *Table) rangeQueryLocked(snap *Snapshot, col int, lo, hi float64) ([]storage.RID, QueryStats, error) {
	return t.execPathLocked(snap, t.staticPathLocked(col), col, lo, hi, nil)
}

// execPathLocked executes the predicate over one access path at the given
// snapshot; t.catalog is held shared. The caller guarantees the path is
// available (planLocked or staticPathLocked). Results are appended into
// dst when non-nil (see RangeQueryInto); with nil dst each path falls back
// to its own allocation.
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

// PointQuery returns the RIDs of rows with col == v at a snapshot of the
// latest commit timestamp.
func (t *Table) PointQuery(col int, v float64) ([]storage.RID, QueryStats, error) {
	return t.RangeQuery(col, v, v)
}

// PointQueryAt is PointQuery reading at the caller's snapshot.
func (t *Table) PointQueryAt(snap *Snapshot, col int, v float64) ([]storage.RID, QueryStats, error) {
	return t.RangeQueryAt(snap, col, v, v)
}

// PointQueryInto is PointQuery with a caller-supplied result buffer (see
// RangeQueryInto for the dst contract).
func (t *Table) PointQueryInto(col int, v float64, dst []storage.RID) ([]storage.RID, QueryStats, error) {
	return t.RangeQueryInto(col, v, v, dst)
}

// PointQueryAtInto is PointQueryAt with a caller-supplied result buffer
// (see RangeQueryInto for the dst contract).
func (t *Table) PointQueryAtInto(snap *Snapshot, col int, v float64, dst []storage.RID) ([]storage.RID, QueryStats, error) {
	return t.RangeQueryAtInto(snap, col, v, v, dst)
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

// FetchRows materialises rows for a RID list (what a real query plan would
// do after index retrieval); the buffer is reused across calls via dst.
// The RIDs must come from a query at a snapshot that is still open, or
// from one that no commit to the table has followed: a RID whose version
// has been reclaimed reads ErrTombstoned until the slot is reused, and the
// slot's new row afterwards.
func (t *Table) FetchRows(rids []storage.RID, dst [][]float64) ([][]float64, error) {
	if cap(dst) < len(rids) {
		dst = make([][]float64, 0, len(rids))
	}
	dst = dst[:0]
	for _, rid := range rids {
		row, err := t.store.Get(rid, nil)
		if err != nil {
			return nil, err
		}
		dst = append(dst, row)
	}
	return dst, nil
}
