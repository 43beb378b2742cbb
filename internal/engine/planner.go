package engine

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"hermit/internal/hermit"
	"hermit/internal/stats"
)

// This file is the cost-based access-path planner. Instead of the fixed
// routing priority the engine shipped with (Hermit, then CM, then B+-tree,
// then primary, then scan), every point/range query that does not force a
// path (Query.Path) is planned: the engine
// enumerates the access paths that can serve the predicate, estimates each
// one's cost from table statistics (cached column bounds, row count) and
// per-path runtime feedback (hit counts, false-positive EWMAs, latency
// EWMAs recorded by execution), and runs the cheapest. Table.Explain
// exposes the same computation without executing, which is what the
// advisor's decisions and the planner tests are built on.
//
// The model is a classic abstract-cost optimizer: descents through index
// levels, per-entry harvest costs, per-candidate random fetches, and
// per-row sequential scan costs, expressed in abstract units. Execution
// feeds observed latency back per (column, path); once a path has enough
// timed observations its unit cost is calibrated to observed nanoseconds,
// so persistent mis-estimates correct themselves.

// AccessPath identifies one way the engine can serve a single-column
// predicate.
type AccessPath int

const (
	// PathAuto lets the planner choose (the zero Query.Path); it is never
	// a path a query ran on.
	PathAuto AccessPath = iota
	// PathScan is the unindexed fallback: a sequential column scan.
	PathScan
	// PathPrimary scans the primary index (predicate on the key column).
	PathPrimary
	// PathBTree scans a complete secondary B+-tree index.
	PathBTree
	// PathHermit runs the Hermit mechanism: TRS-Tree, host index,
	// (primary index under logical pointers), base-table validation.
	PathHermit
	// PathCM runs a Correlation Map lookup against its host index.
	PathCM
	// PathTRSDirect resolves the TRS-Tree's predicted host ranges by a
	// sequential scan of the host column instead of the host B+-tree: no
	// host/primary latches and no per-candidate primary probes. In this
	// row-store a plain scan qualifies the target column at the same
	// per-row cost, so the path is cost-dominated by PathScan and mainly
	// serves Explain; it becomes competitive in engines where the host
	// column is clustered or cheaper to stream.
	PathTRSDirect
	// numPaths bounds per-path arrays.
	numPaths
)

// String implements fmt.Stringer.
func (p AccessPath) String() string {
	switch p {
	case PathPrimary:
		return "primary"
	case PathBTree:
		return "btree"
	case PathHermit:
		return "hermit"
	case PathCM:
		return "cm"
	case PathTRSDirect:
		return "trs-direct"
	case PathAuto:
		return "auto"
	default:
		return "scan"
	}
}

// Kind maps an access path to the index mechanism that serves it (the
// QueryStats.Kind vocabulary predating the planner).
func (p AccessPath) Kind() IndexKind {
	switch p {
	case PathPrimary:
		return KindPrimary
	case PathBTree:
		return KindBTree
	case PathHermit, PathTRSDirect:
		return KindHermit
	case PathCM:
		return KindCM
	default:
		return KindNone
	}
}

// Abstract cost units. One unit is roughly one B+-tree level descent; the
// other constants are multiples of that calibrated to the in-memory
// substrates (random row fetches dominate, sequential column visits are
// cheap, entry harvesting within a leaf is cheaper still).
const (
	costLevel   = 1.0  // descending one index level
	costEntry   = 0.25 // harvesting one entry from an index range scan
	costFetch   = 4.0  // one random base-table access (resolve + validate)
	costScanRow = 0.75 // one sequential row visit in a column scan

	// defaultNSPerUnit converts model units to nanoseconds until the table
	// has latencyCalibrationObs timed observations to calibrate with.
	defaultNSPerUnit      = 100.0
	latencyCalibrationObs = 8
	minCalibrationNSPerU  = 5.0
	maxCalibrationNSPerU  = 2000.0
	// pathCalibrationBand bounds how far a single path's calibrated
	// nanoseconds-per-unit may drift from the table-wide ratio. Paths that
	// never execute (a scan on a well-indexed column) carry no latency
	// observations, so without the band a jittery sample on a running path
	// could make it look arbitrarily worse than a path costed at the
	// table-wide ratio — flipping plans on noise rather than signal.
	pathCalibrationBand = 4.0
	latencySampleMask   = 7 // time 1 query in 8
)

// pathRuntime is the execution feedback for one (column, path) pair. All
// fields are atomics: queries on different columns never contend, and
// queries on the same column only CAS.
type pathRuntime struct {
	count  atomic.Uint64 // queries served by this path
	latNS  atomic.Uint64 // float64 bits: EWMA of observed latency (sampled)
	latObs atomic.Uint64 // timed observations folded into latNS
	fp     atomic.Uint64 // float64 bits: EWMA of observed false-positive ratio
	fpObs  atomic.Uint64 // observations folded into fp
	cost   atomic.Uint64 // float64 bits: EWMA of the model cost at execution
}

// colRuntime is the per-column statistics block backing the planner and the
// advisor: query/update counters, cached value bounds (maintained by writes,
// bootstrapped by one lazy scan for stores loaded out-of-band) and per-path
// feedback.
type colRuntime struct {
	queries atomic.Uint64 // queries whose predicate targets this column
	updates atomic.Uint64 // UpdateColumn calls on this column

	boundsLo atomic.Uint64 // float64 bits; +Inf until a value is observed
	boundsHi atomic.Uint64 // float64 bits; -Inf until a value is observed

	paths [numPaths]pathRuntime
}

// newColRuntime initialises the bounds sentinels.
func newColRuntime(n int) []colRuntime {
	rt := make([]colRuntime, n)
	for i := range rt {
		rt[i].boundsLo.Store(math.Float64bits(math.Inf(1)))
		rt[i].boundsHi.Store(math.Float64bits(math.Inf(-1)))
	}
	return rt
}

// widen folds an observed value into the column's cached bounds. Bounds
// only widen — deletes never shrink them — which can only overestimate
// scan selectivity, a conservative error.
func (c *colRuntime) widen(v float64) {
	casMin(&c.boundsLo, v)
	casMax(&c.boundsHi, v)
}

func casMin(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func casMax(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// ewmaObserve folds v into the float64-bits EWMA at a with stats.EWMAStep,
// returning the new observation count. obs is the matching counter.
func ewmaObserve(a *atomic.Uint64, obs *atomic.Uint64, v float64) uint64 {
	n := obs.Add(1)
	for {
		old := a.Load()
		cur := math.Float64frombits(old)
		nw := stats.EWMAStep(cur, v, stats.DefaultEWMAAlpha, int(n-1))
		if a.CompareAndSwap(old, math.Float64bits(nw)) {
			return n
		}
	}
}

func ewmaValue(a *atomic.Uint64) float64 { return math.Float64frombits(a.Load()) }

// bounds returns the column's cached value bounds, falling back to one
// column scan when the cache is cold (rows loaded directly into the store
// rather than through Table.Insert). A racing scan is harmless: both
// writers widen toward the same result.
func (t *Table) bounds(col int) (lo, hi float64, ok bool) {
	rt := &t.runtime[col]
	lo = math.Float64frombits(rt.boundsLo.Load())
	hi = math.Float64frombits(rt.boundsHi.Load())
	if lo <= hi {
		return lo, hi, true
	}
	if t.store.Len() == 0 {
		return 0, 0, false
	}
	if slo, shi, sok := t.store.ColumnBounds(col); sok {
		rt.widen(slo)
		rt.widen(shi)
		return slo, shi, true
	}
	return 0, 0, false
}

// hermitAux returns the outlier fraction and the height of the TRS-Tree of
// the Hermit index hx over rows live rows, read from the self-latching
// tree, which keeps both as counts.
func hermitAux(hx *hermit.Index, rows int) (outFrac float64, treeH float64) {
	outliers, height := hx.Tree().OutliersAndHeight()
	if rows > 0 {
		outFrac = float64(outliers) / float64(rows)
	}
	return outFrac, float64(height)
}

// resetPathStats clears the runtime feedback of the paths that run kind's
// index on col — called by DropIndex (under the exclusive catalog latch) so
// an index recreated later starts with fresh statistics instead of
// inheriting the dropped index's false-positive and latency history.
func (t *Table) resetPathStats(col int, kind IndexKind) {
	rt := &t.runtime[col]
	for p := PathScan; p < numPaths; p++ {
		if p.Kind() != kind {
			continue
		}
		pr := &rt.paths[p]
		pr.count.Store(0)
		pr.latNS.Store(0)
		pr.latObs.Store(0)
		pr.fp.Store(0)
		pr.fpObs.Store(0)
		pr.cost.Store(0)
	}
}

// pathForKind maps an index kind to the access path that mechanism
// executes — the vocabulary QueryStatsFor and the advisor snapshot report
// a column's serving index in.
func pathForKind(k IndexKind) AccessPath {
	switch k {
	case KindHermit:
		return PathHermit
	case KindCM:
		return PathCM
	case KindBTree:
		return PathBTree
	case KindPrimary:
		return PathPrimary
	default:
		return PathScan
	}
}

// PathEstimate is one access path's entry in a query plan.
type PathEstimate struct {
	// Path names the access path.
	Path AccessPath
	// Available reports whether the path can serve this predicate.
	Available bool
	// Cost is the model cost in abstract units (lower is better).
	Cost float64
	// CostNS is the calibrated latency prediction in nanoseconds — the
	// quantity the planner minimises.
	CostNS float64
	// EstRows is the estimated number of qualifying rows.
	EstRows int
	// EstCandidates is the estimated number of tuples the path must fetch
	// and validate (≥ EstRows for inexact mechanisms).
	EstCandidates int
	// FPEstimate is the false-positive ratio the candidate estimate used:
	// the observed EWMA when available, else a structural default.
	FPEstimate float64
	// Observed execution feedback for this (column, path) pair.
	ObservedQueries uint64
	ObservedLatency time.Duration // EWMA of sampled latencies; 0 if unobserved
	ObservedFP      float64       // EWMA of observed false-positive ratios
	// Reason is a one-line account of the estimate (or of unavailability).
	Reason string
}

// Plan is the planner's costed decision for one predicate, as returned by
// Table.Explain.
type Plan struct {
	// Table and Column identify the predicate target; Lo/Hi its range.
	Table  string
	Column string
	Col    int
	Lo, Hi float64
	// Rows is the table's live row count at planning time.
	Rows int
	// Selectivity is the estimated fraction of rows qualifying.
	Selectivity float64
	// Chosen is the path Exec would run under PathAuto.
	Chosen AccessPath
	// Candidates holds every path's estimate, cheapest available first
	// (unavailable paths trail, in path order).
	Candidates []PathEstimate
}

// Explain plans the range predicate lo <= col <= hi without executing it:
// it reports the access path Exec would choose under PathAuto and the
// per-path cost estimates behind the choice; the paths it lists as
// available are the ones a Query.Path may force. A point query is
// Explain(col, v, v).
func (t *Table) Explain(col int, lo, hi float64) (Plan, error) {
	if col < 0 || col >= len(t.cols) {
		return Plan{}, ErrNoSuchColumn
	}
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	chosen, ests, sel, n := t.planLocked(col, lo, hi, true)
	plan := Plan{
		Table:       t.name,
		Column:      t.cols[col],
		Col:         col,
		Lo:          lo,
		Hi:          hi,
		Rows:        n,
		Selectivity: sel,
		Chosen:      chosen,
	}
	// Available paths sorted by predicted latency, then unavailable ones.
	for phase := 0; phase < 2; phase++ {
		avail := phase == 0
		var idxs []int
		for i := int(PathScan); i < len(ests); i++ {
			if ests[i].Available == avail {
				idxs = append(idxs, i)
			}
		}
		if avail {
			for a := 1; a < len(idxs); a++ {
				for b := a; b > 0 && ests[idxs[b]].CostNS < ests[idxs[b-1]].CostNS; b-- {
					idxs[b], idxs[b-1] = idxs[b-1], idxs[b]
				}
			}
		}
		for _, i := range idxs {
			plan.Candidates = append(plan.Candidates, ests[i])
		}
	}
	return plan, nil
}

// availableLocked reports whether path can serve a predicate on col — the
// Available column of Explain, and what a forced Query.Path is checked
// against; t.catalog is held shared.
func (t *Table) availableLocked(col int, path AccessPath) bool {
	switch path {
	case PathScan:
		return true
	case PathPrimary:
		return col == t.pkCol
	}
	return t.find(path.Kind(), col, noCol) != nil
}

// planLocked estimates every path for the predicate and picks the cheapest
// available one, returning it with the estimates, the selectivity and the
// live row count they used; t.catalog is held shared. explain formats the
// Reasons, which only Explain reads.
func (t *Table) planLocked(col int, lo, hi float64, explain bool) (AccessPath, [numPaths]PathEstimate, float64, int) {
	n := t.Len() // live rows: dead versions a snapshot pins are not results
	sel := t.selectivity(col, lo, hi, n)
	estRows := sel * float64(n)
	levels := btreeLevels(n)
	logical := t.scheme == hermit.LogicalPointers
	// Per-candidate resolution cost: random fetch, plus a primary-index
	// point probe under logical pointers.
	resolve := costFetch
	if logical {
		resolve += levels * costLevel
	}

	var ests [numPaths]PathEstimate
	for p := PathScan; p < numPaths; p++ {
		ests[p] = PathEstimate{Path: p, Available: t.availableLocked(col, p), EstRows: int(math.Ceil(estRows))}
	}

	// Scan: always available; qualifies the target column directly, so no
	// fetch phase and no pointer resolution.
	ests[PathScan].Cost = float64(n) * costScanRow
	ests[PathScan].EstCandidates = n
	ests[PathScan].Reason = "sequential column scan; no latches, no fetches"

	if ests[PathPrimary].Available {
		e := &ests[PathPrimary]
		e.Cost = levels*costLevel + estRows*(costEntry+costFetch)
		e.EstCandidates = e.EstRows
		e.Reason = "primary index range scan (exact)"
	} else {
		ests[PathPrimary].Reason = "predicate is not on the primary-key column"
	}

	if ests[PathBTree].Available {
		e := &ests[PathBTree]
		e.Cost = levels*costLevel + estRows*(costEntry+resolve)
		e.EstCandidates = e.EstRows
		e.Reason = "complete B+-tree (exact)"
		if logical {
			e.Reason = "complete B+-tree (exact); +primary probe per row"
		}
	} else {
		ests[PathBTree].Reason = "no complete B+-tree on this column"
	}

	if ests[PathHermit].Available {
		outFrac, treeH := hermitAux(t.find(KindHermit, col, noCol).hx, n)
		rt := &t.runtime[col].paths[PathHermit]
		fpEst := clamp(0.1+2*outFrac, 0.05, 0.95)
		observed := false
		if rt.fpObs.Load() >= latencyCalibrationObs {
			fpEst = clamp(ewmaValue(&rt.fp), 0, 0.95)
			observed = true
		}
		bloat := 1 / (1 - fpEst)
		estCand := estRows * bloat
		e := &ests[PathHermit]
		e.FPEstimate = fpEst
		e.EstCandidates = int(math.Ceil(estCand))
		e.Cost = treeH*costLevel + estCand*(costEntry+resolve)
		// Formatted Reason strings allocate; only Explain reads
		// them, so the per-query planning pass skips building them.
		if explain {
			if observed {
				e.Reason = fmt.Sprintf("TRS-Tree + host index + validation; observed fp EWMA over %d queries", rt.fpObs.Load())
			} else {
				e.Reason = fmt.Sprintf("TRS-Tree + host index + validation; structural fp default (outlier frac %.2f)", outFrac)
			}
		}

		ed := &ests[PathTRSDirect]
		ed.FPEstimate = fpEst
		ed.EstCandidates = e.EstCandidates
		ed.Cost = treeH*costLevel + float64(n)*costScanRow + estCand*costFetch
		ed.Reason = "TRS-Tree + sequential host-column scan; skips host/primary latches and probes"
	} else {
		ests[PathHermit].Reason = "no Hermit index on this column"
		ests[PathTRSDirect].Reason = "no Hermit index (TRS-Tree) on this column"
	}

	if ests[PathCM].Available {
		rt := &t.runtime[col].paths[PathCM]
		fpEst := 0.3
		observed := false
		if rt.fpObs.Load() >= latencyCalibrationObs {
			fpEst = clamp(ewmaValue(&rt.fp), 0, 0.95)
			observed = true
		}
		estCand := estRows / (1 - fpEst)
		e := &ests[PathCM]
		e.FPEstimate = fpEst
		e.EstCandidates = int(math.Ceil(estCand))
		e.Cost = costLevel + estCand*(costEntry+costFetch)
		e.Reason = "Correlation Map buckets + host index + validation; structural fp default"
		if explain && observed {
			// Formatted Reasons allocate; built for Explain only.
			e.Reason = fmt.Sprintf("Correlation Map buckets + host index + validation; observed fp EWMA over %d queries", rt.fpObs.Load())
		}
	} else {
		ests[PathCM].Reason = "no Correlation Map on this column"
	}

	// Calibrate model units to nanoseconds and choose the smallest
	// predicted latency. The table-wide ratio (all timed queries) anchors
	// the scale; a path with its own observations may pull away from that
	// anchor by at most pathCalibrationBand in either direction.
	globalNS := defaultNSPerUnit
	if t.calObs.Load() >= latencyCalibrationObs {
		if cu := ewmaValue(&t.calCost); cu > 0 {
			globalNS = clamp(ewmaValue(&t.calLat)/cu, minCalibrationNSPerU, maxCalibrationNSPerU)
		}
	}
	chosen := PathScan
	best := math.Inf(1)
	for p := PathScan; p < numPaths; p++ {
		e := &ests[p]
		rt := &t.runtime[col].paths[p]
		e.ObservedQueries = rt.count.Load()
		e.ObservedFP = ewmaValue(&rt.fp)
		e.ObservedLatency = time.Duration(ewmaValue(&rt.latNS))
		if !e.Available {
			continue
		}
		nsPer := globalNS
		if rt.latObs.Load() >= latencyCalibrationObs {
			if cu := ewmaValue(&rt.cost); cu > 0 {
				nsPer = clamp(ewmaValue(&rt.latNS)/cu,
					math.Max(minCalibrationNSPerU, globalNS/pathCalibrationBand),
					math.Min(maxCalibrationNSPerU, globalNS*pathCalibrationBand))
			}
		}
		e.CostNS = e.Cost * nsPer
		if e.CostNS < best {
			best = e.CostNS
			chosen = p
		}
	}
	return chosen, ests, sel, n
}

// selectivity estimates the fraction of rows with col in [lo, hi] from the
// cached column bounds, assuming a uniform marginal (no histogram yet).
// Point predicates and unknown bounds floor at one row's worth.
func (t *Table) selectivity(col int, lo, hi float64, n int) float64 {
	if n == 0 || hi < lo {
		return 0
	}
	floor := 1 / float64(n)
	blo, bhi, ok := t.bounds(col)
	if !ok || bhi <= blo {
		return 1 // degenerate column: every row has the same value
	}
	l, h := math.Max(lo, blo), math.Min(hi, bhi)
	if h < l {
		return floor
	}
	return clamp((h-l)/(bhi-blo), floor, 1)
}

// btreeLevels estimates a B+-tree descent depth for n keys.
func btreeLevels(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Max(1, math.Ceil(math.Log(float64(n))/math.Log(16)))
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// recordQuery feeds execution results back into the planner's runtime
// statistics: hit count, false-positive EWMA, and (sampled) latency plus
// the model cost needed for unit calibration.
func (t *Table) recordQuery(col int, path AccessPath, modelCost float64, elapsed time.Duration, st QueryStats) {
	rt := &t.runtime[col]
	rt.queries.Add(1)
	pr := &rt.paths[path]
	pr.count.Add(1)
	if st.Candidates > 0 {
		ewmaObserve(&pr.fp, &pr.fpObs, st.FalsePositiveRatio())
	}
	if elapsed > 0 && modelCost > 0 {
		ewmaObserve(&pr.latNS, &pr.latObs, float64(elapsed))
		ewmaFold(&pr.cost, modelCost, pr.latObs.Load())
		// Table-wide calibration anchor.
		ewmaObserve(&t.calLat, &t.calObs, float64(elapsed))
		ewmaFold(&t.calCost, modelCost, t.calObs.Load())
	}
}

// ewmaFold is ewmaObserve for a value whose observation count is tracked
// elsewhere (n is the count including this observation).
func ewmaFold(a *atomic.Uint64, v float64, n uint64) {
	for {
		old := a.Load()
		cur := math.Float64frombits(old)
		nw := stats.EWMAStep(cur, v, stats.DefaultEWMAAlpha, int(n-1))
		if a.CompareAndSwap(old, math.Float64bits(nw)) {
			return
		}
	}
}

// ColumnQueryStats is the advisor-facing summary of one column's observed
// workload and serving state.
type ColumnQueryStats struct {
	// Queries counts predicates targeting the column; Updates counts
	// UpdateColumn calls on it.
	Queries uint64
	Updates uint64
	// ServingPath is the access path of the column's serving index
	// mechanism (Hermit, then CM, then a complete B+-tree, then the
	// primary index) — the path whose observed statistics are reported
	// below. The cost planner may still route an
	// individual query elsewhere; use Table.Explain for a costed decision.
	ServingPath AccessPath
	// ObservedFP and FPObservations describe the serving path's
	// false-positive EWMA.
	ObservedFP     float64
	FPObservations uint64
}

// QueryStatsFor returns the column's observed workload counters — the
// query-mix feedback the advisor consumes.
func (t *Table) QueryStatsFor(col int) (ColumnQueryStats, error) {
	if col < 0 || col >= len(t.cols) {
		return ColumnQueryStats{}, ErrNoSuchColumn
	}
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	rt := &t.runtime[col]
	out := ColumnQueryStats{
		Queries: rt.queries.Load(),
		Updates: rt.updates.Load(),
	}
	path := pathForKind(t.indexOnLocked(col))
	out.ServingPath = path
	out.ObservedFP = ewmaValue(&rt.paths[path].fp)
	out.FPObservations = rt.paths[path].fpObs.Load()
	return out, nil
}

// Writes returns the table's lifetime mutation count (inserts + deletes +
// updates), the write side of the advisor's query-mix ratio.
func (t *Table) Writes() uint64 { return t.writes.Load() }
