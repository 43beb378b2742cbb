// Package hermit implements the Hermit secondary indexing mechanism (paper
// §3 and §5): instead of a complete index on a target column M, it keeps a
// succinct TRS-Tree that maps M-ranges to ranges on a correlated host
// column N, resolves those ranges against N's existing host index, and
// validates candidates against the base table to remove false positives.
//
// Both tuple-identifier schemes of §5.1 are supported:
//
//   - Physical pointers: indexes store record IDs ("blockID+offset"); the
//     PostgreSQL-style scheme. Lookups go TRS-Tree → host index → base table.
//   - Logical pointers: indexes store primary keys; the MySQL-style scheme.
//     Lookups add a primary-index hop before the base table.
package hermit

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"hermit/internal/btree"
	"hermit/internal/keyorder"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// PointerScheme selects how indexes identify tuples (§5.1).
type PointerScheme int

const (
	// PhysicalPointers stores record IDs directly in indexes.
	PhysicalPointers PointerScheme = iota
	// LogicalPointers stores primary keys; every secondary lookup resolves
	// them through the primary index.
	LogicalPointers
)

// String implements fmt.Stringer.
func (s PointerScheme) String() string {
	if s == LogicalPointers {
		return "logical"
	}
	return "physical"
}

// Phase identifies one stage of Hermit's lookup workflow (Fig. 3); the
// breakdown experiments (Figs. 10, 14) report time per phase.
type Phase int

const (
	PhaseTRSTree Phase = iota
	PhaseHostIndex
	PhasePrimaryIndex
	PhaseBaseTable
	numPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseTRSTree:
		return "trs-tree"
	case PhaseHostIndex:
		return "host-index"
	case PhasePrimaryIndex:
		return "primary-index"
	default:
		return "base-table"
	}
}

// Breakdown accumulates per-phase wall time across lookups.
type Breakdown [numPhases]time.Duration

// Add merges another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	for i := range b {
		b[i] += o[i]
	}
}

// Total returns the summed duration of all phases.
func (b Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// Fractions returns each phase's share of the total, or zeros for an empty
// breakdown.
func (b Breakdown) Fractions() [numPhases]float64 {
	var out [numPhases]float64
	total := b.Total()
	if total == 0 {
		return out
	}
	for i, d := range b {
		out[i] = float64(d) / float64(total)
	}
	return out
}

// Config describes a Hermit index over one column pair.
type Config struct {
	// TargetCol is the column the index is requested on (M).
	TargetCol int
	// HostCol is the correlated column whose complete index already exists (N).
	HostCol int
	// PKCol is the primary-key column; required for LogicalPointers.
	PKCol int
	// Scheme selects the tuple-identifier format.
	Scheme PointerScheme
	// Params configures the TRS-Tree.
	Params trstree.Params
	// BuildWorkers > 1 enables the parallel construction of Appendix D.2.
	BuildWorkers int
	// Profile enables per-phase timing; leave off in throughput runs to
	// avoid clock overhead.
	Profile bool
}

// Index is a Hermit secondary index. Create one with New.
type Index struct {
	cfg     Config
	table   *storage.Table
	tree    *trstree.Tree
	host    *btree.Tree
	primary *btree.Tree // nil under PhysicalPointers

	// Lifetime counters for the false-positive experiments (Fig. 17);
	// atomic so concurrent readers do not race.
	candidates atomic.Uint64 // tuples fetched for validation
	qualified  atomic.Uint64 // tuples that passed validation
}

// Errors returned by New.
var (
	ErrNilTable     = errors.New("hermit: nil table")
	ErrNilHostIndex = errors.New("hermit: nil host index")
	ErrNeedPrimary  = errors.New("hermit: logical pointers require a primary index")
)

// New builds a Hermit index: it scans the table's (target, host) projection
// and constructs the TRS-Tree. The host index must already map host-column
// values to tuple identifiers in the same scheme.
func New(table *storage.Table, host, primary *btree.Tree, cfg Config) (*Index, error) {
	if table == nil {
		return nil, ErrNilTable
	}
	if host == nil {
		return nil, ErrNilHostIndex
	}
	if cfg.Scheme == LogicalPointers && primary == nil {
		return nil, ErrNeedPrimary
	}
	idx := &Index{cfg: cfg, table: table, host: host, primary: primary}
	// One scan fills the pairs and finds the target column's bounds, by
	// storage.Table.ColumnBounds' comparisons.
	pairs := make([]trstree.Pair, 0, table.Len())
	lo, hi := math.Inf(1), math.Inf(-1)
	err := table.ScanPairs(cfg.TargetCol, cfg.HostCol, func(rid storage.RID, m, n float64) bool {
		pairs = append(pairs, trstree.Pair{M: m, N: n, ID: idx.identify(rid)})
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("hermit: scanning table: %w", err)
	}
	if len(pairs) == 0 {
		lo, hi = 0, 1 // empty table: any range works; inserts extend via edge leaves
	}
	var tree *trstree.Tree
	if cfg.BuildWorkers > 1 {
		tree, err = trstree.BuildParallel(pairs, lo, hi, cfg.Params, cfg.BuildWorkers)
	} else {
		tree, err = trstree.Build(pairs, lo, hi, cfg.Params)
	}
	if err != nil {
		return nil, err
	}
	idx.tree = tree
	return idx, nil
}

// identify converts a physical RID into the identifier stored in indexes
// under the configured scheme.
func (x *Index) identify(rid storage.RID) uint64 {
	if x.cfg.Scheme == PhysicalPointers {
		return uint64(rid)
	}
	pk, err := x.table.Value(rid, x.cfg.PKCol)
	if err != nil {
		return 0
	}
	return LogicalID(pk)
}

// LogicalID is the identifier a secondary index stores for primary key pk
// under LogicalPointers: the key's rank in keyorder's total order. Every
// float64 key round-trips through it — fractions, negatives, ±Inf and each
// NaN payload, which an integer conversion would fold together — and
// identifiers sort in primary-key order, so a harvest of them can be
// probed through the primary index front to back.
func LogicalID(pk float64) uint64 { return keyorder.Rank(pk) }

// LogicalKey returns the primary key a logical identifier stands for.
func LogicalKey(id uint64) float64 { return keyorder.Unrank(id) }

// Tree exposes the underlying TRS-Tree for statistics and maintenance.
func (x *Index) Tree() *trstree.Tree { return x.tree }

// SizeBytes returns the Hermit index's own footprint: just the TRS-Tree
// (the host index is owned by the host column).
func (x *Index) SizeBytes() uint64 { return x.tree.SizeBytes() }

// Result is the outcome of one lookup.
type Result struct {
	// RIDs are the qualifying tuples' physical locations.
	RIDs []storage.RID
	// Candidates counts tuples fetched for validation (including false
	// positives); Qualified counts those that matched.
	Candidates int
	Qualified  int
	// Breakdown has per-phase timings when Profile is enabled.
	Breakdown Breakdown
}

// FalsePositiveRatio returns 1 - qualified/candidates for this result.
func (r Result) FalsePositiveRatio() float64 {
	if r.Candidates == 0 {
		return 0
	}
	return 1 - float64(r.Qualified)/float64(r.Candidates)
}

// Scratch holds the buffers one lookup harvests into — TRS-Tree ranges and
// outlier identifiers, host-index identifiers, candidate RIDs — so a
// caller that keeps one across lookups (the engine pools them) allocates
// nothing in steady state. The zero value is ready to use; a Scratch
// serves one lookup at a time.
type Scratch struct {
	tres trstree.Result
	ids  []uint64
	rids []storage.RID
	// appendID appends a scanned host-index entry to ids; bound once so
	// Scan calls do not mint a closure per lookup.
	appendID func(key float64, id uint64) bool
}

// Trim drops buffers that grew beyond max entries, so one unusually large
// harvest does not stay pinned in a pooled Scratch.
func (sc *Scratch) Trim(max int) {
	if cap(sc.ids) > max {
		sc.ids = nil
	}
	if cap(sc.rids) > max {
		sc.rids = nil
	}
	if cap(sc.tres.IDs) > max {
		sc.tres.IDs = nil
	}
}

// Lookup runs Hermit's multi-phase search (Fig. 3) for the predicate
// lo <= M <= hi and returns the exact matching tuples.
func (x *Index) Lookup(lo, hi float64) Result {
	return x.LookupInto(lo, hi, new(Scratch))
}

// LookupInto is Lookup harvesting into sc. The result's RIDs alias sc's
// memory: they are valid until sc's next lookup.
func (x *Index) LookupInto(lo, hi float64, sc *Scratch) Result {
	var res Result
	var t0 time.Time
	if sc.appendID == nil {
		sc.appendID = func(_ float64, id uint64) bool { sc.ids = append(sc.ids, id); return true }
	}

	// Step 1: TRS-Tree lookup.
	if x.cfg.Profile {
		t0 = time.Now()
	}
	x.tree.LookupInto(lo, hi, &sc.tres)
	if x.cfg.Profile {
		res.Breakdown[PhaseTRSTree] += time.Since(t0)
	}

	// Step 2: host index lookup over the returned ranges; union with the
	// outlier identifiers from step 1.
	if x.cfg.Profile {
		t0 = time.Now()
	}
	sc.ids = append(sc.ids[:0], sc.tres.IDs...)
	for _, r := range sc.tres.Ranges {
		x.host.Scan(r.Lo, r.Hi, sc.appendID)
	}
	if x.cfg.Profile {
		res.Breakdown[PhaseHostIndex] += time.Since(t0)
	}

	// Step 3 (logical pointers only): resolve primary keys to locations.
	rids := sc.rids[:0]
	if x.cfg.Scheme == LogicalPointers {
		if x.cfg.Profile {
			t0 = time.Now()
		}
		for _, id := range sc.ids {
			if v, ok := x.primary.First(LogicalKey(id)); ok {
				rids = append(rids, storage.RID(v))
			}
		}
		if x.cfg.Profile {
			res.Breakdown[PhasePrimaryIndex] += time.Since(t0)
		}
	} else {
		for _, id := range sc.ids {
			rids = append(rids, storage.RID(id))
		}
	}

	// Step 4: base-table validation removes false positives. Candidates are
	// deduplicated by sorting, which beats a hash set on the sizes range
	// queries produce.
	if x.cfg.Profile {
		t0 = time.Now()
	}
	slices.Sort(rids)
	out := rids[:0]
	var prev storage.RID
	for i, rid := range rids {
		if i > 0 && rid == prev {
			continue
		}
		prev = rid
		res.Candidates++
		m, err := x.table.Value(rid, x.cfg.TargetCol)
		if err != nil {
			continue // tuple deleted between index read and fetch
		}
		if m >= lo && m <= hi {
			out = append(out, rid)
			res.Qualified++
		}
	}
	if x.cfg.Profile {
		res.Breakdown[PhaseBaseTable] += time.Since(t0)
	}
	sc.rids = rids
	res.RIDs = out
	x.candidates.Add(uint64(res.Candidates))
	x.qualified.Add(uint64(res.Qualified))
	return res
}

// LookupPoint answers an equality predicate M = v.
func (x *Index) LookupPoint(v float64) Result { return x.Lookup(v, v) }

// LifetimeFalsePositiveRatio aggregates the false-positive ratio over every
// lookup served so far, the quantity Fig. 17 plots.
func (x *Index) LifetimeFalsePositiveRatio() float64 {
	c := x.candidates.Load()
	if c == 0 {
		return 0
	}
	return 1 - float64(x.qualified.Load())/float64(c)
}

// ResetCounters clears the lifetime false-positive counters.
func (x *Index) ResetCounters() {
	x.candidates.Store(0)
	x.qualified.Store(0)
}

// Insert maintains the index for a newly inserted tuple. The caller supplies
// the row's physical location; the identifier scheme is applied internally.
// Only the TRS-Tree is touched — the host index belongs to the host column
// and is maintained by its own code path, which is exactly why Hermit
// inserts are cheap (§7.6).
func (x *Index) Insert(rid storage.RID, m, n float64) {
	x.tree.Insert(m, n, x.identify(rid))
}

// Delete maintains the index for a deleted tuple.
func (x *Index) Delete(rid storage.RID, m, n float64) {
	x.tree.Delete(m, n, x.identify(rid))
}

// Update maintains the index when the host value of a tuple changes.
func (x *Index) Update(rid storage.RID, m, oldN, newN float64) {
	x.tree.Update(m, oldN, newN, x.identify(rid))
}

// Source returns a trstree.DataSource view of the base table for the
// reorganizer: it projects (target, host, identifier) for rows whose target
// value falls in the requested range.
func (x *Index) Source() trstree.DataSource {
	return tableSource{x}
}

type tableSource struct{ x *Index }

func (s tableSource) ScanMRange(lo, hi float64, fn func(m, n float64, id uint64) bool) error {
	return s.x.table.ScanPairs(s.x.cfg.TargetCol, s.x.cfg.HostCol,
		func(rid storage.RID, m, n float64) bool {
			if m < lo || m > hi {
				return true
			}
			return fn(m, n, s.x.identify(rid))
		})
}
