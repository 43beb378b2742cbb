// Package hermit implements the Hermit secondary indexing mechanism (paper
// §3 and §5): instead of a complete index on a target column M, it keeps a
// succinct TRS-Tree that maps M-ranges to ranges on a correlated host
// column N and resolves those ranges against N's existing host index.
//
// A lookup is a harvest — steps 1 and 2 of Fig. 3, TRS-Tree then host
// index — and reads no row: it returns candidate tuple identifiers, false
// positives included, and never misses a tuple whose target value
// satisfies the predicate. Steps 3 and 4, the primary-index hop of logical
// identifiers and the base-table visit that drops the false positives,
// belong to whoever owns the rows: the engine's one base-table pass
// (internal/engine), which every access path ends in.
//
// Both tuple-identifier schemes of §5.1 are supported:
//
//   - Physical pointers: indexes store record IDs ("blockID+offset"); the
//     PostgreSQL-style scheme. Candidates are RIDs.
//   - Logical pointers: indexes store primary keys (LogicalID); the
//     MySQL-style scheme. Candidates are logical identifiers, which the
//     reader resolves through its primary index before the base table.
package hermit

import (
	"errors"
	"fmt"
	"math"
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
// breakdown experiments (Figs. 10, 14) report time per phase. A lookup
// times the first two; the reader that resolves and validates its
// candidates times the other two.
type Phase int

const (
	// PhaseTRSTree is the TRS-Tree lookup: the predicate on the target
	// column mapped to host-column ranges and outlier pointers.
	PhaseTRSTree Phase = iota
	// PhaseHostIndex is the host index scan over those ranges.
	PhaseHostIndex
	// PhasePrimaryIndex resolves logical pointers (primary keys) to rows
	// through the primary index; physical pointers skip it.
	PhasePrimaryIndex
	// PhaseBaseTable fetches the candidate rows and validates them against
	// the original predicate, dropping the false positives.
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
}

// Index is a Hermit secondary index. Create one with New.
type Index struct {
	cfg   Config
	table *storage.Table
	tree  *trstree.Tree
	host  *btree.Tree
}

// Errors returned by New.
var (
	ErrNilTable     = errors.New("hermit: nil table")
	ErrNilHostIndex = errors.New("hermit: nil host index")
)

// New builds a Hermit index: it scans the table's (target, host) projection
// and constructs the TRS-Tree. The host index must already map host-column
// values to tuple identifiers in the same scheme.
func New(table *storage.Table, host *btree.Tree, cfg Config) (*Index, error) {
	if table == nil {
		return nil, ErrNilTable
	}
	if host == nil {
		return nil, ErrNilHostIndex
	}
	idx := &Index{cfg: cfg, table: table, host: host}
	tree, err := buildTree(table, cfg.TargetCol, cfg.HostCol, idx.keyCol(), idx.idOf, cfg.Params, cfg.BuildWorkers)
	if err != nil {
		return nil, err
	}
	idx.tree = tree
	return idx, nil
}

// buildTree scans the table's (target, host) projection, one pair per row
// identified by id from its RID and its value in column key, and builds the
// TRS-Tree over it. The tree's range is the span of the finite target
// values: an infinite or NaN one lies outside every leaf's model, so an
// edge leaf buffers it as an outlier.
func buildTree(table *storage.Table, target, host, key int, id func(storage.RID, float64) uint64, params trstree.Params, workers int) (*trstree.Tree, error) {
	pairs := make([]trstree.Pair, 0, table.Len())
	lo, hi := math.Inf(1), math.Inf(-1)
	err := table.ScanKeyed(target, host, key, func(rid storage.RID, m, n, k float64) bool {
		pairs = append(pairs, trstree.Pair{M: m, N: n, ID: id(rid, k)})
		if m < lo && !math.IsInf(m, 0) {
			lo = m
		}
		if m > hi && !math.IsInf(m, 0) {
			hi = m
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("hermit: scanning table: %w", err)
	}
	if lo > hi {
		lo, hi = 0, 1 // no finite target value: any range works; inserts extend via edge leaves
	}
	if workers > 1 {
		return trstree.BuildParallel(pairs, lo, hi, params, workers)
	}
	return trstree.Build(pairs, lo, hi, params)
}

// keyCol is the column a scan reads beside each row's pair for idOf: the
// primary key under logical pointers, and under physical pointers, which
// need none, the target.
func (x *Index) keyCol() int {
	if x.cfg.Scheme == PhysicalPointers {
		return x.cfg.TargetCol
	}
	return x.cfg.PKCol
}

// idOf is the identifier the index stores for a row a scan read, from its
// RID and its keyCol value.
func (x *Index) idOf(rid storage.RID, pk float64) uint64 {
	if x.cfg.Scheme == PhysicalPointers {
		return uint64(rid)
	}
	return LogicalID(pk)
}

// LogicalID is the identifier a secondary index stores for primary key pk
// under LogicalPointers: the key's rank in keyorder's total order. Every
// float64 key round-trips through it — fractions, negatives, ±Inf and each
// NaN payload, which an integer conversion would fold together — and
// identifiers sort in primary-key order, so a harvest of them can be
// probed through the primary index front to back.
//
// A rank is 8 bytes with its top bit set for every positive key, but the
// indexes do not store it so: the B+-tree's leaves and the TRS-Tree's
// outlier arena keep an id as its offset from a base, shifted right by the
// trailing zero bits all their ids share, in the bytes the largest offset
// needs (a frame of reference). The rank of a whole key below 2^18 has at
// least 35 such zero bits, so the ids of a table of a few hundred thousand
// whole keys from 1 up take 3 bytes each in both, where an integer
// conversion's would take the same 3. Key 0 ranks 2^62 below key 1 — every
// fraction between them has a rank — so a frame that holds both takes 4.
func LogicalID(pk float64) uint64 { return keyorder.Rank(pk) }

// LogicalKey returns the primary key a logical identifier stands for.
func LogicalKey(id uint64) float64 { return keyorder.Unrank(id) }

// Tree exposes the underlying TRS-Tree for statistics and maintenance.
func (x *Index) Tree() *trstree.Tree { return x.tree }

// SizeBytes returns the Hermit index's own footprint: just the TRS-Tree
// (the host index is owned by the host column).
func (x *Index) SizeBytes() uint64 { return x.tree.SizeBytes() }

// Scratch holds the buffers one lookup harvests into — the TRS-Tree's
// ranges and outlier identifiers, and the candidates — so a caller that
// keeps one across lookups (the engine pools them) allocates nothing in
// steady state. The zero value is ready to use; a Scratch serves one lookup
// at a time.
type Scratch struct {
	// IDs is the last lookup's harvest: candidate identifiers in the
	// index's scheme, in no particular order and possibly repeated.
	IDs  []uint64
	tres trstree.Result
	// appendID appends a scanned host-index entry to IDs; bound once so
	// Scan calls do not mint a closure per lookup.
	appendID func(key float64, id uint64) bool
}

// Trim drops buffers that grew beyond max entries, so one unusually large
// harvest does not stay pinned in a pooled Scratch.
func (sc *Scratch) Trim(max int) {
	if cap(sc.IDs) > max {
		sc.IDs = nil
	}
	if cap(sc.tres.IDs) > max {
		sc.tres.IDs = nil
	}
}

// begin starts a harvest: the TRS-Tree lookup for lo <= M <= hi (step 1),
// whose outlier identifiers open sc.IDs.
func (sc *Scratch) begin(tree *trstree.Tree, lo, hi float64) {
	if sc.appendID == nil {
		sc.appendID = func(_ float64, id uint64) bool { sc.IDs = append(sc.IDs, id); return true }
	}
	tree.LookupInto(lo, hi, &sc.tres)
	sc.IDs = append(sc.IDs[:0], sc.tres.IDs...)
}

// Lookup harvests the candidates for lo <= M <= hi into sc.IDs: the
// TRS-Tree's outliers (step 1) and the host-index entries of the host
// ranges it predicts (step 2) — a superset of the matching tuples, read
// from no row. With profile set the returned breakdown times the two
// phases.
func (x *Index) Lookup(lo, hi float64, sc *Scratch, profile bool) Breakdown {
	var bd Breakdown
	var t0 time.Time
	if profile {
		t0 = time.Now()
	}
	sc.begin(x.tree, lo, hi)
	if profile {
		bd[PhaseTRSTree] = time.Since(t0)
		t0 = time.Now()
	}
	for _, r := range sc.tres.Ranges {
		x.host.Scan(r.Lo, r.Hi, sc.appendID)
	}
	if profile {
		bd[PhaseHostIndex] = time.Since(t0)
	}
	return bd
}

// Insert maintains the index for a newly inserted tuple whose identifier
// under the index's scheme is id: its RID under PhysicalPointers, the
// LogicalID of its primary key under LogicalPointers. The caller, which
// holds the row, computes it. Only the TRS-Tree is touched — the host
// index belongs to the host column and is maintained by its own code
// path, which is exactly why Hermit inserts are cheap (§7.6).
func (x *Index) Insert(id uint64, m, n float64) {
	x.tree.Insert(m, n, id)
}

// Delete maintains the index for a deleted tuple, identified as for Insert.
func (x *Index) Delete(id uint64, m, n float64) {
	x.tree.Delete(m, n, id)
}

// Update maintains the index when the host value of a tuple changes; id
// identifies it as for Insert.
func (x *Index) Update(id uint64, m, oldN, newN float64) {
	x.tree.Update(m, oldN, newN, id)
}

// Source returns a trstree.DataSource view of the base table for the
// reorganizer: it projects (target, host, identifier) for rows whose target
// value falls in the requested range.
func (x *Index) Source() trstree.DataSource {
	return tableSource{x}
}

type tableSource struct{ x *Index }

func (s tableSource) ScanMRange(lo, hi float64, fn func(m, n float64, id uint64) bool) error {
	return scanMRange(s.x.table, s.x.cfg.TargetCol, s.x.cfg.HostCol, s.x.keyCol(), lo, hi, s.x.idOf, fn)
}

// scanMRange is a DataSource's scan: the (target, host) pairs of the rows
// with lo <= target <= hi, identified by id from their RID and their value
// in column key. A NaN target is in no range.
func scanMRange(table *storage.Table, target, host, key int, lo, hi float64, id func(storage.RID, float64) uint64, fn func(m, n float64, id uint64) bool) error {
	return table.ScanKeyed(target, host, key, func(rid storage.RID, m, n, k float64) bool {
		if !(m >= lo && m <= hi) {
			return true
		}
		return fn(m, n, id(rid, k))
	})
}
