package hermit

import (
	"fmt"
	"time"

	"hermit/internal/btree"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// CompositeIndex is Hermit's multi-column form (§3): when queries constrain
// columns (A, M) together and a complete index already exists on (A, N)
// with N correlated to M, Hermit answers (A, M) predicates through the
// (A, N) host index plus a TRS-Tree on M→N. This is exactly the paper's
// running example: host (TIME, DJ), new index (TIME, SP).
//
// The TRS-Tree is the same single-column structure — only the host probe
// changes — so maintenance and reorganization are inherited.
type CompositeIndex struct {
	cfg   CompositeConfig
	table *storage.Table
	tree  *trstree.Tree
	host  *btree.CompositeTree
}

// CompositeConfig describes a composite Hermit index.
type CompositeConfig struct {
	// ACol is the leading column shared with the host index.
	ACol int
	// TargetCol is M, the correlated column the index is requested on.
	TargetCol int
	// HostCol is N, the correlated column of the existing (A, N) index.
	HostCol int
	// Params configures the TRS-Tree.
	Params trstree.Params
}

// NewComposite builds the composite Hermit index from the table and the
// existing (A, N) host index, its TRS-Tree as New builds one. Physical tuple pointers are assumed: the host
// stores RIDs (the composite form with logical pointers only adds the same
// primary hop as the single-column index and is omitted for clarity).
func NewComposite(table *storage.Table, host *btree.CompositeTree, cfg CompositeConfig) (*CompositeIndex, error) {
	if table == nil {
		return nil, ErrNilTable
	}
	if host == nil {
		return nil, ErrNilHostIndex
	}
	w := table.Width()
	if cfg.ACol < 0 || cfg.ACol >= w || cfg.TargetCol < 0 || cfg.TargetCol >= w ||
		cfg.HostCol < 0 || cfg.HostCol >= w {
		return nil, fmt.Errorf("hermit: composite column out of range")
	}
	tree, err := buildTree(table, cfg.TargetCol, cfg.HostCol, cfg.TargetCol, physical, cfg.Params, 1)
	if err != nil {
		return nil, err
	}
	return &CompositeIndex{cfg: cfg, table: table, tree: tree, host: host}, nil
}

// physical is the identifier a composite index stores: the RID itself. A
// scan hands it the row's target value, which it does not read.
func physical(rid storage.RID, _ float64) uint64 { return uint64(rid) }

// Tree exposes the TRS-Tree for statistics and maintenance.
func (x *CompositeIndex) Tree() *trstree.Tree { return x.tree }

// SizeBytes returns the index's own footprint (the TRS-Tree only; the host
// belongs to the (A, N) pair).
func (x *CompositeIndex) SizeBytes() uint64 { return x.tree.SizeBytes() }

// Lookup harvests into sc.IDs the candidates for the conjunctive predicate
//
//	aLo <= A <= aHi AND mLo <= M <= mHi
//
// following §3: the M-range is translated to N-ranges by the TRS-Tree, the
// (A, N) host index is probed with both ranges, and the outlier identifiers
// are unioned in. Candidates are RIDs, a superset of the matching tuples
// (an outlier is not checked against A either); the reader validates both
// predicates. With profile set the returned breakdown times the two phases.
func (x *CompositeIndex) Lookup(aLo, aHi, mLo, mHi float64, sc *Scratch, profile bool) Breakdown {
	var bd Breakdown
	var t0 time.Time
	if profile {
		t0 = time.Now()
	}
	sc.begin(x.tree, mLo, mHi)
	if profile {
		bd[PhaseTRSTree] = time.Since(t0)
		t0 = time.Now()
	}
	for _, r := range sc.tres.Ranges {
		x.host.Scan(aLo, aHi, r.Lo, r.Hi, func(_, _ float64, id uint64) bool {
			sc.IDs = append(sc.IDs, id)
			return true
		})
	}
	if profile {
		bd[PhaseHostIndex] = time.Since(t0)
	}
	return bd
}

// Insert maintains the index for a new tuple; id is its RID.
func (x *CompositeIndex) Insert(id uint64, m, n float64) {
	x.tree.Insert(m, n, id)
}

// Delete maintains the index for a removed tuple; id is its RID.
func (x *CompositeIndex) Delete(id uint64, m, n float64) {
	x.tree.Delete(m, n, id)
}

// Source returns the reorganization data source for the index.
func (x *CompositeIndex) Source() trstree.DataSource {
	return compositeSource{x}
}

type compositeSource struct{ x *CompositeIndex }

func (s compositeSource) ScanMRange(lo, hi float64, fn func(m, n float64, id uint64) bool) error {
	return scanMRange(s.x.table, s.x.cfg.TargetCol, s.x.cfg.HostCol, s.x.cfg.TargetCol, lo, hi, physical, fn)
}
