// Package trstree implements the Tiered Regression Search Tree (TRS-Tree)
// from "Designing Succinct Secondary Indexing Mechanism by Exploiting Column
// Correlations" (SIGMOD 2019), §4.
//
// A TRS-Tree models the correlation between a target column M and a host
// column N. It recursively partitions M's value range into node_fanout equal
// sub-ranges until each leaf's (m, n) pairs are well covered by a simple
// linear regression n = beta*m + alpha ± eps; pairs the model fails to cover
// are kept in per-leaf outlier buffers mapping m to tuple identifiers.
// Lookups on M return approximate ranges on N (to be resolved against the
// host index) plus the exact identifiers of matching outliers.
//
// The structure supports inserts, deletes and on-demand reorganization at
// runtime (paper §4.4 and Appendix B): writers detect overgrown outlier
// buffers or heavily deleted ranges and enqueue candidates; a reorganizer
// (background goroutine or explicit call) rebuilds the affected subtrees
// from a rescan of the base table under a coarse-grained latch, with
// concurrent writes parked in a temporal side buffer.
package trstree

import (
	"math"
	"sync"

	"hermit/internal/stats"
)

// Params are the user-defined TRS-Tree parameters (paper §4.5). The zero
// value is not meaningful; use DefaultParams and override fields.
type Params struct {
	// NodeFanout is the number of equal sub-ranges a node splits into.
	NodeFanout int
	// MaxHeight bounds the depth of the tree; the root is at height 1.
	MaxHeight int
	// OutlierRatio is the maximum fraction of a leaf's tuples allowed in its
	// outlier buffer before the leaf must split (build) or be reorganized
	// (runtime).
	OutlierRatio float64
	// ErrorBound is the expected number of host-column values covered by the
	// range a leaf returns for a point query; it determines each leaf's
	// confidence interval eps (paper §4.5).
	ErrorBound float64
	// SampleRate enables the sampling-based outlier pre-check of Appendix
	// D.2: before fitting a node on all covered pairs, fit on this fraction
	// and split immediately if the sample already exceeds OutlierRatio.
	// Zero disables sampling.
	SampleRate float64
	// UnionRanges controls whether Lookup merges overlapping host ranges
	// returned by different leaves (Algorithm 2, line 15).
	UnionRanges bool
	// MinLeafPairs stops splitting below this many pairs regardless of the
	// outlier ratio, preventing degenerate one-tuple leaves.
	MinLeafPairs int
}

// DefaultParams returns the paper's default configuration (§7.1):
// node_fanout 8, max_height 10, outlier_ratio 0.1, error_bound 2.
func DefaultParams() Params {
	return Params{
		NodeFanout:   8,
		MaxHeight:    10,
		OutlierRatio: 0.1,
		ErrorBound:   2,
		SampleRate:   0.05,
		UnionRanges:  true,
		MinLeafPairs: 64,
	}
}

// sanitize clamps nonsensical parameter values to safe ones.
func (p Params) sanitize() Params {
	if p.NodeFanout < 2 {
		p.NodeFanout = 2
	}
	if p.MaxHeight < 1 {
		p.MaxHeight = 1
	}
	if p.OutlierRatio <= 0 {
		p.OutlierRatio = 1e-9 // "0" means every uncovered pair is an outlier
	}
	if p.ErrorBound < 0 {
		p.ErrorBound = 0
	}
	if p.MinLeafPairs < 1 {
		p.MinLeafPairs = 1
	}
	return p
}

// Pair is one projected (target, host, identifier) triple — a row of
// Algorithm 1's temporary table.
type Pair struct {
	M  float64 // target column value
	N  float64 // host column value
	ID uint64  // tuple identifier (RID or primary key)
}

// Range is a closed interval on the host column.
type Range struct {
	Lo, Hi float64
}

// Contains reports whether v lies in the closed interval.
func (r Range) Contains(v float64) bool { return v >= r.Lo && v <= r.Hi }

// Empty reports whether the interval contains no values.
func (r Range) Empty() bool { return r.Lo > r.Hi }

// DataSource supplies (m, n, id) triples for a target-column range; the
// reorganizer rescans the base table through this interface. Implementations
// must return the current committed contents of the table.
type DataSource interface {
	// ScanMRange calls fn for every live tuple whose target value m lies in
	// [lo, hi]. Iteration stops early if fn returns false.
	ScanMRange(lo, hi float64, fn func(m, n float64, id uint64) bool) error
}

// node is a TRS-Tree node. Internal nodes carry children; leaves carry the
// fitted model, confidence interval and outlier buffer.
type node struct {
	lo, hi float64 // sub-range of the target column (closed)
	// leftEdge/rightEdge mark the outermost nodes of every level — leaves
	// and the internal nodes above them, or a lookup beyond the build-time
	// range R would stop descending at the first internal edge child. Their
	// effective range is extended to ±inf so values outside R still have a
	// home (they are always treated as outliers).
	leftEdge, rightEdge bool

	children []*node // nil for leaves

	model stats.LinearModel
	eps   float64
	// outliers is the leaf's outlier buffer: pairs the linear function
	// fails to cover, stored compactly (16 bytes each) because for noisy
	// workloads the buffers dominate the index footprint (§7.2).
	outliers []outlierEntry
	count    int // live tuples covered by this leaf's range
	deleted  int // deletes observed since the leaf was (re)built
}

// outlierEntry is one buffered outlier: the target value and the tuple
// identifier it maps to.
type outlierEntry struct {
	m  float64
	id uint64
}

func (n *node) isLeaf() bool { return n.children == nil }

// width returns the extent of the node's finite range.
func (n *node) width() float64 { return n.hi - n.lo }

// Tree is a TRS-Tree. Create one with Build or BuildParallel.
//
// Concurrency: the tree latches itself. Lookup takes the read latch;
// Insert/Delete/Update take the write latch (they mutate leaf outlier
// buffers and counters, and may divert to the reorganization side buffer).
// Reorganization scans and rebuilds off-latch, parking concurrent writers
// in a temporal side buffer, and takes the write latch only for the brief
// install-and-replay phase (Appendix B's coarse-grained protocol).
type Tree struct {
	mu     sync.RWMutex
	params Params
	root   *node

	// Reorganization state.
	reorgMu   sync.Mutex
	pending   []reorgCandidate
	pendingIn map[*node]bool
	inReorg   bool
	sideBuf   []bufferedOp

	stopCh chan struct{}
	doneCh chan struct{}
}

type reorgCandidate struct {
	n     *node
	merge bool // true: merge/rebuild parent range; false: split leaf
}

type bufferedOp struct {
	del bool
	p   Pair
}

// Params returns the parameters the tree was built with.
func (t *Tree) Params() Params { return t.params }

// Bounds returns the target-column range the tree was built over.
func (t *Tree) Bounds() (lo, hi float64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root.lo, t.root.hi
}

// Height returns the depth of the deepest leaf (root = 1).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return height(t.root)
}

func height(n *node) int {
	if n.isLeaf() {
		return 1
	}
	max := 0
	for _, c := range n.children {
		if h := height(c); h > max {
			max = h
		}
	}
	return max + 1
}

// Stats summarises the tree's structure; used by the memory and breakdown
// experiments.
type Stats struct {
	Nodes        int
	Leaves       int
	Outliers     int
	TuplesGauged int // sum of per-leaf live counts
	Height       int
	SizeBytes    uint64
}

// Stats walks the tree and returns structural statistics.
func (t *Tree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var s Stats
	walkStats(t.root, &s)
	s.Height = height(t.root)
	return s
}

func walkStats(n *node, s *Stats) {
	s.Nodes++
	// Node fixed cost: bounds + flags + model + eps + slice/map headers.
	s.SizeBytes += 96
	if n.isLeaf() {
		s.Leaves++
		s.Outliers += len(n.outliers)
		s.SizeBytes += uint64(cap(n.outliers)) * 16
		s.TuplesGauged += n.count
		return
	}
	s.SizeBytes += uint64(len(n.children)) * 8
	for _, c := range n.children {
		walkStats(c, s)
	}
}

// SizeBytes estimates the heap footprint of the tree, the quantity the
// paper's memory figures (Figs. 5, 7, 18–20) report for Hermit's new
// indexes.
func (t *Tree) SizeBytes() uint64 { return t.Stats().SizeBytes }

// OutlierCount returns the total number of buffered outlier identifiers.
func (t *Tree) OutlierCount() int { return t.Stats().Outliers }

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int { return t.Stats().Leaves }

// traverse descends to the leaf whose range covers m (Algorithm 3's
// Traverse). Values outside the root range land in the edge leaves.
func (t *Tree) traverse(m float64) *node {
	n := t.root
	for !n.isLeaf() {
		n = n.children[childIndex(n, m)]
	}
	return n
}

// childIndex picks the child sub-range containing m, clamped to the edges.
func childIndex(n *node, m float64) int {
	return subRange(m, n.lo, n.width()/float64(len(n.children)), len(n.children))
}

// subRange returns which of k sub-ranges of width w from lo holds m,
// clamped to the edges: -Inf and NaN to the first, +Inf to the last. It
// clamps before it converts, as a float64 beyond int's range converts to
// no int in particular.
func subRange(m, lo, w float64, k int) int {
	f := (m - lo) / w
	switch {
	case !(w > 0) || !(f >= 0):
		return 0
	case f >= float64(k):
		return k - 1
	}
	return int(f)
}

// effectiveLo/effectiveHi give a node's range extended to infinity at the
// tree edges, so out-of-range query predicates and inserts are handled.
func (n *node) effectiveLo() float64 {
	if n.leftEdge {
		return math.Inf(-1)
	}
	return n.lo
}

func (n *node) effectiveHi() float64 {
	if n.rightEdge {
		return math.Inf(1)
	}
	return n.hi
}
