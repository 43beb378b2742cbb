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
// The structure supports inserts and deletes at runtime, and one way to
// reorganize (paper §4.4 and Appendix B): ReorgSubtree rebuilds a
// first-level subtree from a rescan of the base table off-latch, with
// concurrent writes parked in a temporal side buffer and replayed when the
// new subtree is installed. Nothing calls it on its own: the engine does
// not reorganize its trees.
package trstree

import (
	"math"
	"slices"
	"sync"
	"unsafe"

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
	// outlier buffer before the leaf must split.
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

// DataSource supplies (m, n, id) triples for a target-column range;
// ReorgSubtree rescans the base table through this interface.
// Implementations must return the current committed contents of the table.
type DataSource interface {
	// ScanMRange calls fn for every live tuple whose target value m lies in
	// [lo, hi]. Iteration stops early if fn returns false.
	ScanMRange(lo, hi float64, fn func(m, n float64, id uint64) bool) error
}

// The tree has no node objects. Its nodes live in two arrays (nodes): the
// leaves in one []leaf, and the inner nodes in one []ref, NodeFanout child
// references to a node. A descent walks contiguous memory, and the heap
// holds a few arrays instead of an allocation per node. No node stores its
// range either: Algorithm 1 splits a node into NodeFanout equal sub-ranges,
// so a child's range follows from its parent's and its index (span.child).
// Every descent derives it from the tree's bounds with the builder's own
// arithmetic, so it sees the bits the builder fitted the child over.

// ref names a node: an inner node by its index i >= 0, whose children are
// inner[i*NodeFanout:][:NodeFanout], and a leaf by ^slot, which is negative.
type ref int32

func leafRef(slot int32) ref { return ref(^slot) }

func (r ref) isLeaf() bool { return r < 0 }

// slot is a leaf reference's index into the leaves array.
func (r ref) slot() int32 { return ^int32(r) }

// leaf is a TRS-Tree leaf: the fitted model, confidence interval and
// outlier buffer of one sub-range.
type leaf struct {
	model stats.LinearModel
	eps   float64
	// count is the live tuples covered by this leaf's range; it saturates.
	count uint32
	// outliers is the leaf's outlier buffer: pairs the linear function
	// fails to cover, stored compactly (16 bytes each) because for noisy
	// workloads the buffers dominate the index footprint (§7.2).
	outliers []outlierEntry
}

// outlierEntry is one buffered outlier: the target value and the tuple
// identifier it maps to.
type outlierEntry struct {
	m  float64
	id uint64
}

// span is a node's sub-range [lo, hi] of the target column and its edge
// flags. The root's span is the tree's bounds; every other span is derived
// from its parent's (child).
type span struct {
	lo, hi float64
	// left/right mark the outermost nodes of every level — leaves and the
	// inner nodes above them, or a lookup beyond the build-time range R
	// would stop descending at the first inner edge child. Their effective
	// range is extended to ±inf so values outside R still have a home (they
	// are always treated as outliers).
	left, right bool
}

// width is the extent of each of the span's k equal sub-ranges.
func (s span) width(k int) float64 { return (s.hi - s.lo) / float64(k) }

// child is the span of sub-range i of k, each w = s.width(k) wide: it
// starts at lo + i·w and ends w later, but the last one ends at hi.
func (s span) child(w float64, i, k int) span {
	lo := s.lo + float64(i)*w
	hi := lo + w
	if i == k-1 {
		hi = s.hi
	}
	return span{lo: lo, hi: hi, left: s.left && i == 0, right: s.right && i == k-1}
}

// effectiveLo/effectiveHi give a span extended to infinity at the tree
// edges, so out-of-range query predicates and inserts are handled.
func (s span) effectiveLo() float64 {
	if s.left {
		return math.Inf(-1)
	}
	return s.lo
}

func (s span) effectiveHi() float64 {
	if s.right {
		return math.Inf(1)
	}
	return s.hi
}

// nodes holds the nodes of a tree, or of a subtree being built.
type nodes struct {
	fanout int
	leaves []leaf
	inner  []ref
	// The slots reorganizations freed, which grafts fill first.
	freeLeaves, freeInner []int32
}

// kids returns the child references of inner node r.
func (n *nodes) kids(r ref) []ref {
	return n.inner[int(r)*n.fanout:][:n.fanout]
}

// addLeaf stores l in a free slot, or a new one, and returns its reference.
func (n *nodes) addLeaf(l leaf) ref {
	if k := len(n.freeLeaves); k > 0 {
		s := n.freeLeaves[k-1]
		n.freeLeaves = n.freeLeaves[:k-1]
		n.leaves[s] = l
		return leafRef(s)
	}
	n.leaves = append(n.leaves, l)
	return leafRef(int32(len(n.leaves) - 1))
}

// addInner takes a free inner node, or a new one, and returns its
// reference; its children are for the caller to fill.
func (n *nodes) addInner() ref {
	if k := len(n.freeInner); k > 0 {
		i := n.freeInner[k-1]
		n.freeInner = n.freeInner[:k-1]
		return ref(i)
	}
	n.inner = append(n.inner, make([]ref, n.fanout)...)
	return ref(len(n.inner)/n.fanout - 1)
}

// graft copies the subtree src holds under r into n, depth first, and
// returns its reference in n.
func (n *nodes) graft(src *nodes, r ref) ref {
	if r.isLeaf() {
		return n.addLeaf(src.leaves[r.slot()])
	}
	in := n.addInner()
	for i, c := range src.kids(r) {
		g := n.graft(src, c) // before indexing: the graft may move n.inner
		n.kids(in)[i] = g
	}
	return in
}

// free gives back the slots of the subtree under r.
func (n *nodes) free(r ref) {
	if r.isLeaf() {
		s := r.slot()
		n.leaves[s] = leaf{} // drop the outlier buffer
		n.freeLeaves = append(n.freeLeaves, s)
		return
	}
	for _, c := range n.kids(r) {
		n.free(c)
	}
	n.freeInner = append(n.freeInner, int32(r))
}

// clip moves the node arrays into arrays of their exact length: a finished
// build holds no append headroom.
func (n *nodes) clip() {
	n.leaves = append(make([]leaf, 0, len(n.leaves)), n.leaves...)
	n.inner = append(make([]ref, 0, len(n.inner)), n.inner...)
}

// sizeBytes is what the heap holds for the node arrays and the outlier
// buffers: each array's capacity in bytes, rounded up as the allocator
// rounds it (heapBytes).
func (n *nodes) sizeBytes() uint64 {
	s := heapBytes(cap(n.leaves)*int(unsafe.Sizeof(leaf{})), true) +
		heapBytes(cap(n.inner)*4, false) +
		heapBytes(cap(n.freeLeaves)*4, false) + heapBytes(cap(n.freeInner)*4, false)
	for i := range n.leaves {
		s += heapBytes(cap(n.leaves[i].outliers)*int(unsafe.Sizeof(outlierEntry{})), false)
	}
	return s
}

// maxSmall is the largest allocation the allocator serves from a size
// class; a larger one takes whole pages.
const (
	maxSmall = 32 << 10
	pageSize = 8 << 10
)

// sizeClasses are the allocator's size classes in bytes, probed from the
// runtime: append rounds a fresh array of bytes up to its class.
var sizeClasses = func() []int {
	var cs []int
	for n := 1; n <= maxSmall; n = cs[len(cs)-1] + 1 {
		cs = append(cs, cap(append([]byte(nil), make([]byte, n)...)))
	}
	return cs
}()

// heapBytes is what the heap holds for an array of size bytes: the size
// class it rounds up to — after an 8-byte header for an array of more than
// 512 bytes that holds pointers — or whole pages past maxSmall.
func heapBytes(size int, pointers bool) uint64 {
	switch {
	case size == 0:
		return 0
	case size > maxSmall-8:
		return uint64((size + pageSize - 1) &^ (pageSize - 1))
	case pointers && size > 512:
		size += 8
	}
	i, _ := slices.BinarySearch(sizeClasses, size)
	return uint64(sizeClasses[i])
}

// Tree is a TRS-Tree. Create one with Build or BuildParallel.
//
// Concurrency: the tree latches itself. Lookup takes the read latch;
// Insert/Delete/Update take the write latch (they mutate leaf outlier
// buffers and counts, or divert to the reorganization side buffer).
// ReorgSubtree, the only rebuild after construction (the engine never calls
// it), scans and builds off-latch, parking concurrent writers in a temporal
// side buffer, and takes the write latch only for the brief
// install-and-replay phase (Appendix B's coarse-grained protocol).
type Tree struct {
	mu     sync.RWMutex
	params Params
	bounds span // the root's: the build-time range R, edge-extended both ways
	root   ref
	nodes

	// Reorganization state: a rebuild is parked in its scan, and the
	// writes that arrived since.
	inReorg bool
	sideBuf []bufferedOp
}

type bufferedOp struct {
	del bool
	p   Pair
}

// newTree wraps the nodes under root, a tree over [lo, hi].
func newTree(params Params, lo, hi float64, root ref, n nodes) *Tree {
	n.clip()
	return &Tree{params: params, bounds: span{lo: lo, hi: hi, left: true, right: true}, root: root, nodes: n}
}

// Params returns the parameters the tree was built with.
func (t *Tree) Params() Params { return t.params }

// Bounds returns the target-column range the tree was built over.
func (t *Tree) Bounds() (lo, hi float64) { return t.bounds.lo, t.bounds.hi }

// Height returns the depth of the deepest leaf (root = 1).
func (t *Tree) Height() int { return t.Stats().Height }

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
	t.walkStats(t.root, 1, &s)
	s.SizeBytes = heapBytes(int(unsafe.Sizeof(Tree{})), true) + t.nodes.sizeBytes()
	return s
}

func (t *Tree) walkStats(r ref, depth int, s *Stats) {
	s.Nodes++
	s.Height = max(s.Height, depth)
	if r.isLeaf() {
		l := &t.leaves[r.slot()]
		s.Leaves++
		s.Outliers += len(l.outliers)
		s.TuplesGauged += int(l.count)
		return
	}
	for _, c := range t.kids(r) {
		t.walkStats(c, depth+1, s)
	}
}

// SizeBytes is the heap footprint of the tree, the quantity the paper's
// memory figures (Figs. 5, 7, 18–20) report for Hermit's new indexes: its
// node arrays and outlier buffers as the allocator holds them.
func (t *Tree) SizeBytes() uint64 { return t.Stats().SizeBytes }

// OutlierCount returns the total number of buffered outlier identifiers.
func (t *Tree) OutlierCount() int { return t.Stats().Outliers }

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int { return t.Stats().Leaves }

// traverse descends to the leaf whose range covers m (Algorithm 3's
// Traverse) and returns its slot and span. Values outside the root range
// land in the edge leaves.
func (t *Tree) traverse(m float64) (int32, span) {
	r, s, k := t.root, t.bounds, t.params.NodeFanout
	for !r.isLeaf() {
		w := s.width(k)
		i := subRange(m, s.lo, w, k)
		r, s = t.kids(r)[i], s.child(w, i, k)
	}
	return r.slot(), s
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
