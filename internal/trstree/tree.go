// Package trstree implements the Tiered Regression Search Tree (TRS-Tree)
// from "Designing Succinct Secondary Indexing Mechanism by Exploiting Column
// Correlations" (SIGMOD 2019), §4.
//
// A TRS-Tree models the correlation between a target column M and a host
// column N. It recursively partitions M's value range into node_fanout equal
// sub-ranges until each leaf's (m, n) pairs are well covered by a simple
// linear regression n = beta*m + alpha ± eps; pairs the model fails to cover
// are kept in per-leaf outlier buffers mapping m to tuple identifiers, each
// outlier a 4 + w byte record: m as a float32 offset from its leaf's lower
// bound, rounded down, and the identifier in the w bytes the tree's largest
// one needs. Lookups on M return approximate ranges on N (to be resolved
// against the host index) plus the identifiers of the outliers that may
// match: a conservative superset, since a rounded offset stands for every
// value that rounds to it, which the base-table visit that ends a Hermit
// lookup filters.
//
// The structure supports inserts and deletes at runtime, and one way to
// reorganize (paper §4.4 and Appendix B): ReorgSubtree rebuilds a
// first-level subtree from a rescan of the base table off-latch, with
// concurrent writes parked in a temporal side buffer and replayed when the
// new subtree is installed. Nothing calls it on its own: the engine does
// not reorganize its trees.
package trstree

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"hermit/internal/heapsize"
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
// references to a node; every leaf's outlier buffer is a run of a third,
// the outlier arena. A descent walks contiguous memory, and the heap holds
// a few arrays with no pointer in them instead of an allocation per node
// and per buffer. No node stores its
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
// outlier buffer of one sub-range, in 40 bytes that hold no pointer. The
// buffer is a run of the tree's outlier arena (nodes.out): records
// [off, off+n) are its entries, and [off+n, off+cap) room the run owns. A
// run of no room starts at 0.
type leaf struct {
	model stats.LinearModel
	eps   float64
	// count is the live tuples covered by this leaf's range; it saturates.
	count       uint32
	off, n, cap uint32
}

// An outlier — a pair the linear function fails to cover — is a record of
// the arena, 4 + w bytes: its target value m as a float32 offset from the
// leaf's span (span.code: m − lo rounded down), then its tuple identifier
// in w bytes, w being the arena's id width (3 for a table of a few hundred
// thousand rows under either pointer scheme: row ids and logical ids,
// hermit.LogicalID, are both dense). The buffers dominate the index
// footprint for noisy workloads (§7.2), and a Hermit lookup may return
// false positives but no false negative (§5.2), so a record is a
// conservative filter, not the exact key: m ↦ code(m) is monotone, a
// lookup returns every record whose code could be that of a value in its
// predicate (matcher), and the base-table pass that ends every Hermit
// lookup drops the few that are not.

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

// origin is what an outlier's code is an offset from: the span's lower
// bound, or 0 when that is infinite or NaN (a tree built over infinite
// bounds), where m − lo would be NaN for an m of the same infinity.
func (s span) origin() float64 {
	if math.IsInf(s.lo, 0) || math.IsNaN(s.lo) {
		return 0
	}
	return s.lo
}

// code is the record field of target value m in a leaf over s: m − origin
// rounded down to a float32. It is monotone in m; a NaN m codes to NaN.
func (s span) code(m float64) float32 { return roundDown32(m - s.origin()) }

// matcher is the code range [lo, hi] a leaf over s returns records from
// for the predicate olo ≤ m ≤ ohi (olo ≤ ohi, neither NaN): the codes d
// with d ≤ ohi − origin and olo − origin ≤ nextUp32(d), in float64
// subtractions. Every value of the predicate codes into it: d = code(m) ≤
// m − origin ≤ ohi − origin, and m − origin < nextUp32(d) since d is the
// greatest float32 not above it. A NaN code is in no range.
func (s span) matcher(olo, ohi float64) (lo, hi float32) {
	o := s.origin()
	x := olo - o
	lo = roundDown32(x)
	if float64(lo) == x { // nextUp32(d) ≥ x holds from the float32 below x on
		lo = math.Nextafter32(lo, float32(math.Inf(-1)))
	}
	return lo, roundDown32(ohi - o)
}

// roundDown32 returns the greatest float32 not above x: MaxFloat32 for a
// finite x beyond it and −Inf below −MaxFloat32, where a conversion's
// result would be the implementation's; NaN for NaN.
func roundDown32(x float64) float32 {
	switch {
	case x > math.MaxFloat32 && x <= math.MaxFloat64:
		return math.MaxFloat32
	case x < -math.MaxFloat32:
		return float32(math.Inf(-1))
	}
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// nodes holds the nodes of a tree, or of a subtree being built.
type nodes struct {
	// fanout and w share a word: a Tree stays in its 288-byte size class.
	fanout int32
	// w is the width of the arena's id fields in bytes: the fewest that
	// hold the largest id written to it. A wider id re-encodes the arena
	// (widen), at most 8 times in its life.
	w      uint8
	leaves []leaf
	inner  []ref
	// out is the outlier arena, every leaf's buffer a run of its records,
	// rec() bytes each. It holds slots() records and room() fit in its
	// capacity, which keeps pad bytes beyond them. held counts the entries
	// the runs hold, and dead the slots below slots() that no run owns,
	// which settle keeps under an eighth of held.
	out        []byte
	held, dead int
	// The slots reorganizations freed, which grafts fill first.
	freeLeaves, freeInner []int32
}

// pad is the number of bytes the arena keeps past its last record: an
// 8-byte load at the id field of any record stays inside the array.
const pad = 8

// kids returns the child references of inner node r.
func (n *nodes) kids(r ref) []ref {
	k := int(n.fanout)
	return n.inner[int(r)*k:][:k]
}

// rec is the size of an arena record in bytes.
func (n *nodes) rec() int { return 4 + int(n.w) }

// slots is the number of records the arena holds.
func (n *nodes) slots() int { return len(n.out) / n.rec() }

// room is the number of records the arena's capacity holds.
func (n *nodes) room() int { return max(cap(n.out)-pad, 0) / n.rec() }

// arena returns an arena of k records with room for c ≥ k, nil for none.
func (n *nodes) arena(k, c int) []byte {
	if c == 0 {
		return nil
	}
	return make([]byte, k*n.rec(), c*n.rec()+pad)
}

// load reads the 8 bytes of the arena at o.
func (n *nodes) load(o int) uint64 { return binary.LittleEndian.Uint64(n.out[o : o+8]) }

// mask is the bit mask of an id field w bytes wide (all ones at 8: a
// shift by 64 is 0).
func mask(w uint8) uint64 { return 1<<(8*uint(w)) - 1 }

// idWidth is the number of bytes id needs.
func idWidth(id uint64) uint8 { return uint8((bits.Len64(id) + 7) / 8) }

// code returns the code field of record i.
func (n *nodes) code(i uint32) float32 {
	return math.Float32frombits(uint32(n.load(int(i) * n.rec())))
}

// id returns the id field of record i.
func (n *nodes) id(i uint32) uint64 { return n.load(int(i)*n.rec()+4) & mask(n.w) }

// put writes record i, widening the arena first if id needs more bytes.
// The id is written by a read-modify-write of 8 bytes, which leaves the
// bytes past it as they were.
func (n *nodes) put(i uint32, d float32, id uint64) {
	n.widen(idWidth(id))
	o := int(i) * n.rec()
	binary.LittleEndian.PutUint32(n.out[o:], math.Float32bits(d))
	o += 4
	binary.LittleEndian.PutUint64(n.out[o:o+8], n.load(o)&^mask(n.w)|id)
}

// widen re-encodes the arena with ids w bytes wide, if they are narrower:
// every slot, owned or dead, at its index, in an array of the same room.
func (n *nodes) widen(w uint8) {
	if w <= n.w {
		return
	}
	old := *n
	n.w = w
	n.out = n.arena(old.slots(), old.room())
	for i := range uint32(old.slots()) {
		n.put(i, old.code(i), old.id(i))
	}
}

// runBytes returns the records leaf l holds.
func (n *nodes) runBytes(l *leaf) []byte {
	return n.out[int(l.off)*n.rec():][:int(l.n)*n.rec()]
}

// copyRun writes the records of leaf l of src at slot at of n's arena,
// whose ids are at least as wide: byte for byte when the widths agree.
func (n *nodes) copyRun(at uint32, src *nodes, l *leaf) {
	if src.w == n.w {
		copy(n.out[int(at)*n.rec():], src.runBytes(l))
		return
	}
	for i := range l.n {
		n.put(at+i, src.code(l.off+i), src.id(l.off+i))
	}
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
	return ref(len(n.inner)/int(n.fanout) - 1)
}

// graft copies the subtree src holds under r into n, depth first, and
// returns its reference in n. A leaf's run moves to the end of n's arena,
// with no room beyond its entries; its records keep their codes, since a
// subtree is grafted under the span it was built over.
func (n *nodes) graft(src *nodes, r ref) ref {
	if r.isLeaf() {
		l := src.leaves[r.slot()]
		n.widen(src.w)
		off := n.claim(int(l.n))
		n.copyRun(off, src, &l)
		l.off, l.cap = off, l.n
		n.held += int(l.n)
		return n.addLeaf(l)
	}
	in := n.addInner()
	for i, c := range src.kids(r) {
		g := n.graft(src, c) // before indexing: the graft may move n.inner
		n.kids(in)[i] = g
	}
	return in
}

// free gives back the slots of the subtree under r, and its leaves' runs.
func (n *nodes) free(r ref) {
	if r.isLeaf() {
		s := r.slot()
		l := &n.leaves[s]
		n.release(l.off, l.cap)
		n.held -= int(l.n)
		*l = leaf{}
		n.freeLeaves = append(n.freeLeaves, s)
		return
	}
	for _, c := range n.kids(r) {
		n.free(c)
	}
	n.freeInner = append(n.freeInner, int32(r))
}

// claim lengthens the arena by k slots and returns the first (0 for none).
// An arena too short packs first, when its dead slots are a sixty-fourth
// of what the runs own or more; one still too short moves into an array a
// sixteenth longer than it needs. Its capacity, which SizeBytes counts,
// thus stays within about a twelfth above what the runs own: an arena
// that grew by append's doubling, or by an eighth, held more at the end of
// a write-heavy run than the per-leaf arrays it replaced. Packing keeps
// the runs' order, so a run that ended the arena still ends it.
func (n *nodes) claim(k int) uint32 {
	if k == 0 {
		return 0
	}
	if n.slots()+k > n.room() && n.dead > 0 && n.dead*64 >= n.slots()-n.dead {
		n.pack()
	}
	off := n.slots()
	if need := off + k; need <= n.room() {
		n.out = n.out[:need*n.rec()]
	} else {
		grown := n.arena(need, need+need/16)
		copy(grown, n.out)
		n.out = grown
	}
	return uint32(off)
}

// release gives back arena slots [off, off+k): the arena ends before them
// if they end it, and they are dead otherwise.
func (n *nodes) release(off, k uint32) {
	if int(off+k) == n.slots() {
		n.out = n.out[:int(off)*n.rec()]
		return
	}
	n.dead += int(k)
}

// settle packs the arena once its dead slots exceed an eighth of the
// entries held, or its unused room a quarter of what the runs own, so a
// write costs amortized O(1) and SizeBytes follows the entries held.
// Called with the tree latched.
func (n *nodes) settle() {
	if owned := n.slots() - n.dead; n.dead*8 > n.held || n.room()-owned > owned/4 {
		n.pack()
	}
}

// pack slides the runs to the front of the arena in arena order, so its
// dead slots become free room at its end. When that room would exceed an
// eighth of what the runs own, the runs move into a new array instead,
// a sixteenth longer than they need.
func (n *nodes) pack() {
	owned, rec := n.slots()-n.dead, n.rec()
	out, moved := n.out[:owned*rec], false
	if n.room()-owned > owned/8 {
		out, moved = n.arena(owned, owned+owned/16), true
	}
	at := uint32(0)
	for _, k := range n.runOrder() {
		l := &n.leaves[uint32(k)]
		if moved || l.off != at {
			copy(out[int(at)*rec:], n.runBytes(l))
			l.off = at
		}
		at += l.cap
	}
	n.out, n.dead = out, 0
}

// runOrder returns the leaves whose runs own room, as off<<32 | slot, in
// the order of their runs in the arena. It sorts by radix, a byte of the
// offsets at a time: a comparison sort of a few thousand runs took longer
// than the packing it orders.
func (n *nodes) runOrder() []uint64 {
	keys := make([]uint64, 0, len(n.leaves))
	for s := range n.leaves {
		if l := &n.leaves[s]; l.cap > 0 {
			keys = append(keys, uint64(l.off)<<32|uint64(s))
		}
	}
	tmp := make([]uint64, len(keys))
	for shift := 32; n.slots()>>(shift-32) > 0; shift += 8 {
		var at [256]int
		for _, k := range keys {
			at[byte(k>>shift)]++
		}
		sum := 0
		for d, c := range at {
			at[d] = sum
			sum += c
		}
		for _, k := range keys {
			d := byte(k >> shift)
			tmp[at[d]] = k
			at[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// clip moves the node arrays and the arena into arrays of their exact
// length (the arena's and its pad): a finished build holds no append
// headroom.
func (n *nodes) clip() {
	n.leaves = append(make([]leaf, 0, len(n.leaves)), n.leaves...)
	n.inner = append(make([]ref, 0, len(n.inner)), n.inner...)
	out := n.arena(n.slots(), n.slots())
	copy(out, n.out)
	n.out = out
}

// sizeBytes is what the heap holds for the node arrays and the outlier
// arena: each array's capacity in bytes, rounded up as the allocator
// rounds it (heapsize.Of). None of them holds a pointer.
func (n *nodes) sizeBytes() uint64 {
	return heapsize.Of(cap(n.leaves)*int(unsafe.Sizeof(leaf{})), false) +
		heapsize.Of(cap(n.out), false) +
		heapsize.Of(cap(n.inner)*4, false) +
		heapsize.Of(cap(n.freeLeaves)*4, false) + heapsize.Of(cap(n.freeInner)*4, false)
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
	s.SizeBytes = heapsize.Of(int(unsafe.Sizeof(Tree{})), true) + t.nodes.sizeBytes()
	return s
}

func (t *Tree) walkStats(r ref, depth int, s *Stats) {
	s.Nodes++
	s.Height = max(s.Height, depth)
	if r.isLeaf() {
		l := &t.leaves[r.slot()]
		s.Leaves++
		s.Outliers += int(l.n)
		s.TuplesGauged += int(l.count)
		return
	}
	for _, c := range t.kids(r) {
		t.walkStats(c, depth+1, s)
	}
}

// SizeBytes is the heap footprint of the tree, the quantity the paper's
// memory figures (Figs. 5, 7, 18–20) report for Hermit's new indexes: its
// node arrays and outlier arena as the allocator holds them.
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
