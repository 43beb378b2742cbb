// Package trstree implements the Tiered Regression Search Tree (TRS-Tree)
// from "Designing Succinct Secondary Indexing Mechanism by Exploiting Column
// Correlations" (SIGMOD 2019), §4.
//
// A TRS-Tree models the correlation between a target column M and a host
// column N. It recursively partitions M's value range into node_fanout equal
// sub-ranges until each leaf's (m, n) pairs are well covered by a simple
// linear regression n = beta*m + alpha ± eps; pairs the model fails to cover
// are kept in per-leaf outlier buffers mapping m to tuple identifiers, each
// outlier a 2 + w byte record: which of 65 535 equal sub-ranges of its leaf
// holds m (in an edge leaf, which slot of a grid that moves over the values
// beyond the tree's range), and the identifier coded in the w bytes the
// tree's largest one needs (internal/forcode, base 0). Lookups on M return
// approximate ranges on N (to be resolved against the host index) plus the
// identifiers of the outliers that may match: a conservative superset,
// since a code stands for every value of its sub-range, which the
// base-table visit that ends a Hermit lookup filters.
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
	"sync"
	"unsafe"

	"hermit/internal/forcode"
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
// outlier buffer of one sub-range, in 32 bytes that hold no pointer. eps is
// the interval the builder classified the leaf's pairs against (epsOf); a
// float32 keeps its sign, so fitted still tells −0 from +0. The buffer is a
// run of the tree's outlier arena (nodes.out): records [off, off+n) are its
// entries, and [off+n, off+cap) room the run owns. A run of no room starts
// at 0. A leaf counts no tuples: the tree counts them per first-level
// subtree (Tree.gauge).
type leaf struct {
	model       stats.LinearModel
	eps         float32
	off, n, cap uint32
}

// An outlier — a pair the linear function fails to cover — is a record of
// the arena, 2 + w bytes: its code, which of codeRanges equal sub-ranges of
// the leaf's span holds its target value m (span.code; in an edge leaf,
// which slot of the leaf's grid, span.gridCode), then its tuple
// identifier in w bytes, w being the arena's id width (3 for a table of a
// few hundred thousand rows under either pointer scheme: row ids and
// logical ids, hermit.LogicalID, are both dense). The buffers dominate the
// index footprint for noisy workloads (§7.2), and a Hermit lookup may
// return false positives but no false negative (§5.2), so a record is a
// conservative filter, not the exact key: m ↦ code(m) is monotone, a
// lookup returns every record whose code lies between those of its
// predicate's bounds (lookupNode), and the base-table pass that ends every
// Hermit lookup drops the few that are not in it. The filter need only
// keep a leaf's sub-ranges apart: the benchmark's deepest leaves span
// 1000/8⁴ ≈ 1.95, and 2¹⁶ sub-ranges of that are already finer than its
// target column's grid. A code's resolution follows its leaf's span, not
// its outliers: a leaf that spans the whole range — a root leaf over a
// clean linear correlation — tells its outliers apart only to 1/65 535 of
// it, and a predicate narrower than that returns the other outliers of
// its bounds' sub-ranges too.

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

// codeRanges is the number of sub-ranges of its leaf's span an outlier's
// code tells apart; the code past them, nanCode, is a NaN's.
const (
	codeRanges = 65535
	nanCode    = codeRanges
)

// edgeRanges is the number of sub-ranges of its span an edge leaf's base
// grid cuts it into (grid). Codes 1 to edgeRanges + 1 are a grid's window;
// 0 and codeRanges − 1 code the values below and above every window.
const edgeRanges = codeRanges - 3

// code is the record field of target value m in a leaf over s: which of
// codeRanges equal sub-ranges of s holds m, by the descent's arithmetic
// (subRange), so −Inf and values below s code to 0 and +Inf and values
// above it to codeRanges − 1; every value of a span of no width, or of no
// finite one, codes to 0. It is monotone in m. A NaN codes to nanCode,
// which the code of no bound of a predicate reaches.
func (s span) code(m float64) uint16 {
	if m != m {
		return nanCode
	}
	return uint16(subRange(m, s.lo, s.width(codeRanges), codeRanges))
}

// A grid is how an edge leaf codes its outliers. Only an edge leaf holds
// values beyond its span — every value beyond the tree's bounds, such as
// the rows of a table loaded after its index was created, or appended past
// its largest value — and one code for all of them would hand each of
// them to every predicate beyond the span. So an edge leaf codes m by its
// slot, ⌊(m − lo) / (w·2^shift)⌋, w being its span's width over
// edgeRanges (baseWidth), plus 1 + under; the window of codes 1 to
// codeRanges − 2 covers slots −under to edgeRanges − under. The zero grid
// cuts the span into edgeRanges slots. An outlier whose slot falls outside
// the window moves the window over it first (fit): the shift grows by the
// fewest steps that bring the old window and the new value within
// edgeRanges slots, which doubles the slots' width a step, and under
// places them. A step maps slot x to x >> 1 exactly — the quotient's
// rounding commutes with a power of two — so the leaf's records are
// recoded from their codes alone (nodes.mark), to the code their value
// gets on the new grid, and a code stays a monotone function of m. Every
// finite m − lo fits some window, so the clamped codes 0 and
// codeRanges − 1 hold only values no window reaches (±Inf, or an m − lo
// that overflows), which no move recodes. The tree keeps one grid for
// each of its two edge leaves (nodes.edge).
type grid struct {
	shift, under uint16
}

// baseWidth is the slot width of the zero grid of an edge leaf over s: its
// width over edgeRanges, or, for a span of no width or none that is
// finite, |lo| + 1 over edgeRanges; 0 when lo is not finite, and then
// every value but a NaN codes to 0.
func (s span) baseWidth() float64 {
	if w := s.width(edgeRanges); w > 0 && w <= math.MaxFloat64 {
		return w
	}
	if math.IsInf(s.lo, 0) || s.lo != s.lo {
		return 0
	}
	return (math.Abs(s.lo) + 1) / edgeRanges
}

// slot returns ⌊d / (w·2^shift)⌋, below 0 for every d < 0 (a quotient
// that underflows to −0 as well).
func (g grid) slot(d, w float64) float64 {
	x := math.Floor(d / math.Ldexp(w, int(g.shift)))
	if x == 0 && d < 0 {
		return -1
	}
	return x
}

// gridCode is the record field of target value m in an edge leaf over s
// coding on g. It is monotone in m, and a NaN codes to nanCode.
func (s span) gridCode(g grid, m float64) uint16 {
	if m != m {
		return nanCode
	}
	w := s.baseWidth()
	if w == 0 {
		return 0
	}
	switch c := g.slot(m-s.lo, w) + 1 + float64(g.under); {
	case !(c >= 1):
		return 0
	case c > codeRanges-2:
		return codeRanges - 1
	default:
		return uint16(c)
	}
}

// fit returns the grid an edge leaf over s coding on g moves to so that
// its window holds m: g when it does or when no window does, and else the
// grid of the least shift whose window holds g's and m, its room on m's
// side.
func (s span) fit(g grid, m float64) grid {
	w, d := s.baseWidth(), m-s.lo
	if c := s.gridCode(g, m); w == 0 || math.IsInf(d, 0) || d != d || (c > 0 && c < codeRanges-1) {
		return g
	}
	lo, hi := -int(g.under), edgeRanges-int(g.under) // g's window, in its slots
	for j := 1; ; j++ {
		n := grid{shift: g.shift + uint16(j)}
		x := n.slot(d, w)
		wlo, whi := float64(lo>>j), float64(hi>>j)
		if from, to := math.Min(wlo, x), math.Max(whi, x); to-from <= edgeRanges {
			if x > whi {
				n.under = uint16(-from)
			} else {
				n.under = uint16(edgeRanges - to)
			}
			return n
		}
	}
}

// nodes holds the nodes of a tree, or of a subtree being built.
type nodes struct {
	// fanout and w share a word.
	fanout int32
	// w is the width of the arena's id fields in bytes: the fewest that
	// hold the largest id written to it. A wider id re-encodes the arena
	// (widen), at most 8 times in its life.
	w uint8
	// edge holds the grids of the left and the right edge leaf (gridOf).
	edge   [2]grid
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

// gridOf returns the grid of the leaf over s, an edge leaf's — the
// left one's while the root is a leaf — and nil for any other leaf.
func (n *nodes) gridOf(s span) *grid {
	switch {
	case s.left:
		return &n.edge[0]
	case s.right:
		return &n.edge[1]
	}
	return nil
}

// codeAt is the code of target value m in the leaf over s: its grid's code
// in an edge leaf (gridCode), its span's in any other (code).
func (n *nodes) codeAt(s span, m float64) uint16 {
	if g := n.gridOf(s); g != nil {
		return s.gridCode(*g, m)
	}
	return s.code(m)
}

// mark is codeAt for a record of m about to join leaf l over s: an edge
// leaf first moves its grid over m (fit), and recodes its records to the
// new grid.
func (n *nodes) mark(l *leaf, s span, m float64) uint16 {
	g := n.gridOf(s)
	if g == nil {
		return s.code(m)
	}
	if to := s.fit(*g, m); to != *g {
		n.recode(l, *g, to)
		*g = to
	}
	return s.gridCode(*g, m)
}

// recode rewrites the codes of leaf l's records from grid from to grid to,
// whose shift is no less: a code of from's window names slot x, and the
// value's slot on to is x >> (to.shift − from.shift); a code outside the
// window stays.
func (n *nodes) recode(l *leaf, from, to grid) {
	j := to.shift - from.shift
	for i := l.off; i < l.off+l.n; i++ {
		if c := n.code(i); c > 0 && c < codeRanges-1 {
			x := (int(c) - 1 - int(from.under)) >> j
			binary.LittleEndian.PutUint16(n.out[int(i)*n.rec():], uint16(x+1+int(to.under)))
		}
	}
}

// kids returns the child references of inner node r.
func (n *nodes) kids(r ref) []ref {
	k := int(n.fanout)
	return n.inner[int(r)*k:][:k]
}

// rec is the size of an arena record in bytes.
func (n *nodes) rec() int { return 2 + int(n.w) }

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

// code returns the code field of record i.
func (n *nodes) code(i uint32) uint16 {
	return uint16(forcode.Load(n.out, int(i)*n.rec()))
}

// id returns the id field of record i.
func (n *nodes) id(i uint32) uint64 {
	return forcode.Load(n.out, int(i)*n.rec()+2) & forcode.Mask(n.w)
}

// put writes record i, widening the arena first if id needs more bytes.
// The id is written by a read-modify-write of 8 bytes, which leaves the
// bytes past it as they were.
func (n *nodes) put(i uint32, d uint16, id uint64) {
	n.widen(forcode.Width(id))
	o := int(i) * n.rec()
	binary.LittleEndian.PutUint16(n.out[o:], d)
	forcode.Store(n.out, o+2, id, forcode.Mask(n.w))
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

// takeEdges takes the grids of the edge leaves src built under s.
func (n *nodes) takeEdges(src *nodes, s span) {
	if s.left {
		n.edge[0] = src.edge[0]
	}
	if s.right {
		n.edge[1] = src.edge[1]
	}
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
// buffers and the subtree counters, or divert to the reorganization side
// buffer). ReorgSubtree, the only rebuild after construction (the engine
// never calls it), scans and builds off-latch, parking concurrent writers
// in a temporal side buffer, and takes the write latch only for the brief
// install-and-replay phase (Appendix B's coarse-grained protocol).
type Tree struct {
	mu     sync.RWMutex
	params Params
	lo, hi float64 // the build-time range R, the root's span (rootSpan)
	root   ref
	height int32 // the depth of the deepest leaf, the root's being 1
	nodes

	// sideBuf is nil unless a rebuild is parked in its scan, and then
	// holds the writes that arrived since. A pointer, one word, keeps a
	// Tree in its 288-byte size class.
	sideBuf *[]bufferedOp

	// gauge counts the live tuples of each first-level subtree — the
	// root's, while it is a leaf — as the build or the last rebuild of the
	// subtree counted them, then one up for an insert and one down for a
	// delete; each saturates at both ends. It is a statistic, which no
	// lookup reads: a replayed parked delete can lower it below the
	// subtree's live tuples (ReorgSubtree).
	gauge []uint32
}

type bufferedOp struct {
	del bool
	p   Pair
}

// newTree wraps the nodes under root, a tree over [lo, hi] whose
// first-level subtrees hold the tuples gauge counts.
func newTree(params Params, lo, hi float64, root ref, n nodes, gauge []uint32) *Tree {
	n.clip()
	return &Tree{params: params, lo: lo, hi: hi, root: root, height: n.depth(root), nodes: n, gauge: gauge}
}

// rootSpan is the root's span: the build-time range R, edge-extended both
// ways.
func (t *Tree) rootSpan() span { return span{lo: t.lo, hi: t.hi, left: true, right: true} }

// Params returns the parameters the tree was built with.
func (t *Tree) Params() Params { return t.params }

// Bounds returns the target-column range the tree was built over.
func (t *Tree) Bounds() (lo, hi float64) { return t.lo, t.hi }

// Height returns the depth of the deepest leaf (root = 1).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.height)
}

// Stats summarises the tree's structure; used by the memory and breakdown
// experiments and by the planner, on every plan.
type Stats struct {
	Nodes        int
	Leaves       int
	Outliers     int
	TuplesGauged int // sum of the per-subtree live counts (Tree.gauge)
	Height       int
	SizeBytes    uint64
}

// Stats returns structural statistics from the counts the tree keeps, in
// time independent of its size: the node arrays less their free lists,
// the entries the arena holds, the subtree counters and the height.
func (t *Tree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaves := len(t.leaves) - len(t.freeLeaves)
	s := Stats{
		Nodes:    leaves + len(t.inner)/int(t.fanout) - len(t.freeInner),
		Leaves:   leaves,
		Outliers: t.held,
		Height:   int(t.height),
		SizeBytes: heapsize.Of(int(unsafe.Sizeof(Tree{})), true) + t.nodes.sizeBytes() +
			heapsize.Of(cap(t.gauge)*4, false),
	}
	for _, c := range t.gauge {
		s.TuplesGauged += int(c)
	}
	return s
}

// depth returns the depth of the deepest leaf under r, r's being 1.
func (n *nodes) depth(r ref) int32 {
	if r.isLeaf() {
		return 1
	}
	var d int32
	for _, c := range n.kids(r) {
		d = max(d, n.depth(c))
	}
	return d + 1
}

// SizeBytes is the heap footprint of the tree, the quantity the paper's
// memory figures (Figs. 5, 7, 18–20) report for Hermit's new indexes: its
// node arrays, outlier arena and subtree counters as the allocator holds
// them.
func (t *Tree) SizeBytes() uint64 { return t.Stats().SizeBytes }

// OutlierCount returns the total number of buffered outlier identifiers.
func (t *Tree) OutlierCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.held
}

// OutliersAndHeight returns OutlierCount and Height under one read latch:
// the planner reads both on every plan.
func (t *Tree) OutliersAndHeight() (outliers, height int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.held, int(t.height)
}

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int { return t.Stats().Leaves }

// traverse descends to the leaf whose range covers m (Algorithm 3's
// Traverse) and returns its slot and span, and the first-level subtree it
// lies in (0 while the root is a leaf), which gauge counts it under.
// Values outside the root range land in the edge leaves.
func (t *Tree) traverse(m float64) (slot int32, s span, top int) {
	r, k := t.root, t.params.NodeFanout
	s, top = t.rootSpan(), -1
	for !r.isLeaf() {
		w := s.width(k)
		i := subRange(m, s.lo, w, k)
		if top < 0 {
			top = i
		}
		r, s = t.kids(r)[i], s.child(w, i, k)
	}
	return r.slot(), s, max(top, 0)
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
