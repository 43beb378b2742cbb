// Package btree implements the in-memory B+-tree that serves three roles in
// the reproduction: the conventional complete secondary index (the paper's
// Baseline), the host index Hermit piggybacks on, and the primary index used
// by the logical-pointer tuple-identifier scheme (§5.1).
//
// Keys are float64 column values; values are opaque uint64 tuple identifiers
// (either physical RIDs or logical primary keys). Duplicate column values
// are supported by ordering entries on the composite (key, value) pair,
// which makes splits, scans and exact-entry deletes unambiguous even for
// heavily skewed data. The same entry may also be stored twice (see
// Insert); a split can then part the two copies, leaving one left of the
// separator that copies the other, and Delete and Contains look there too.
//
// Keys are ordered by keyorder's total order, which agrees with < on every
// pair of non-NaN keys and places what < cannot: ±0 are one key, every NaN
// payload is a key of its own (negative NaNs below -Inf, positive NaNs above
// +Inf). A Scan with non-NaN bounds therefore never yields a NaN key. A key
// is stored as its keyorder.Rank and read back as keyorder.Unrank of it, so
// every key comes back bit for bit but -0, which comes back as +0: the same
// key.
//
// A tree whose keys are unique — the engine's primary index, which is also
// its MVCC key→chain-head structure — has a second, cheaper access path:
// Get, Swap and GetAscending descend by key alone (see Swap for the one
// rule that keeps the two paths interchangeable).
//
// Such a tree is usually written at its right end: a primary key is most
// often the next of a sequence. The tree therefore keeps a pointer to its
// rightmost leaf, and Get and Swap go straight there for a key strictly
// above that leaf's first key — the leaf every descent by such a key ends
// in, because every separator of the tree is at or below the first key of
// every leaf to its right. For the same reason no separator equals such a
// key, so Swap has no separator tie to rewrite on the way. Swap appends
// there while the leaf has room; a full leaf takes the ordinary descent and
// split, so a tree written this way is the tree the descent would have
// built, node for node. (PostgreSQL's nbtree keeps the same fast path for
// increasing keys.)
//
// A leaf stores its entries frame-of-reference packed (internal/forcode
// describes the frame): entry i is its key's rank coded in the leaf's key
// frame (kbase, shift, kw), then its id in the id frame (vbase, vw), which
// has no grid, in one byte array. fill encodes a leaf in the tightest
// frames that hold its entries. The keys of one leaf are near one another
// and its ids usually too — row ids and logical ids (hermit.LogicalID) are
// both dense: an ascending primary key and its row ids pack into one byte
// each, the host index's keys into 5 or 6 and its ids into 3. A write the
// frames cannot hold re-encodes that one leaf in frames that do (refill);
// a delete never needs to, but one that shrinks the array re-encodes the
// leaf too, so its frames follow what it holds. The array ends in 8 spare
// bytes, for the 8-byte loads. Searches within a leaf compare codes: a
// probe is mapped into the leaf's frames once (search). Internal nodes,
// about one node in a hundred, keep their separators as float64 keys and
// uint64 ties beside the child pointers.
//
// A two-key tree (NewComposite) — every composite index, such as the
// paper's (TIME, DJ) host of §3 — orders its entries by (a, b, id). A leaf
// adds b's rank to each entry, after the id, coded in its b frame (bbase,
// bshift, bw). bw takes the header's last spare byte; bbase and bshift take
// the last 9 bytes of the array (bframe), which also serve as its spare
// bytes. A separator carries b's rank as a second tie word. One search,
// re-encode, split, merge and scan serve both arities, and a one-key leaf's
// bytes are what they were. A scan maps the b bounds into each leaf's b
// frame and compares codes.
//
// Measured on 1M entries at DefaultOrder (TestHeapMatchesSizeBytes, what
// SizeBytes and the heap agree on): ascending inserts hold 2.93 B/entry,
// random inserts 10.18 and a random churn 10.78, against 16.80, 18.10 and
// 19.24 while every entry took 16 bytes; the benchmark's bulk-loaded 1M-row
// column, 6.24 against 17.59; a two-key tree of random (a, b) pairs 17.74
// and 18.76 after a churn (7 bytes of b code: b spans [0, 1) in every
// leaf), against 27.0 and 28.9 while composite indexes were a tree of
// their own with three 8-byte arrays per entry. The packed leaf is also
// the faster one to search (medians of five or six alternated runs, one
// CPU): a random Get on 1M ascending keys 178 against 227 ns, 253 against
// 315 at order 16. A 1000-entry Scan is no faster: it decodes every key (a
// mask, a shift and keyorder.Unrank), and when the machine is quiet the
// 16-byte entries scan in 1.9 µs where packed ones take 2.3. A two-key
// scan that keeps a tenth of 1000 entries takes 4.1 µs, against 11.0 when
// composite leaves kept their keys as float64s (BenchmarkCompositeScan).
//
// Every tree the engine builds — primary, host, baseline and composite — runs
// at DefaultOrder, 128 entries per node. The paper's DBMS-X B+-tree has
// 256-byte nodes (§7.1), 16 entries of 16 bytes, and the secondary indexes
// here once ran at 16 to match. A leaf of this package is not that node: it
// is a 64-byte header in front of its array, so at 16 entries a bulk-loaded
// leaf (13 entries) spends more on the header and allocator rounding than
// on entries, and a descent is bound by the cache misses of its levels, not
// by the search inside a node. Measured when entries were 16 bytes apiece,
// on 1M entries (BenchmarkGetRandom1M and the order=16/order=128
// sub-benchmarks, medians of five alternated runs): 26.0 against 17.6
// B/entry as bulk-loaded, a random Get 835 against 404 ns (64 entries: 460
// ns), and the wider node was also the faster one on trees that fit the
// caches (20k keys: 124 against 163 ns). At 128 a 1M-key tree is three
// levels whose inner two stay cached, so a lookup misses in one leaf. The
// baseline the paper's memory ratio is quoted against is therefore the
// leaner tree: an honest baseline is part of the reproduction. A figure that
// wants the paper's node passes 16 to New.
//
// A node holds at most order slots — entries in a leaf, children (and one
// separator fewer) in an internal node — and a full node splits before it
// takes one more. Each node array has the smallest allocator size class that
// holds its slots, not a full node's: an insert into a full array moves it
// to the next class, each half of a split and the node a merge leaves gets
// the class of what it holds, and a delete that leaves a quarter of the
// array spare moves it to the class of what remains (removeAt, remove). A
// split leaves two half-empty nodes and deletes drain nodes, so arrays of
// the full order held about a quarter of an insert-built tree's bytes empty
// (1M random inserts of 16-byte entries: 24.5 against 18.1 B/entry). The one
// exception is the right edge: the rightmost leaf is given a full node's
// array whenever it is encoded, because ascending keys — every primary index
// — append there and would otherwise regrow it class by class. An array's
// capacity is therefore a size class, and the leaf header is 64 bytes,
// exactly another, so SizeBytes counts what the heap holds (see SizeBytes
// for the one rounding it leaves out).
package btree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"hermit/internal/forcode"
	"hermit/internal/heapsize"
	"hermit/internal/keyorder"
)

// DefaultOrder is the node order of every tree the engine builds: the
// maximum number of entries per leaf and of children per internal node (see
// the package comment for why 128).
const DefaultOrder = 128

// Tree is a B+-tree mapping float64 keys — or, in a two-key tree, (a, b)
// key pairs — to uint64 tuple identifiers. The zero value is not usable;
// call New or NewComposite.
//
// Tree is not internally synchronised. The engine layer serialises writers;
// concurrent readers are safe only in the absence of writers.
type Tree struct {
	root *node
	// last is the rightmost leaf, the end of the leaf chain: where Get and
	// Swap go without a descent for a key above its first one.
	last  *node
	order int
	size  int
	// two marks a two-key tree (NewComposite), and bs is its room to
	// decode a leaf's b ranks in (scratch); nil in a one-key tree.
	two bool
	bs  []uint64
}

// node is a leaf when in is nil. Its header is 64 bytes, an allocator size
// class; an internal node adds an inner, 72 bytes in the 80-byte class.
type node struct {
	in   *inner // internal nodes only
	next *node  // leaf-level sibling link for range scans
	// buf holds a leaf's n entries packed (see the package comment), then
	// at least spare bytes; len(buf) is its capacity, a size class.
	buf   []byte
	kbase uint64 // the rank key code 0 stands for
	vbase uint64 // the id id code 0 stands for
	n     int32  // entries in a leaf
	// The key frame is (kbase, shift, kw), the id frame (vbase, vw), and
	// in a two-key leaf a b code follows them in bw bytes (bframe); bw is 0
	// in a one-key leaf.
	shift, kw, vw, bw uint8
}

// inner is what an internal node holds besides its header.
type inner struct {
	// keys and tie are the separators: separator i is the smallest entry of
	// children[i+1] when it was split off. keys[i] is its key, and its tie
	// words, which order it among entries of that key, are tie[i] — its id
	// — in a one-key tree, tie[2i] and tie[2i+1] — b's rank, then the id —
	// in a two-key tree (ties).
	keys     []float64
	tie      []uint64
	children []*node
}

// pad is the number of bytes a one-key leaf array keeps past its last
// entry: an 8-byte load at the start of any field stays inside the array.
const pad = 8

// tail is the number of bytes a two-key leaf array keeps at its end for its
// b frame (bframe): b's base rank in 8 bytes, then its shift. They are past
// the last entry, so they are its pad too.
const tail = 9

func (n *node) leaf() bool { return n.in == nil }

// New creates an empty tree with the given node order (maximum entries per
// leaf, children per internal node). Orders below 4 are raised to 4.
func New(order int) *Tree {
	if order < 4 {
		order = 4
	}
	root := &node{}
	return &Tree{
		root:  root,
		last:  root,
		order: order,
	}
}

// NewComposite creates an empty two-key tree, the index shape of the
// paper's running example on (TIME, DJ) (§3): its entries are (a, b, id),
// ordered by a, then b, then id, both keys in keyorder's total order. It is
// written and read with the methods that take both keys: InsertAB,
// DeleteAB, ScanAB and BulkLoadAB.
func NewComposite(order int) *Tree {
	t := New(order)
	t.two, t.bs = true, make([]uint64, 0, fit(t.order+1))
	t.root = t.newLeaf()
	t.last = t.root
	return t
}

// newLeaf returns an empty leaf of t: a two-key leaf has an array from the
// start, for its b frame.
func (t *Tree) newLeaf() *node {
	n := &node{}
	if t.two {
		fill(n, entries{bs: []uint64{}}, 0)
	}
	return n
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels, 1 for a tree that is a single leaf.
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf(); n = n.in.children[0] {
		h++
	}
	return h
}

// ent is an entry, or a separator, in the tree's order: its key, its b's
// rank (0 in a one-key tree) and its id.
type ent struct {
	key   float64
	s, id uint64
}

// cmpEnt orders entries: keys by keyorder's total order, then b's ranks,
// then ids.
func cmpEnt(x, y ent) int {
	if c := keyorder.Compare(x.key, y.key); c != 0 {
		return c
	}
	if c := cmp.Compare(x.s, y.s); c != 0 {
		return c
	}
	return cmp.Compare(x.id, y.id)
}

// rankB is b's rank in a two-key tree and 0 in a one-key tree, which does
// not read b.
func (t *Tree) rankB(b float64) uint64 {
	if t.two {
		return keyorder.Rank(b)
	}
	return 0
}

// ties is the number of tie words of each separator of t (inner).
func (t *Tree) ties() int {
	if t.two {
		return 2
	}
	return 1
}

// spare is the number of bytes a leaf array of t keeps past its entries.
func (t *Tree) spare() int {
	if t.two {
		return tail
	}
	return pad
}

// sep returns separator i, ts tie words per separator, as an entry.
func (in *inner) sep(i, ts int) ent {
	if ts == 2 {
		return ent{in.keys[i], in.tie[2*i], in.tie[2*i+1]}
	}
	return ent{key: in.keys[i], id: in.tie[i]}
}

// The searches below are written out (no sort.Search, no closure): a descent
// runs one per level. A separator's tie words are compared only when its
// key equals the probe's.

// search returns the number of separators below entry e, or, when
// orEqual, at or below it: the child a descent for e takes.
func (in *inner) search(e ent, ts int, orEqual bool) int {
	lim := 0
	if orEqual {
		lim = 1
	}
	keys := in.keys
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keyorder.Less(keys[m], e.key) || !keyorder.Less(e.key, keys[m]) && cmpEnt(in.sep(m, ts), e) < lim {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// childKey returns the child to descend into for a unique key k: the number
// of separators whose key is <= k.
func (in *inner) childKey(k float64) int {
	keys := in.keys
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keyorder.Less(k, keys[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// w is the width of one entry of leaf n in bytes.
func (n *node) w() int { return int(n.kw) + int(n.vw) + int(n.bw) }

// rank returns the key rank of entry i of leaf n.
func (n *node) rank(i int) uint64 {
	return forcode.Rank(forcode.Load(n.buf, i*n.w())&forcode.Mask(n.kw), n.kbase, n.shift)
}

// key returns the key of entry i of leaf n.
func (n *node) key(i int) float64 { return keyorder.Unrank(n.rank(i)) }

// id returns the id of entry i of leaf n.
func (n *node) id(i int) uint64 {
	return n.vbase + forcode.Load(n.buf, i*n.w()+int(n.kw))&forcode.Mask(n.vw)
}

// bframe returns two-key leaf n's b frame: its base and shift, the codes
// bw bytes wide after the id code. It sits in the last tail bytes of the
// array, which fill writes after the entries.
func (n *node) bframe() (base uint64, shift uint8) {
	o := len(n.buf) - tail
	return forcode.Load(n.buf, o), n.buf[o+8]
}

// brank returns the b rank of entry i of two-key leaf n.
func (n *node) brank(i int) uint64 {
	base, shift := n.bframe()
	return forcode.Rank(forcode.Load(n.buf, i*n.w()+int(n.kw)+int(n.vw))&forcode.Mask(n.bw), base, shift)
}

// at returns entry i of leaf n, which is a two-key leaf when two.
func (n *node) at(i int, two bool) ent {
	e := ent{key: n.key(i), id: n.id(i)}
	if two {
		e.s = n.brank(i)
	}
	return e
}

// put writes entry i of leaf n — the key of rank r, b's rank s (two-key
// leaves only) and id — which must fit n's frames (forcode.Fits). Each
// field is written by a read-modify-write of 8 bytes, which leaves the
// bytes past it as they were. A b code of no bytes needs no write.
func (n *node) put(i int, r, s, id uint64) {
	o := i * n.w()
	forcode.Store(n.buf, o, forcode.Code(r, n.kbase, n.shift), forcode.Mask(n.kw))
	o += int(n.kw)
	forcode.Store(n.buf, o, id-n.vbase, forcode.Mask(n.vw))
	if n.bw != 0 {
		base, shift := n.bframe()
		forcode.Store(n.buf, o+int(n.vw), forcode.Code(s, base, shift), forcode.Mask(n.bw))
	}
}

// lower returns the index of the first entry of leaf n whose (key code, b
// code, id code) triple is >= (c, d, x). The b and id codes are read only
// for an entry whose key code is c; in a one-key leaf its b code, of no
// bytes, is 0, as d is.
func (n *node) lower(c, d, x uint64) int {
	buf, w, kw, bo := n.buf, n.w(), int(n.kw), int(n.kw)+int(n.vw)
	km, vm, bm := forcode.Mask(n.kw), forcode.Mask(n.vw), forcode.Mask(n.bw)
	lo, hi := 0, int(n.n)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		o := m * w
		if y := forcode.Load(buf, o) & km; y < c || y == c && tieBelow(forcode.Load(buf, o+bo)&bm, forcode.Load(buf, o+kw)&vm, d, x) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// tieBelow reports whether the (b code, id code) pair (y, z) is below (d, x).
func tieBelow(y, z, d, x uint64) bool { return y < d || y == d && z < x }

// search returns the index of the first entry of leaf n (a two-key leaf
// when two) that is >= e, r being e's key's rank. It maps e into n's frame
// — the entries at or above e are those whose (key code, b code, id code)
// triple is at or above (c, d, x); a one-key leaf has no b codes, and d is
// 0 — and lower finds the first of those.
func (n *node) search(r uint64, e ent, two bool) int {
	c, exact := forcode.Probe(r, n.kbase, n.shift)
	var d, x uint64
	if exact && two {
		base, shift := n.bframe()
		d, exact = forcode.Probe(e.s, base, shift)
	}
	if exact && e.id >= n.vbase {
		x = e.id - n.vbase
	}
	return n.lower(c, d, x)
}

// find returns the index of the first entry of leaf n whose rank is >= r,
// and whether that entry's rank is r. It compares key codes alone, in a
// binary search without a branch on the comparison: a step moves by the
// borrow of the subtraction, since a lookup by key alone probes a random
// path through the leaf, and a mispredicted branch at every step would cost
// more than the comparisons.
func (n *node) find(r uint64) (int, bool) {
	k := int(n.n)
	if k == 0 {
		return 0, false
	}
	c, _ := forcode.Probe(r, n.kbase, n.shift)
	buf, w, km := n.buf, n.w(), forcode.Mask(n.kw)
	i := 0
	for size := k; size > 1; size -= size >> 1 {
		_, below := bits.Sub64(forcode.Load(buf, (i+size>>1)*w)&km, c, 0)
		i += size >> 1 & -int(below)
	}
	if forcode.Load(buf, i*w)&km < c {
		i++
	}
	return i, i < k && n.rank(i) == r
}

// holds reports whether entry i of leaf n (a two-key leaf when two) is e,
// r being e's key's rank.
func (n *node) holds(i int, r uint64, e ent, two bool) bool {
	return i < int(n.n) && n.rank(i) == r && n.id(i) == e.id && (!two || n.brank(i) == e.s)
}

// Insert adds the entry (key, id) to a one-key tree. Inserting an entry
// that already exists (same key and id) stores a second copy, which Delete
// removes one at a time. The engine relies on it: under logical pointers an
// update that leaves the host column as it was inserts the new version's
// host entry while the old version's identical one is still in the tree.
func (t *Tree) Insert(key float64, id uint64) { t.add(ent{key: key, id: id}) }

// InsertAB adds the entry (a, b, id) to a two-key tree, a second copy of
// it as Insert does. A one-key tree does not read b: it adds (a, id).
func (t *Tree) InsertAB(a, b float64, id uint64) { t.add(ent{a, t.rankB(b), id}) }

// add inserts entry e.
func (t *Tree) add(e ent) {
	t.growRoot(t.insert(t.root, keyorder.Rank(e.key), e))
	t.size++
}

// growRoot puts a new root over the old one and the sibling its split
// produced, if it split.
func (t *Tree) growRoot(sep ent, right *node) {
	if right != nil {
		words := [2]uint64{sep.s, sep.id}
		t.root = &node{in: &inner{
			keys:     []float64{sep.key},
			tie:      append([]uint64(nil), words[2-t.ties():]...),
			children: []*node{t.root, right},
		}}
	}
}

// fitBytes returns the bytes of the smallest size class that holds b: what
// the allocator hands out for a node array.
func fitBytes(b int) int { return int(heapsize.Of(b, false)) }

// fit is fitBytes in 8-byte slots, at least one: every size class is a
// whole number of them.
func fit(n int) int { return fitBytes(8*max(n, 1)) / 8 }

// resize returns s in an array of the smallest size class that holds n
// slots, s's own when it is one.
func resize[T any](s []T, n int) []T {
	if cap(s) == fit(n) {
		return s
	}
	return append(make([]T, 0, fit(n)), s...)
}

// insertAt inserts vs at index i of the array of a node that is not full.
// An array that has no spare capacity moves to the next size class that
// holds them, never to a doubled or a full node's one, so cap() — what
// SizeBytes counts — is what the heap holds and no more than the node's
// slots need.
func insertAt[T any](s []T, i int, vs ...T) []T {
	if len(s)+len(vs) > cap(s) {
		s = resize(s, len(s)+len(vs))
	}
	s = s[:len(s)+len(vs)]
	copy(s[i+len(vs):], s[i:])
	copy(s[i:], vs)
	return s
}

// splitInsert splits the array s of a full node as inserting vs at index i
// and then cutting the result at mid would; vs lands in one half. Each half
// has the smallest size class that holds it — the right one at least room
// slots — so the left half keeps s's array only when that is its class. The
// slots s no longer covers are cleared, so the left node does not keep the
// right one's children reachable.
func splitInsert[T any](s []T, i, mid, room int, vs ...T) (left, right []T) {
	k := len(vs)
	right = make([]T, 0, fit(max(len(s)+k-mid, room)))
	if i < mid {
		right = append(right, s[mid-k:]...)
		left = insertAt(resize(s[:mid-k], mid), i, vs...)
	} else {
		right = insertAt(append(right, s[mid:]...), i-mid, vs...)
		left = resize(s[:mid], mid)
	}
	clear(s[mid:])
	return left, right
}

// removeAt removes the k slots from index i of a node array. When that
// leaves a quarter or more of the array spare, it moves to the smallest size
// class that holds what remains (see roomy for the hysteresis).
func removeAt[T any](s []T, i, k int) []T {
	if roomy(len(s)-k, cap(s)) {
		return append(append(make([]T, 0, fit(len(s)-k)), s[:i]...), s[i+k:]...)
	}
	return slices.Delete(s, i, i+k)
}

// roomy reports whether an array of capacity c holding n slots is one a
// delete moves to a smaller size class: a quarter or more of it is spare,
// and one more slot would still fit a smaller class. The quarter keeps an
// array that has just grown from shrinking on the next delete, and the
// second condition does the same for the small classes, which lie more than
// a quarter apart; so no insert/delete pair moves an array twice.
func roomy(n, c int) bool { return 4*(c-n) >= c && fit(n+1) < c }

// roomyBytes is roomy for a leaf array of c bytes holding b, whose entries
// are w bytes wide.
func roomyBytes(b, c, w int) bool { return 4*(c-b) >= c && fitBytes(b+w) < c }

// entries are a leaf's entries decoded: entry i is the key of rank
// ranks[i], b's rank bs[i] and id ids[i]. bs is nil in a one-key tree.
type entries struct{ ranks, bs, ids []uint64 }

// insert inserts the entry (r, s, id) at index i; s is dropped in a
// one-key tree.
func (es entries) insert(i int, r, s, id uint64) entries {
	es.ranks, es.ids = slices.Insert(es.ranks, i, r), slices.Insert(es.ids, i, id)
	if es.bs != nil {
		es.bs = slices.Insert(es.bs, i, s)
	}
	return es
}

// delete removes the entry at index i.
func (es entries) delete(i int) entries {
	es.ranks, es.ids = slices.Delete(es.ranks, i, i+1), slices.Delete(es.ids, i, i+1)
	if es.bs != nil {
		es.bs = slices.Delete(es.bs, i, i+1)
	}
	return es
}

// part returns the entries from index lo to hi.
func (es entries) part(lo, hi int) entries {
	p := entries{ranks: es.ranks[lo:hi], ids: es.ids[lo:hi]}
	if es.bs != nil {
		p.bs = es.bs[lo:hi]
	}
	return p
}

// decoded is stack room for the keys and ids of a full leaf and one more,
// decoded to ranks: what a leaf is re-encoded from (fill).
type decoded struct {
	ranks, ids [DefaultOrder + 1]uint64
}

// scratch returns empty entries over d's room, or over the heap for a tree
// whose leaves d cannot hold, and, in a two-key tree, over t.bs. The b room
// is the tree's, not the stack's: a one-key tree's re-encode then clears
// only the stack room it uses.
func (t *Tree) scratch(d *decoded) entries {
	es := entries{ranks: d.ranks[:0], bs: t.bs[:0], ids: d.ids[:0]}
	if t.order >= len(d.ranks) {
		es.ranks, es.ids = make([]uint64, 0, t.order+1), make([]uint64, 0, t.order+1)
	}
	return es
}

// decode appends the entries of leaf n to es; their b ranks too when es
// has them (a two-key tree).
func (n *node) decode(es entries) entries {
	for i := range int(n.n) {
		es.ranks, es.ids = append(es.ranks, n.rank(i)), append(es.ids, n.id(i))
	}
	if es.bs != nil {
		for i := range int(n.n) {
			es.bs = append(es.bs, n.brank(i))
		}
	}
	return es
}

// bounds returns the smallest and the largest of the ranks rs, in entry
// order, not sorted, and the OR of their differences from the first: what
// forcode.Derive derives a frame from.
func bounds(rs []uint64) (lo, hi, diff uint64) {
	if len(rs) > 0 {
		lo = rs[0]
	}
	for _, r := range rs {
		lo, hi, diff = min(lo, r), max(hi, r), diff|(r-rs[0])
	}
	return lo, hi, diff
}

// fill encodes the entries es, sorted, into leaf n in the tightest frames
// that hold them — ids in one off the grid — in an array of the smallest
// size class that holds room entries of those frames, or all of them if
// there are more: n's own array when it is that class. Entries with b
// ranks make a two-key leaf.
func fill(n *node, es entries, room int) {
	ranks, ids := es.ranks, es.ids
	n.n = int32(len(ranks))
	lo, hi, diff := bounds(ranks)
	n.kbase, n.bw = lo, 0
	n.shift, n.kw = forcode.Derive(lo, hi, diff)
	lo, hi, _ = bounds(ids)
	n.vbase, n.vw = lo, forcode.Width(hi-lo)
	spare := pad
	var bbase uint64
	var bshift uint8
	if es.bs != nil {
		bbase, hi, diff = bounds(es.bs)
		bshift, n.bw = forcode.Derive(bbase, hi, diff)
		spare = tail
	}
	w := n.w()
	if size := fitBytes(max(len(ranks), room)*w + spare); len(n.buf) != size {
		n.buf = make([]byte, size)
	}
	// Front to back, a field's 8-byte store may clear the bytes after it:
	// they belong to fields written later. The b codes follow, each by a
	// read-modify-write as put writes, and the b frame last.
	for i, r := range ranks {
		o := i * w
		binary.LittleEndian.PutUint64(n.buf[o:], forcode.Code(r, n.kbase, n.shift))
		binary.LittleEndian.PutUint64(n.buf[o+int(n.kw):], ids[i]-n.vbase)
	}
	if es.bs != nil {
		o, bm := int(n.kw)+int(n.vw), forcode.Mask(n.bw)
		for _, s := range es.bs {
			forcode.Store(n.buf, o, forcode.Code(s, bbase, bshift), bm)
			o += w
		}
		o = len(n.buf) - tail
		binary.LittleEndian.PutUint64(n.buf[o:], bbase)
		n.buf[o+8] = bshift
	}
}

// room is the number of entries a re-encoded leaf n gets an array for at
// least: a full node's for the rightmost leaf, where ascending keys append
// (see the package comment), and none beyond what it holds for the others.
func (t *Tree) room(n *node) int {
	if n.next == nil {
		return t.order
	}
	return 0
}

// refill re-encodes leaf n after an edit its frame cannot hold: entry i's
// id replaced by e's, or, when insert, entry e, r being its key's rank,
// inserted at i.
func (t *Tree) refill(n *node, i int, r uint64, e ent, insert bool) {
	var d decoded
	es := n.decode(t.scratch(&d))
	if insert {
		es = es.insert(i, r, e.s, e.id)
	} else {
		es.ids[i] = e.id
	}
	fill(n, es, t.room(n))
}

// remove removes entry i of leaf n. When that leaves a quarter or more of
// the array spare, the leaf is re-encoded into the smallest size class that
// holds what remains, in a frame fitted to it (see roomy for the
// hysteresis).
func (t *Tree) remove(n *node, i int) {
	w, end := n.w(), int(n.n)*n.w()
	if roomyBytes(end-w+t.spare(), len(n.buf), w) {
		var d decoded
		fill(n, n.decode(t.scratch(&d)).delete(i), 0)
		return
	}
	copy(n.buf[i*w:], n.buf[(i+1)*w:end])
	n.n--
}

// insert descends into n; on child split it absorbs the separator, and on
// its own split returns the new right sibling with its separator. r is the
// rank of e's key.
func (t *Tree) insert(n *node, r uint64, e ent) (ent, *node) {
	if n.leaf() {
		return t.insertLeaf(n, n.search(r, e, t.two), r, e)
	}
	ci := n.in.search(e, t.ties(), true)
	sep, right := t.insert(n.in.children[ci], r, e)
	if right == nil {
		return ent{}, nil
	}
	return t.absorb(n, ci, sep, right)
}

// insertLeaf places entry e, r being its key's rank, at index i of leaf n.
// A full leaf splits around its middle, counting the new entry, and the
// entry goes into the half it belongs to; each half is re-encoded in a
// frame of its own. The rightmost leaf is where ascending keys append: when
// the entry goes past its end the split is at the end instead and the entry
// opens the new leaf alone, so an ascending load leaves full leaves behind,
// untouched, rather than half-empty ones, and the new rightmost leaf gets a
// full node's array to append into.
func (t *Tree) insertLeaf(n *node, i int, r uint64, e ent) (ent, *node) {
	if k := int(n.n); k < t.order {
		fits := forcode.Fits(r, n.kbase, n.shift, n.kw) && forcode.Fits(e.id, n.vbase, 0, n.vw)
		if t.two {
			base, shift := n.bframe()
			fits = fits && forcode.Fits(e.s, base, shift, n.bw)
		}
		if !fits {
			t.refill(n, i, r, e, true)
			return ent{}, nil
		}
		w := n.w()
		if need := (k+1)*w + t.spare(); need > len(n.buf) {
			buf := make([]byte, fitBytes(need))
			copy(buf, n.buf[:k*w])
			if t.two {
				copy(buf[len(buf)-tail:], n.buf[len(n.buf)-tail:])
			}
			n.buf = buf
		}
		copy(n.buf[(i+1)*w:], n.buf[i*w:k*w])
		n.n++
		n.put(i, r, e.s, e.id)
		return ent{}, nil
	}
	right := &node{next: n.next}
	if n.next == nil && i == int(n.n) {
		es := entries{ranks: []uint64{r}, ids: []uint64{e.id}}
		if t.two {
			es.bs = []uint64{e.s}
		}
		fill(right, es, t.order)
	} else {
		var d decoded
		es := n.decode(t.scratch(&d)).insert(i, r, e.s, e.id)
		mid := t.order - t.order/2
		fill(n, es.part(0, mid), 0)
		fill(right, es.part(mid, len(es.ranks)), t.room(right))
	}
	n.next = right
	if t.last == n {
		t.last = right
	}
	return right.at(0, t.two), right
}

// absorb adds the separator and right sibling that the split of
// n.in.children[ci] produced. A full n splits around its middle separator,
// counting the new one, and that separator moves up to n's parent.
func (t *Tree) absorb(n *node, ci int, sep ent, right *node) (ent, *node) {
	in, ts := n.in, t.ties()
	words := [2]uint64{sep.s, sep.id}
	tie := words[2-ts:]
	if len(in.children) < t.order {
		in.keys = insertAt(in.keys, ci, sep.key)
		in.tie = insertAt(in.tie, ci*ts, tie...)
		in.children = insertAt(in.children, ci+1, right)
		return ent{}, nil
	}
	mid := t.order / 2
	r := &inner{}
	in.keys, r.keys = splitInsert(in.keys, ci, mid, 0, sep.key)
	in.tie, r.tie = splitInsert(in.tie, ci*ts, mid*ts, 0, tie...)
	in.children, r.children = splitInsert(in.children, ci+1, mid+1, 0, right)
	up := r.sep(0, ts)
	r.keys, r.tie = slices.Delete(r.keys, 0, 1), slices.Delete(r.tie, 0, ts)
	return up, &node{in: r}
}

// Delete removes the entry (key, id) of a one-key tree if present and
// reports whether it was found. A node the removal leaves hollow is merged
// with a sibling under the same parent when the two fit in one node
// (hollow, mergeable); the parent that loses a separator may merge in turn,
// and a root left with one child gives way to it. There is no borrowing: a
// hollow node whose siblings are too full stays as it is. What bounds the
// tree is the pair rule — of two adjacent siblings, one is not hollow or
// the two do not fit in one node — so its size follows the entries it
// holds, whatever the number of inserts and deletes behind them.
func (t *Tree) Delete(key float64, id uint64) bool { return t.drop(ent{key: key, id: id}) }

// DeleteAB removes the entry (a, b, id) of a two-key tree as Delete does.
// A one-key tree does not read b: it removes (a, id).
func (t *Tree) DeleteAB(a, b float64, id uint64) bool { return t.drop(ent{a, t.rankB(b), id}) }

// drop removes entry e.
func (t *Tree) drop(e ent) bool {
	if !t.delete(t.root, keyorder.Rank(e.key), e) {
		return false
	}
	t.size--
	for !t.root.leaf() && len(t.root.in.children) == 1 {
		t.root = t.root.in.children[0]
	}
	return true
}

// delete removes e below n, r being its key's rank, and merges the child it
// removed it from if that came back hollow.
func (t *Tree) delete(n *node, r uint64, e ent) bool {
	if n.leaf() {
		i := n.search(r, e, t.two)
		if !n.holds(i, r, e, t.two) {
			return false
		}
		t.remove(n, i)
		return true
	}
	in, ts := n.in, t.ties()
	ci := in.search(e, ts, true)
	for !t.delete(in.children[ci], r, e) {
		if !in.copiesLeft(ci, e, ts) {
			return false
		}
		ci--
	}
	if t.hollow(in.children[ci]) {
		switch {
		case ci > 0 && t.mergeable(in.children[ci-1], in.children[ci]):
			t.mergeChildren(n, ci-1)
		case ci+1 < len(in.children) && t.mergeable(in.children[ci], in.children[ci+1]):
			t.mergeChildren(n, ci)
		}
	}
	return true
}

// copiesLeft reports whether the separator left of children[ci] equals e,
// so that a copy of the entry the descent did not find in that child may
// sit in the one before it: a split parts two copies of one entry that
// way, and the separator copies the right one.
func (in *inner) copiesLeft(ci int, e ent, ts int) bool {
	return ci > 0 && cmpEnt(in.sep(ci-1, ts), e) == 0
}

// slots is what a node's capacity, the order, counts: entries in a leaf,
// children in an internal node.
func (n *node) slots() int {
	if n.leaf() {
		return int(n.n)
	}
	return len(n.in.children)
}

// hollow reports whether n fills few enough slots to look for a sibling to
// merge with: fewer than half a node, which is less than either side of a
// split starts with.
func (t *Tree) hollow(n *node) bool { return n.slots() < t.order/2 }

// mergeable reports whether adjacent siblings l and r fit in one node with
// a sixteenth of it to spare. The spare slots are hysteresis: the two halves
// of a split hold more than that between them, so a node that has just
// merged does not split on the next insert, nor one that has just split
// merge on the next delete — the engine's writes come in such pairs, a new
// version's entry and, at GC, the old one's next to it. Measured on a
// random insert/delete churn at constant size (100k entries, 1M ops, order
// 16, B/entry against 35.2 as built): hollow under a quarter with three
// quarters to fit, 45.3; under a half, 41.1 with three quarters, 38.1 with
// seven eighths, 36.8 with fifteen sixteenths, 36.0 with the whole node.
func (t *Tree) mergeable(l, r *node) bool {
	return l.slots()+r.slots() <= t.order-t.order/16
}

// mergeChildren moves p's child i+1 into its child i and removes the
// separator between them from p. Dropping a separator widens the left
// child's range to cover the right one's, so no descent — by entry or by
// key alone — is routed differently for any entry that remains. Two merged
// leaves are re-encoded in one frame.
func (t *Tree) mergeChildren(p *node, i int) {
	pin, ts := p.in, t.ties()
	l, r := pin.children[i], pin.children[i+1]
	seam := -1
	if l.leaf() {
		var d decoded
		es := r.decode(l.decode(t.scratch(&d)))
		l.next = r.next
		fill(l, es, t.room(l))
		if t.last == r {
			t.last = l
		}
	} else {
		lin, rin := l.in, r.in
		seam = len(lin.children) - 1
		lin.keys = extend(lin.keys, pin.keys[i:i+1], rin.keys)
		lin.tie = extend(lin.tie, pin.tie[i*ts:(i+1)*ts], rin.tie)
		lin.children = extend(lin.children, rin.children)
	}
	pin.keys, pin.tie = removeAt(pin.keys, i, 1), removeAt(pin.tie, i*ts, ts)
	pin.children = removeAt(pin.children, i+1, 1)
	// Two internal nodes bring their edge children together as siblings,
	// and no delete may come this way again — a queue drained from one end
	// can join two empty leaves here, one more with each parent it drains —
	// so the pair is held to the rule now.
	if seam >= 0 {
		if a, b := l.in.children[seam], l.in.children[seam+1]; (t.hollow(a) || t.hollow(b)) && t.mergeable(a, b) {
			t.mergeChildren(l, seam)
		}
	}
}

// extend appends the parts in more to a node array, first moving it to the
// smallest size class that holds the merged length when they do not fit. A
// merge fits in one node (mergeable), so the result holds at most order
// slots.
func extend[T any](s []T, more ...[]T) []T {
	n := len(s)
	for _, m := range more {
		n += len(m)
	}
	if n > cap(s) {
		s = resize(s, n)
	}
	for _, m := range more {
		s = append(s, m...)
	}
	return s
}

// Contains reports whether the exact entry (key, id) of a one-key tree is
// present.
func (t *Tree) Contains(key float64, id uint64) bool {
	return t.contains(t.root, keyorder.Rank(key), ent{key: key, id: id})
}

// contains is Contains below n, r being the rank of e's key. Like delete,
// it looks left across a separator equal to the entry (copiesLeft).
func (t *Tree) contains(n *node, r uint64, e ent) bool {
	if n.leaf() {
		return n.holds(n.search(r, e, t.two), r, e, t.two)
	}
	in, ts := n.in, t.ties()
	for ci := in.search(e, ts, true); !t.contains(in.children[ci], r, e); ci-- {
		if !in.copiesLeft(ci, e, ts) {
			return false
		}
	}
	return true
}

// Scan calls fn for every entry of a one-key tree with lo <= key <= hi in
// ascending (key, id) order. Scanning stops early if fn returns false.
func (t *Tree) Scan(lo, hi float64, fn func(key float64, id uint64) bool) {
	t.scan(lo, hi, 0, 0, fn)
}

// ScanAB calls fn with the a and the id of every entry of a two-key tree
// with aLo <= a <= aHi and bLo <= b <= bHi, in ascending (a, b, id) order,
// the bounds taken in keyorder's total order: a ScanAB with non-NaN bounds
// never yields a NaN in either key. Navigation seeks (aLo, bLo); b is
// filtered in the leaf walk, by comparing codes in each leaf's frame. A
// one-key tree does not read b: ScanAB is Scan there.
func (t *Tree) ScanAB(aLo, aHi, bLo, bHi float64, fn func(a float64, id uint64) bool) {
	if keyorder.Less(bHi, bLo) {
		return
	}
	t.scan(aLo, aHi, t.rankB(bLo), t.rankB(bHi), fn)
}

// scan is Scan and ScanAB: in a two-key tree it passes only the entries
// whose b ranks lie in [slo, shi].
func (t *Tree) scan(lo, hi float64, slo, shi uint64, fn func(key float64, id uint64) bool) {
	if keyorder.Less(hi, lo) {
		return
	}
	top, two := keyorder.Rank(hi), t.two
	from := ent{key: lo, s: slo}
	n := t.leafFrom(from)
	for i := n.search(keyorder.Rank(lo), from, two); n != nil; n, i = n.next, 0 {
		k := int(n.n)
		if i >= k {
			continue
		}
		if top < n.kbase {
			return
		}
		// The codes at or below last are the keys at or below hi. The
		// frame is read into locals once: fn could change n, as far as the
		// compiler knows, so it would read n's fields again at every entry.
		kbase, shift, vbase := n.kbase, n.shift, n.vbase
		last := forcode.Code(top, kbase, shift)
		buf, w, kw := n.buf, n.w(), int(n.kw)
		km, vm := forcode.Mask(n.kw), forcode.Mask(n.vw)
		if !two {
			for ; i < k; i++ {
				c := forcode.Load(buf, i*w) & km
				if c > last {
					return
				}
				if !fn(keyorder.Unrank(forcode.Rank(c, kbase, shift)), vbase+forcode.Load(buf, i*w+kw)&vm) {
					return
				}
			}
			continue
		}
		// A two-key leaf passes the entries whose b code is from d to
		// d+span, the b ranks in [slo, shi], in a loop of its own: the same
		// test in the one-key loop, passing every entry, made 1000-entry
		// one-key scans 22 % slower (order 128, eight alternated runs).
		bbase, bshift := n.bframe()
		d, span, ok := forcode.Span(slo, shi, bbase, bshift)
		if !ok {
			continue
		}
		bo, bm := kw+int(n.vw), forcode.Mask(n.bw)
		for ; i < k; i++ {
			c := forcode.Load(buf, i*w) & km
			if c > last {
				return
			}
			if forcode.Load(buf, i*w+bo)&bm-d <= span && !fn(keyorder.Unrank(forcode.Rank(c, kbase, shift)), vbase+forcode.Load(buf, i*w+kw)&vm) {
				return
			}
		}
	}
}

// leafFrom returns the leaf a walk over the entries at or above e starts
// at: the first of them is in it or in a later leaf. The descent counts
// only the separators below e, not one equal to it — a copy of that entry
// may sit left of such a separator (see Insert).
func (t *Tree) leafFrom(e ent) *node {
	n, ts := t.root, t.ties()
	for !n.leaf() {
		n = n.in.children[n.in.search(e, ts, false)]
	}
	return n
}

// Each calls fn for every entry in ascending order — NaN keys included,
// which no Scan with ordinary bounds reaches — with its key (a, in a
// two-key tree) and id. It stops early if fn returns false.
func (t *Tree) Each(fn func(key float64, id uint64) bool) {
	n := t.root
	for !n.leaf() {
		n = n.in.children[0]
	}
	for ; n != nil; n = n.next {
		for i := range int(n.n) {
			if !fn(n.key(i), n.id(i)) {
				return
			}
		}
	}
}

// Lookup calls fn for every entry of a one-key tree whose key equals key.
func (t *Tree) Lookup(key float64, fn func(id uint64) bool) {
	t.Scan(key, key, func(_ float64, id uint64) bool { return fn(id) })
}

// Get returns the id stored under key in a unique-key tree (see Swap): one
// descent by key alone, or none for a key past the rightmost leaf's first
// (appends).
func (t *Tree) Get(key float64) (uint64, bool) {
	r := keyorder.Rank(key)
	if t.appends(r) {
		return t.last.get(r)
	}
	n := t.root
	for !n.leaf() {
		n = n.in.children[n.in.childKey(key)]
	}
	return n.get(r)
}

// appends reports whether the key of rank r is strictly above the first
// key of the rightmost leaf, so that the descent by key alone ends there
// and passes no separator equal to it (see the package comment).
func (t *Tree) appends(r uint64) bool {
	n := t.last
	return n.n > 0 && n.rank(0) < r
}

// get looks the key of rank r up in leaf n.
func (n *node) get(r uint64) (uint64, bool) {
	if i, ok := n.find(r); ok {
		return n.id(i), true
	}
	return 0, false
}

// Finger is the position GetAscending resumes from: the leaf the previous
// key landed on. The zero value starts a run; a finger is invalidated by
// any write to the tree.
type Finger struct{ leaf *node }

// GetAscending is Get for a run of keys probed in ascending order: a key
// that falls in the previous key's leaf, or in the leaf after it, is
// answered without a descent.
func (t *Tree) GetAscending(f *Finger, key float64) (uint64, bool) {
	r := keyorder.Rank(key)
	n := f.leaf
	if n == nil || !n.reaches(r) {
		// Past this leaf's last key. The leaf after it holds the key if it
		// reaches it: a key in the gap between the two is in neither.
		if n != nil && n.next != nil && n.next.reaches(r) {
			n = n.next
		} else {
			for n = t.root; !n.leaf(); {
				n = n.in.children[n.in.childKey(key)]
			}
		}
		f.leaf = n
	}
	return n.get(r)
}

// reaches reports whether leaf n's last key ranks at or above r.
func (n *node) reaches(r uint64) bool {
	return n.n > 0 && n.rank(int(n.n)-1) >= r
}

// Swap stores id under key in a unique-key tree and returns the id it
// replaced; ok is false when the key was absent and the entry was inserted.
// Either way it is one descent, by key alone — none for a key Get finds
// without one while the rightmost leaf has room.
//
// A separator is a copy of an entry, tie included, and the entry descent
// of Insert, Delete and Contains compares that tie. Swap therefore rewrites
// the tie of the one separator that carries its key, so that the separator
// never sorts above the entry it stands for and Delete(key, id) and
// Contains(key, id) keep finding what Swap stored. The converse does not
// hold: Insert may place a key left of a stale separator of the same key,
// where Get will not look. A tree read with Get or GetAscending is written
// with Swap, Delete and BulkLoad only, and is a one-key tree.
func (t *Tree) Swap(key float64, id uint64) (old uint64, ok bool) {
	r := keyorder.Rank(key)
	e := ent{key: key, id: id}
	if n := t.last; t.appends(r) && int(n.n) < t.order { // no room to split for
		if k := int(n.n); n.rank(k-1) < r {
			t.insertLeaf(n, k, r, e) // the next key of a sequence: no search
		} else {
			old, ok, _, _ = t.swapLeaf(n, r, e)
		}
	} else {
		var sep ent
		var right *node
		old, ok, sep, right = t.swap(t.root, r, e)
		t.growRoot(sep, right)
	}
	if !ok {
		t.size++
	}
	return old, ok
}

// swap is Swap below n, r being the rank of e's key; like insert it hands a
// split of n to its caller.
func (t *Tree) swap(n *node, r uint64, e ent) (old uint64, ok bool, sep ent, right *node) {
	if n.leaf() {
		return t.swapLeaf(n, r, e)
	}
	in := n.in
	ci := in.childKey(e.key)
	if ci > 0 && !keyorder.Less(in.keys[ci-1], e.key) {
		in.tie[ci-1] = e.id // the separator that copies this key
	}
	old, ok, sep, right = t.swap(in.children[ci], r, e)
	if right != nil {
		sep, right = t.absorb(n, ci, sep, right)
	}
	return old, ok, sep, right
}

// swapLeaf is swap in leaf n: it replaces the id of the key of rank r, or
// inserts the entry, splitting a full n (insertLeaf).
func (t *Tree) swapLeaf(n *node, r uint64, e ent) (old uint64, ok bool, sep ent, right *node) {
	i, found := n.find(r)
	if !found {
		sep, right = t.insertLeaf(n, i, r, e)
		return 0, false, sep, right
	}
	old = n.id(i)
	if forcode.Fits(e.id, n.vbase, 0, n.vw) {
		n.put(i, r, 0, e.id)
	} else {
		t.refill(n, i, r, e, false)
	}
	return old, true, ent{}, nil
}

// BulkLoad replaces the contents of a one-key tree with the given entries,
// which must be sorted by (key, id). Leaves are packed to ~85% occupancy,
// mirroring the single-thread bulk loading used for the paper's baseline
// B+-tree (§7.5).
func (t *Tree) BulkLoad(keys []float64, ids []uint64) error { return t.BulkLoadAB(keys, nil, ids) }

// BulkLoadAB is BulkLoad for a two-key tree: the entries are (as[i], bs[i],
// ids[i]), sorted by (a, b, id) as keyorder.SortTriples sorts them. A
// one-key tree does not read bs.
func (t *Tree) BulkLoadAB(as, bs []float64, ids []uint64) error {
	if len(as) != len(ids) || t.two && len(bs) != len(as) {
		return fmt.Errorf("btree: BulkLoad length mismatch: %d keys, %d b keys, %d ids", len(as), len(bs), len(ids))
	}
	for i := 1; i < len(as); i++ {
		c := keyorder.Compare(as[i-1], as[i])
		if c == 0 && t.two {
			c = keyorder.Compare(bs[i-1], bs[i])
		}
		if c > 0 || c == 0 && ids[i-1] > ids[i] {
			return fmt.Errorf("btree: BulkLoad input not sorted at %d", i)
		}
	}
	t.root = t.newLeaf()
	t.last = t.root
	t.size = len(as)
	if len(as) == 0 {
		return nil
	}
	per := max(t.order*85/100, 1)
	var d decoded
	es := t.scratch(&d)
	var leaves []*node
	for off := 0; off < len(as); off += per {
		end := min(off+per, len(as))
		es.ranks = es.ranks[:0]
		for _, k := range as[off:end] {
			es.ranks = append(es.ranks, keyorder.Rank(k))
		}
		if t.two {
			es.bs = es.bs[:0]
			for _, b := range bs[off:end] {
				es.bs = append(es.bs, keyorder.Rank(b))
			}
		}
		es.ids = ids[off:end]
		n := &node{}
		fill(n, es, 0)
		leaves = append(leaves, n)
	}
	for i := 0; i+1 < len(leaves); i++ {
		leaves[i].next = leaves[i+1]
	}
	t.last = leaves[len(leaves)-1]
	level := leaves
	for len(level) > 1 {
		var parents []*node
		for off := 0; off < len(level); off += per + 1 {
			end := min(off+per+1, len(level))
			in := &inner{children: append([]*node(nil), level[off:end]...)}
			for _, c := range in.children[1:] {
				for !c.leaf() {
					c = c.in.children[0]
				}
				e := c.at(0, t.two)
				in.keys = append(in.keys, e.key)
				if t.two {
					in.tie = append(in.tie, e.s)
				}
				in.tie = append(in.tie, e.id)
			}
			parents = append(parents, &node{in: in})
		}
		level = parents
	}
	t.root = level[0]
	return nil
}

// SizeBytes is the heap footprint of the tree: node headers, leaf arrays,
// the separator and child arrays of internal nodes, and a two-key tree's
// room to decode b ranks in. This feeds the
// paper's memory-consumption figures, where the baseline's complete indexes
// dominate the budget. Every array's capacity and every header are
// allocator size classes (see the package comment), so the count is what
// the heap holds, but for one rounding: the allocator puts an 8-byte header
// in front of an array of pointers over 512 bytes, which moves a child array
// of more than 64 slots one class up. Internal nodes are about one node in
// a hundred.
func (t *Tree) SizeBytes() uint64 {
	return 8*uint64(cap(t.bs)) + nodeSize(t.root)
}

// Header sizes: a node's, and the inner an internal node adds, each in its
// size class.
const (
	nodeBytes  = 64
	innerBytes = 80
)

func nodeSize(n *node) uint64 {
	if n.leaf() {
		return nodeBytes + uint64(len(n.buf))
	}
	in := n.in
	s := uint64(nodeBytes + innerBytes)
	s += uint64(cap(in.keys)+cap(in.tie)+cap(in.children)) * 8
	for _, c := range in.children {
		s += nodeSize(c)
	}
	return s
}

// checkArray checks a node array against the size-class rule: its capacity
// is a size class, and an array in a node that is not the rightmost leaf
// holds no room a delete would have given back (roomy). An internal node is
// held to the size class alone: BulkLoad appends its separators one at a
// time, so they may hold up to twice what they need.
func checkArray[T any](s []T, leafInside bool) error {
	if c := cap(s); c != 0 && fit(c) != c {
		return fmt.Errorf("btree: node array of capacity %d is no size class", c)
	}
	if leafInside && roomy(len(s), cap(s)) {
		return fmt.Errorf("btree: leaf array of capacity %d holds %d slots", cap(s), len(s))
	}
	return nil
}

// checkLeaf checks leaf n's array and frame: the array is a size class
// (checkArray's rule, in bytes) that holds the entries and the spare bytes,
// its frame's fields are in range — a one-key leaf has no b codes, a
// two-key leaf always an array for its b frame — and, unless n is the
// rightmost leaf, it holds no room a delete would have given back.
func (t *Tree) checkLeaf(n *node) error {
	used := int(n.n)*n.w() + t.spare()
	switch {
	case n.kw > 8 || n.vw > 8 || n.bw > 8 || n.shift > 63:
		return fmt.Errorf("btree: leaf frame has widths %d+%d+%d, shift %d", n.kw, n.vw, n.bw, n.shift)
	case n.bw != 0 && !t.two:
		return fmt.Errorf("btree: one-key leaf has %d-byte b codes", n.bw)
	case int(n.n) > t.order:
		return fmt.Errorf("btree: leaf holds %d entries, order %d", n.n, t.order)
	case n.buf == nil && n.n == 0 && !t.two:
		return nil
	case cap(n.buf) != len(n.buf) || fitBytes(len(n.buf)) != len(n.buf):
		return fmt.Errorf("btree: leaf array of %d bytes, capacity %d, is no size class", len(n.buf), cap(n.buf))
	case used > len(n.buf):
		return fmt.Errorf("btree: leaf array of %d bytes holds %d", len(n.buf), used)
	case n.next != nil && roomyBytes(used, len(n.buf), n.w()):
		return fmt.Errorf("btree: leaf array of %d bytes holds %d", len(n.buf), used)
	}
	if t.two {
		if _, shift := n.bframe(); shift > 63 {
			return fmt.Errorf("btree: leaf b frame has shift %d", shift)
		}
	}
	return nil
}

// checkInvariants walks the tree verifying ordering and structure — the
// leaf chain included, which must thread the leaves in the order the
// descent reaches them — every node array's capacity (checkArray,
// checkLeaf) and every leaf's frame; it is exported to the package tests
// via export_test.go.
func (t *Tree) checkInvariants() error {
	count, ts := 0, t.ties()
	var prevLeaf *node
	// lo and hi, when set, bound the entries below n.
	var walk func(n *node, lo, hi *ent) error
	walk = func(n *node, lo, hi *ent) error {
		if n.leaf() {
			if err := t.checkLeaf(n); err != nil {
				return err
			}
			for i := range int(n.n) {
				e := n.at(i, t.two)
				if i > 0 && cmpEnt(n.at(i-1, t.two), e) > 0 {
					return fmt.Errorf("btree: unordered entries at %d", i)
				}
				if lo != nil && cmpEnt(e, *lo) < 0 {
					return fmt.Errorf("btree: key below lower bound")
				}
				// Equal to the upper bound is a copy of the entry the
				// separator copies (see Insert).
				if hi != nil && cmpEnt(e, *hi) > 0 {
					return fmt.Errorf("btree: leaf key above upper bound")
				}
			}
			count += int(n.n)
			if prevLeaf != nil && prevLeaf.next != n {
				return fmt.Errorf("btree: leaf chain skips or repeats a leaf")
			}
			prevLeaf = n
			return nil
		}
		in := n.in
		if len(in.children) != len(in.keys)+1 || len(in.tie) != len(in.keys)*ts {
			return fmt.Errorf("btree: internal node with %d keys, %d ties, %d children", len(in.keys), len(in.tie), len(in.children))
		}
		if len(in.children) > t.order {
			return fmt.Errorf("btree: node fills %d slots, order %d", len(in.children), t.order)
		}
		if err := cmp.Or(checkArray(in.keys, false), checkArray(in.tie, false), checkArray(in.children, false)); err != nil {
			return err
		}
		for i := range in.keys {
			if sep := in.sep(i, ts); i > 0 && cmpEnt(in.sep(i-1, ts), sep) > 0 {
				return fmt.Errorf("btree: unordered separators at %d", i)
			} else if lo != nil && cmpEnt(sep, *lo) < 0 {
				return fmt.Errorf("btree: separator below lower bound")
			}
		}
		for i, c := range in.children {
			clo, chi := lo, hi
			if i > 0 {
				sep := in.sep(i-1, ts)
				clo = &sep
			}
			if i < len(in.keys) {
				sep := in.sep(i, ts)
				chi = &sep
			}
			if err := walk(c, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, nil, nil); err != nil {
		return err
	}
	if prevLeaf.next != nil {
		return fmt.Errorf("btree: leaf chain runs past the last leaf")
	}
	if t.last != prevLeaf {
		return fmt.Errorf("btree: append pointer does not name the last leaf")
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d entries reachable", t.size, count)
	}
	return nil
}
