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
// A leaf stores its entries frame-of-reference packed. Entry i is kw+vw
// bytes of one byte array: its key's rank less the leaf's kbase, shifted
// right by the leaf's shift, in kw little-endian bytes, then its id less the
// leaf's vbase, shifted right by its vshift, in vw bytes. The frame (kbase,
// shift, kw, vbase, vshift, vw) is the tightest one that holds the leaf's
// entries when the leaf is encoded (fill): kbase is the rank of its first
// key, shift the trailing zero bits all its key ranks share above kbase,
// vbase its smallest id, vshift the trailing zero bits all its ids share
// above vbase, and the widths the bytes its largest codes need, from 0 to
// 8. Keys that are whole numbers, or anything else on a coarse grid, share
// many low zero bits; the keys of one leaf are near one another and its ids
// usually too. Under logical pointers an id is a primary key's rank, whose
// low 35 bits are zero for every whole key below 2^18, and the id grid
// takes them out as the key grid does; a row id is dense and gets vshift 0.
// An ascending primary key and its row ids pack into one byte each, the
// host index's keys into 5 or 6 and its logical ids into 3. A write the
// frame cannot hold — a key or an id below its base or off its grid, a
// code too wide for its width — re-encodes that one leaf in a frame that
// holds it (refill). Deletes never need to; a delete that shrinks the
// array re-encodes the leaf too, so its frame follows what it holds. The
// array ends in 8 spare bytes, so that every field is read with one
// unaligned 8-byte load and a mask. Searches within a leaf compare codes,
// not keys: a probe is mapped into the leaf's frame once (probe). Internal
// nodes, about one node in a hundred, keep their separators as float64
// keys and uint64 ties beside the child pointers.
//
// Measured on 1M entries at DefaultOrder (TestHeapMatchesSizeBytes, what
// SizeBytes and the heap agree on): ascending inserts hold 2.93 B/entry,
// random inserts 10.18 and a random churn 10.78, against 16.80, 18.10 and
// 19.24 while every entry took 16 bytes; the benchmark's bulk-loaded 1M-row
// column, 6.24 against 17.59. The packed leaf is also the faster one to
// search (medians of five or six alternated runs, one CPU): a random Get on
// 1M ascending keys 178 against 227 ns, 253 against 315 at order 16. A
// 1000-entry Scan is no faster: it decodes every key (a mask, a shift and
// keyorder.Unrank), and when the machine is quiet the 16-byte entries scan
// in 1.9 µs where packed ones take 2.3.
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

	"hermit/internal/keyorder"
)

// DefaultOrder is the node order of every tree the engine builds: the
// maximum number of entries per leaf and of children per internal node (see
// the package comment for why 128).
const DefaultOrder = 128

// Tree is a B+-tree mapping float64 keys to uint64 tuple identifiers.
// The zero value is not usable; call New.
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
}

// node is a leaf when in is nil. Its header is 64 bytes, an allocator size
// class; an internal node adds an inner, 72 bytes in the 80-byte class.
type node struct {
	in   *inner // internal nodes only
	next *node  // leaf-level sibling link for range scans
	// buf holds a leaf's n entries packed (see the package comment), then
	// at least pad spare bytes; len(buf) is its capacity, a size class.
	buf   []byte
	kbase uint64 // the rank key code 0 stands for
	vbase uint64 // the id id code 0 stands for
	n     int32  // entries in a leaf
	// A key code is (rank - kbase) >> shift in kw bytes, an id code
	// (id - vbase) >> vshift in vw bytes. Both shifts are below 64; code
	// that shifts by one masks it with 63 to say so, which spares the
	// compiler's guard for a shift of 64 or more at every entry decoded.
	shift, kw, vshift, vw uint8
}

// inner is what an internal node holds besides its header.
type inner struct {
	// keys and tie are the separators: separator i is the smallest entry of
	// children[i+1], its key and the value component of the composite
	// ordering.
	keys     []float64
	tie      []uint64
	children []*node
}

// pad is the number of bytes a leaf array keeps past its last entry: an
// 8-byte load at the start of any field stays inside the array.
const pad = 8

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

// cmpKV orders composite (key, value) pairs: keys by keyorder's total order,
// then values.
func cmpKV(k1 float64, v1 uint64, k2 float64, v2 uint64) int {
	if c := keyorder.Compare(k1, k2); c != 0 {
		return c
	}
	return cmp.Compare(v1, v2)
}

// The searches below are written out (no sort.Search, no closure): a descent
// runs one per level.

// search returns the index of the first separator >= (k, v).
func (in *inner) search(k float64, v uint64) int {
	keys, tie := in.keys, in.tie[:len(in.keys)]
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keyorder.Less(keys[m], k) || !keyorder.Less(k, keys[m]) && tie[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// childIndex returns the child to descend into for composite key (k, v):
// the number of separators <= (k, v).
func (in *inner) childIndex(k float64, v uint64) int {
	keys, tie := in.keys, in.tie[:len(in.keys)]
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keyorder.Less(keys[m], k) || !keyorder.Less(k, keys[m]) && tie[m] <= v {
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

// mask is the bit mask of a field w bytes wide (all ones at 8: a shift by
// 64 is 0).
func mask(w uint8) uint64 { return 1<<(8*uint(w)) - 1 }

// width is the number of bytes code c needs.
func width(c uint64) uint8 { return uint8((bits.Len64(c) + 7) / 8) }

// gridShift is the shift of a grid whose points differ from its base by
// the bits of g: their common trailing zero bits, 0 when they all equal it.
func gridShift(g uint64) uint8 {
	if g == 0 {
		return 0
	}
	return uint8(bits.TrailingZeros64(g))
}

// onGrid reports whether the offset d lies on a grid of the given shift.
func onGrid(d uint64, shift uint8) bool { return d&(1<<(shift&63)-1) == 0 }

// w is the width of one entry of leaf n in bytes.
func (n *node) w() int { return int(n.kw) + int(n.vw) }

// load reads the 8 bytes of buf at o.
func load(buf []byte, o int) uint64 { return binary.LittleEndian.Uint64(buf[o:]) }

// code returns the key code of entry i of leaf n.
func (n *node) code(i int) uint64 { return load(n.buf, i*n.w()) & mask(n.kw) }

// rank returns the key rank of entry i of leaf n.
func (n *node) rank(i int) uint64 { return n.kbase + n.code(i)<<(n.shift&63) }

// key returns the key of entry i of leaf n.
func (n *node) key(i int) float64 { return keyorder.Unrank(n.rank(i)) }

// id returns the id of entry i of leaf n.
func (n *node) id(i int) uint64 {
	return n.vbase + load(n.buf, i*n.w()+int(n.kw))&mask(n.vw)<<(n.vshift&63)
}

// put writes entry i of leaf n, which must fit n's frame (fits). Each field
// is written by a read-modify-write of 8 bytes, which leaves the bytes past
// it as they were.
func (n *node) put(i int, r, id uint64) {
	o := i * n.w()
	km, vm := mask(n.kw), mask(n.vw)
	binary.LittleEndian.PutUint64(n.buf[o:], load(n.buf, o)&^km|(r-n.kbase)>>(n.shift&63))
	o += int(n.kw)
	binary.LittleEndian.PutUint64(n.buf[o:], load(n.buf, o)&^vm|(id-n.vbase)>>(n.vshift&63))
}

// fits reports whether leaf n's frame holds the entry (r, id).
func (n *node) fits(r, id uint64) bool {
	d := r - n.kbase
	return r >= n.kbase && onGrid(d, n.shift) && d>>(n.shift&63) <= mask(n.kw) && n.fitsID(id)
}

// fitsID reports whether leaf n's frame holds id.
func (n *node) fitsID(id uint64) bool {
	d := id - n.vbase
	return id >= n.vbase && onGrid(d, n.vshift) && d>>(n.vshift&63) <= mask(n.vw)
}

// probe maps the composite key (r, v), r a rank, into leaf n's frame: the
// entries at or above (r, v) are those whose (key code, id code) pair is at
// or above (c, e). An id off the leaf's grid lies strictly between two
// codes, as a rank does (probeKey), so the entries above it are those from
// the next code up.
func (n *node) probe(r, v uint64) (c, e uint64) {
	c, exact := n.probeKey(r)
	if !exact || v < n.vbase {
		return c, 0
	}
	d := v - n.vbase
	if e = d >> (n.vshift & 63); !onGrid(d, n.vshift) {
		e++
	}
	return c, e
}

// probeKey maps rank r into leaf n's frame: the entries whose rank is at
// or above r are those whose key code is at or above c, and exact reports
// whether r is the rank of code c. A rank off the leaf's grid lies
// strictly between two codes, so the entries above it are those from the
// next code up.
func (n *node) probeKey(r uint64) (c uint64, exact bool) {
	if r < n.kbase {
		return 0, false
	}
	d := r - n.kbase
	if c = d >> (n.shift & 63); !onGrid(d, n.shift) {
		return c + 1, false
	}
	return c, true
}

// lower returns the index of the first entry of leaf n whose (key code, id
// code) pair is >= (c, e).
func (n *node) lower(c, e uint64) int {
	buf, w, kw := n.buf, n.w(), int(n.kw)
	km, vm := mask(n.kw), mask(n.vw)
	lo, hi := 0, int(n.n)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x := load(buf, m*w) & km; x < c || x == c && load(buf, m*w+kw)&vm < e {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// search returns the index of the first entry of leaf n that is >= (r, v),
// r a rank.
func (n *node) search(r, v uint64) int { return n.lower(n.probe(r, v)) }

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
	c, _ := n.probeKey(r)
	buf, w, km := n.buf, n.w(), mask(n.kw)
	i := 0
	for size := k; size > 1; size -= size >> 1 {
		_, below := bits.Sub64(load(buf, (i+size>>1)*w)&km, c, 0)
		i += size >> 1 & -int(below)
	}
	if load(buf, i*w)&km < c {
		i++
	}
	return i, i < k && n.rank(i) == r
}

// holds reports whether entry i of leaf n is (r, id).
func (n *node) holds(i int, r, id uint64) bool {
	return i < int(n.n) && n.rank(i) == r && n.id(i) == id
}

// Insert adds the entry (key, id). Inserting an entry that already exists
// (same key and id) stores a second copy, which Delete removes one at a
// time. The engine relies on it: under logical pointers an update that
// leaves the host column as it was inserts the new version's host entry
// while the old version's identical one is still in the tree.
func (t *Tree) Insert(key float64, id uint64) {
	t.growRoot(t.insert(t.root, key, keyorder.Rank(key), id))
	t.size++
}

// growRoot puts a new root over the old one and the sibling its split
// produced, if it split.
func (t *Tree) growRoot(sep float64, sepTie uint64, right *node) {
	if right != nil {
		t.root = &node{in: &inner{
			keys:     []float64{sep},
			tie:      []uint64{sepTie},
			children: []*node{t.root, right},
		}}
	}
}

// classes are the capacities, in 8-byte slots, of the allocator's size
// classes up to 32 KiB, probed from the runtime: append rounds a fresh array
// up to its size class, so appending n slots to nothing reports the capacity
// of the class n falls in.
var classes = func() []int {
	var cs []int
	for n := 1; n <= 4096; n = cs[len(cs)-1] + 1 {
		cs = append(cs, cap(append([]uint64(nil), make([]uint64, n)...)))
	}
	return cs
}()

// fit returns the capacity of the smallest size class that holds n slots
// (n itself past the classes probed).
func fit(n int) int {
	if i, _ := slices.BinarySearch(classes, n); i < len(classes) {
		return classes[i]
	}
	return n
}

// fitBytes is fit for a byte array: every size class is a whole number of
// 8-byte slots.
func fitBytes(b int) int { return 8 * fit((b+7)/8) }

// resize returns s in an array of the smallest size class that holds n
// slots, s's own when it is one.
func resize[T any](s []T, n int) []T {
	if cap(s) == fit(n) {
		return s
	}
	return append(make([]T, 0, fit(n)), s...)
}

// insertAt inserts v at index i of the array of a node that is not full.
// An array that has no spare capacity moves to the next size class, never
// to a doubled or a full node's one, so cap() — what SizeBytes counts — is
// what the heap holds and no more than the node's slots need.
func insertAt[T any](s []T, i int, v T) []T {
	if len(s) == cap(s) {
		s = resize(s, len(s)+1)
	}
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// splitInsert splits the array s of a full node as inserting v at index i
// and then cutting the result at mid would. Each half has the smallest size
// class that holds it — the right one at least room slots — so the left
// half keeps s's array only when that is its class. The slots s no longer
// covers are cleared, so the left node does not keep the right one's
// children reachable.
func splitInsert[T any](s []T, i int, v T, mid, room int) (left, right []T) {
	right = make([]T, 0, fit(max(len(s)+1-mid, room)))
	if i < mid {
		right = append(right, s[mid-1:]...)
		left = insertAt(resize(s[:mid-1], mid), i, v)
	} else {
		right = insertAt(append(right, s[mid:]...), i-mid, v)
		left = resize(s[:mid], mid)
	}
	clear(s[mid:])
	return left, right
}

// removeAt removes index i from a node array. When that leaves a quarter or
// more of the array spare, it moves to the smallest size class that holds
// what remains (see roomy for the hysteresis).
func removeAt[T any](s []T, i int) []T {
	if roomy(len(s)-1, cap(s)) {
		return append(append(make([]T, 0, fit(len(s)-1)), s[:i]...), s[i+1:]...)
	}
	return slices.Delete(s, i, i+1)
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

// decoded is stack room for the entries of a full leaf and one more,
// decoded to ranks and ids: what a leaf is re-encoded from (fill).
type decoded struct {
	ranks, ids [DefaultOrder + 1]uint64
}

// scratch returns empty slices over d's room, or over the heap for a tree
// whose leaves d cannot hold.
func (t *Tree) scratch(d *decoded) (ranks, ids []uint64) {
	if t.order < len(d.ranks) {
		return d.ranks[:0], d.ids[:0]
	}
	return make([]uint64, 0, t.order+1), make([]uint64, 0, t.order+1)
}

// decode appends the entries of leaf n to ranks and ids.
func (n *node) decode(ranks, ids []uint64) ([]uint64, []uint64) {
	for i := range int(n.n) {
		ranks, ids = append(ranks, n.rank(i)), append(ids, n.id(i))
	}
	return ranks, ids
}

// fill encodes the entries (ranks[i], ids[i]), sorted, into leaf n in the
// tightest frame that holds them, in an array of the smallest size class
// that holds room entries of that frame, or all of them if there are more:
// n's own array when it is that class.
func fill(n *node, ranks, ids []uint64, room int) {
	n.n = int32(len(ranks))
	n.kbase, n.vbase, n.shift, n.kw, n.vshift, n.vw = 0, 0, 0, 0, 0, 0
	if len(ranks) > 0 {
		// Every id differs from the smallest in the low bits it differs
		// from the first in, so one pass finds the id grid and range.
		var grid, vgrid, vmax uint64
		n.kbase, n.vbase = ranks[0], ids[0]
		for i, r := range ranks {
			grid |= r - n.kbase
			vgrid |= ids[i] ^ ids[0]
			n.vbase, vmax = min(n.vbase, ids[i]), max(vmax, ids[i])
		}
		n.shift, n.vshift = gridShift(grid), gridShift(vgrid)
		n.kw = width((ranks[len(ranks)-1] - n.kbase) >> n.shift)
		n.vw = width((vmax - n.vbase) >> n.vshift)
	}
	w := n.w()
	if size := fitBytes(max(len(ranks), room)*w + pad); len(n.buf) != size {
		n.buf = make([]byte, size)
	}
	// Front to back, a field's 8-byte store may clear the bytes after it:
	// they belong to fields written later.
	for i, r := range ranks {
		o := i * w
		binary.LittleEndian.PutUint64(n.buf[o:], (r-n.kbase)>>n.shift)
		binary.LittleEndian.PutUint64(n.buf[o+int(n.kw):], (ids[i]-n.vbase)>>n.vshift)
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
// id replaced by id, or, when insert, the entry (r, id) inserted at i.
func (t *Tree) refill(n *node, i int, r, id uint64, insert bool) {
	var d decoded
	ranks, ids := n.decode(t.scratch(&d))
	if insert {
		ranks, ids = slices.Insert(ranks, i, r), slices.Insert(ids, i, id)
	} else {
		ids[i] = id
	}
	fill(n, ranks, ids, t.room(n))
}

// remove removes entry i of leaf n. When that leaves a quarter or more of
// the array spare, the leaf is re-encoded into the smallest size class that
// holds what remains, in a frame fitted to it (see roomy for the
// hysteresis).
func (t *Tree) remove(n *node, i int) {
	w, end := n.w(), int(n.n)*n.w()
	if roomyBytes(end-w+pad, len(n.buf), w) {
		var d decoded
		ranks, ids := n.decode(t.scratch(&d))
		fill(n, slices.Delete(ranks, i, i+1), slices.Delete(ids, i, i+1), 0)
		return
	}
	copy(n.buf[i*w:], n.buf[(i+1)*w:end])
	n.n--
}

// insert descends into n; on child split it absorbs the separator, and on
// its own split returns the new right sibling with its separator. r is
// key's rank.
func (t *Tree) insert(n *node, key float64, r, id uint64) (float64, uint64, *node) {
	if n.leaf() {
		return t.insertLeaf(n, n.search(r, id), r, id)
	}
	ci := n.in.childIndex(key, id)
	sep, sepTie, right := t.insert(n.in.children[ci], key, r, id)
	if right == nil {
		return 0, 0, nil
	}
	return t.absorb(n, ci, sep, sepTie, right)
}

// insertLeaf places (r, id), r a rank, at index i of leaf n. A full leaf
// splits around its middle, counting the new entry, and the entry goes into
// the half it belongs to; each half is re-encoded in a frame of its own.
// The rightmost leaf is where ascending keys append: when the entry goes
// past its end the split is at the end instead and the entry opens the new
// leaf alone, so an ascending load leaves full leaves behind, untouched,
// rather than half-empty ones, and the new rightmost leaf gets a full
// node's array to append into.
func (t *Tree) insertLeaf(n *node, i int, r, id uint64) (float64, uint64, *node) {
	if k := int(n.n); k < t.order {
		if !n.fits(r, id) {
			t.refill(n, i, r, id, true)
			return 0, 0, nil
		}
		w := n.w()
		if need := (k+1)*w + pad; need > len(n.buf) {
			buf := make([]byte, fitBytes(need))
			copy(buf, n.buf[:k*w])
			n.buf = buf
		}
		copy(n.buf[(i+1)*w:], n.buf[i*w:k*w])
		n.n++
		n.put(i, r, id)
		return 0, 0, nil
	}
	right := &node{next: n.next}
	if n.next == nil && i == int(n.n) {
		fill(right, []uint64{r}, []uint64{id}, t.order)
	} else {
		var d decoded
		ranks, ids := n.decode(t.scratch(&d))
		ranks, ids = slices.Insert(ranks, i, r), slices.Insert(ids, i, id)
		mid := t.order - t.order/2
		fill(n, ranks[:mid], ids[:mid], 0)
		fill(right, ranks[mid:], ids[mid:], t.room(right))
	}
	n.next = right
	if t.last == n {
		t.last = right
	}
	return right.key(0), right.id(0), right
}

// absorb adds the separator and right sibling that the split of
// n.in.children[ci] produced. A full n splits around its middle separator,
// counting the new one, and that separator moves up to n's parent.
func (t *Tree) absorb(n *node, ci int, sep float64, sepTie uint64, right *node) (float64, uint64, *node) {
	in := n.in
	if len(in.children) < t.order {
		in.keys = insertAt(in.keys, ci, sep)
		in.tie = insertAt(in.tie, ci, sepTie)
		in.children = insertAt(in.children, ci+1, right)
		return 0, 0, nil
	}
	mid := t.order / 2
	r := &inner{}
	in.keys, r.keys = splitInsert(in.keys, ci, sep, mid, 0)
	in.tie, r.tie = splitInsert(in.tie, ci, sepTie, mid, 0)
	in.children, r.children = splitInsert(in.children, ci+1, right, mid+1, 0)
	up, upTie := r.keys[0], r.tie[0]
	r.keys, r.tie = slices.Delete(r.keys, 0, 1), slices.Delete(r.tie, 0, 1)
	return up, upTie, &node{in: r}
}

// Delete removes the entry (key, id) if present and reports whether it was
// found. A node the removal leaves hollow is merged with a sibling under
// the same parent when the two fit in one node (hollow, mergeable); the
// parent that loses a separator may merge in turn, and a root left with one
// child gives way to it. There is no borrowing: a hollow node whose
// siblings are too full stays as it is. What bounds the tree is the pair
// rule — of two adjacent siblings, one is not hollow or the two do not fit
// in one node — so its size follows the entries it holds, whatever the
// number of inserts and deletes behind them.
func (t *Tree) Delete(key float64, id uint64) bool {
	if !t.delete(t.root, key, keyorder.Rank(key), id) {
		return false
	}
	t.size--
	for !t.root.leaf() && len(t.root.in.children) == 1 {
		t.root = t.root.in.children[0]
	}
	return true
}

// delete removes (key, id) below n, r being key's rank, and merges the
// child it removed it from if that came back hollow.
func (t *Tree) delete(n *node, key float64, r, id uint64) bool {
	if n.leaf() {
		i := n.search(r, id)
		if !n.holds(i, r, id) {
			return false
		}
		t.remove(n, i)
		return true
	}
	in := n.in
	ci := in.childIndex(key, id)
	for !t.delete(in.children[ci], key, r, id) {
		if !in.copiesLeft(ci, key, id) {
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

// copiesLeft reports whether the separator left of children[ci] equals
// (key, id), so that a copy of the entry the descent did not find in that
// child may sit in the one before it: a split parts two copies of one entry
// that way, and the separator copies the right one.
func (in *inner) copiesLeft(ci int, key float64, id uint64) bool {
	return ci > 0 && cmpKV(in.keys[ci-1], in.tie[ci-1], key, id) == 0
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
// child's range to cover the right one's, so no descent — composite or by
// key alone — is routed differently for any entry that remains. Two merged
// leaves are re-encoded in one frame.
func (t *Tree) mergeChildren(p *node, i int) {
	pin := p.in
	l, r := pin.children[i], pin.children[i+1]
	seam := -1
	if l.leaf() {
		var d decoded
		ranks, ids := r.decode(l.decode(t.scratch(&d)))
		l.next = r.next
		fill(l, ranks, ids, t.room(l))
		if t.last == r {
			t.last = l
		}
	} else {
		lin, rin := l.in, r.in
		seam = len(lin.children) - 1
		lin.keys = extend(lin.keys, pin.keys[i:i+1], rin.keys)
		lin.tie = extend(lin.tie, pin.tie[i:i+1], rin.tie)
		lin.children = extend(lin.children, rin.children)
	}
	pin.keys, pin.tie = removeAt(pin.keys, i), removeAt(pin.tie, i)
	pin.children = removeAt(pin.children, i+1)
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

// Contains reports whether the exact entry (key, id) is present.
func (t *Tree) Contains(key float64, id uint64) bool {
	return t.root.contains(key, keyorder.Rank(key), id)
}

// contains is Contains below n, r being key's rank. Like delete, it looks
// left across a separator equal to the entry (copiesLeft).
func (n *node) contains(key float64, r, id uint64) bool {
	if n.leaf() {
		return n.holds(n.search(r, id), r, id)
	}
	in := n.in
	for ci := in.childIndex(key, id); !in.children[ci].contains(key, r, id); ci-- {
		if !in.copiesLeft(ci, key, id) {
			return false
		}
	}
	return true
}

// Scan calls fn for every entry with lo <= key <= hi in ascending (key, id)
// order. Scanning stops early if fn returns false.
func (t *Tree) Scan(lo, hi float64, fn func(key float64, id uint64) bool) {
	if keyorder.Less(hi, lo) {
		return
	}
	top := keyorder.Rank(hi)
	n := t.leafFrom(lo)
	for i := n.search(keyorder.Rank(lo), 0); n != nil; n, i = n.next, 0 {
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
		kbase, shift, vbase, vshift := n.kbase, n.shift&63, n.vbase, n.vshift&63
		last := (top - kbase) >> shift
		buf, w, kw := n.buf, n.w(), int(n.kw)
		km, vm := mask(n.kw), mask(n.vw)
		for ; i < k; i++ {
			c := load(buf, i*w) & km
			if c > last {
				return
			}
			if !fn(keyorder.Unrank(kbase+c<<shift), vbase+load(buf, i*w+kw)&vm<<vshift) {
				return
			}
		}
	}
}

// leafFrom returns the leaf a walk over the entries with key >= k starts
// at: the first of them is in it or in a later leaf. The descent counts only
// the separators below (k, 0), not one equal to it — a copy of that entry
// may sit left of such a separator (see Insert).
func (t *Tree) leafFrom(k float64) *node {
	n := t.root
	for !n.leaf() {
		n = n.in.children[n.in.search(k, 0)]
	}
	return n
}

// Each calls fn for every entry in ascending (key, id) order — NaN keys
// included, which no Scan with ordinary bounds reaches. It stops early if
// fn returns false.
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

// Lookup calls fn for every entry whose key equals key.
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
// A separator is a copy of an entry, tie included, and the composite
// descent of Insert, Delete and Contains compares that tie. Swap therefore
// rewrites the tie of the one separator that carries its key, so that the
// separator never sorts above the entry it stands for and Delete(key, id)
// and Contains(key, id) keep finding what Swap stored. The converse does
// not hold: Insert may place a key left of a stale separator of the same
// key, where Get will not look. A tree read with Get or GetAscending is
// written with Swap, Delete and BulkLoad only.
func (t *Tree) Swap(key float64, id uint64) (old uint64, ok bool) {
	r := keyorder.Rank(key)
	if n := t.last; t.appends(r) && int(n.n) < t.order { // no room to split for
		if k := int(n.n); n.rank(k-1) < r {
			t.insertLeaf(n, k, r, id) // the next key of a sequence: no search
		} else {
			old, ok, _, _, _ = t.swapLeaf(n, r, id)
		}
	} else {
		var sep float64
		var sepTie uint64
		var right *node
		old, ok, sep, sepTie, right = t.swap(t.root, key, r, id)
		t.growRoot(sep, sepTie, right)
	}
	if !ok {
		t.size++
	}
	return old, ok
}

// swap is Swap below n, r being key's rank; like insert it hands a split of
// n to its caller.
func (t *Tree) swap(n *node, key float64, r, id uint64) (old uint64, ok bool, sep float64, sepTie uint64, right *node) {
	if n.leaf() {
		return t.swapLeaf(n, r, id)
	}
	in := n.in
	ci := in.childKey(key)
	if ci > 0 && !keyorder.Less(in.keys[ci-1], key) {
		in.tie[ci-1] = id // the separator that copies this key
	}
	old, ok, sep, sepTie, right = t.swap(in.children[ci], key, r, id)
	if right != nil {
		sep, sepTie, right = t.absorb(n, ci, sep, sepTie, right)
	}
	return old, ok, sep, sepTie, right
}

// swapLeaf is swap in leaf n: it replaces the id of the key of rank r, or
// inserts the entry, splitting a full n (insertLeaf).
func (t *Tree) swapLeaf(n *node, r, id uint64) (old uint64, ok bool, sep float64, sepTie uint64, right *node) {
	i, found := n.find(r)
	if !found {
		sep, sepTie, right = t.insertLeaf(n, i, r, id)
		return 0, false, sep, sepTie, right
	}
	old = n.id(i)
	if n.fitsID(id) {
		n.put(i, r, id)
	} else {
		t.refill(n, i, r, id, false)
	}
	return old, true, 0, 0, nil
}

// BulkLoad replaces the tree contents with the given entries, which must be
// sorted by (key, id). Leaves are packed to ~85% occupancy, mirroring the
// single-thread bulk loading used for the paper's baseline B+-tree (§7.5).
func (t *Tree) BulkLoad(keys []float64, ids []uint64) error {
	if len(keys) != len(ids) {
		return fmt.Errorf("btree: BulkLoad length mismatch: %d keys, %d ids", len(keys), len(ids))
	}
	for i := 1; i < len(keys); i++ {
		if cmpKV(keys[i-1], ids[i-1], keys[i], ids[i]) > 0 {
			return fmt.Errorf("btree: BulkLoad input not sorted at %d", i)
		}
	}
	t.root = &node{}
	t.last = t.root
	t.size = len(keys)
	if len(keys) == 0 {
		return nil
	}
	per := max(t.order*85/100, 1)
	var d decoded
	ranks, _ := t.scratch(&d)
	var leaves []*node
	for off := 0; off < len(keys); off += per {
		end := min(off+per, len(keys))
		ranks = ranks[:0]
		for _, k := range keys[off:end] {
			ranks = append(ranks, keyorder.Rank(k))
		}
		n := &node{}
		fill(n, ranks, ids[off:end], 0)
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
				in.keys = append(in.keys, c.key(0))
				in.tie = append(in.tie, c.id(0))
			}
			parents = append(parents, &node{in: in})
		}
		level = parents
	}
	t.root = level[0]
	return nil
}

// SizeBytes is the heap footprint of the tree: node headers, leaf arrays,
// and the separator and child arrays of internal nodes. This feeds the
// paper's memory-consumption figures, where the baseline's complete indexes
// dominate the budget. Every array's capacity and every header are
// allocator size classes (see the package comment), so the count is what
// the heap holds, but for one rounding: the allocator puts an 8-byte header
// in front of an array of pointers over 512 bytes, which moves a child array
// of more than 64 slots one class up. Internal nodes are about one node in
// a hundred.
func (t *Tree) SizeBytes() uint64 {
	return nodeSize(t.root)
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
// (checkArray's rule, in bytes) that holds the entries and pad, its frame's
// fields are in range, and — unless n is the rightmost leaf — it holds no
// room a delete would have given back.
func (t *Tree) checkLeaf(n *node) error {
	used := int(n.n)*n.w() + pad
	switch {
	case n.kw > 8 || n.vw > 8 || n.shift > 63 || n.vshift > 63:
		return fmt.Errorf("btree: leaf frame has widths %d+%d, shifts %d and %d", n.kw, n.vw, n.shift, n.vshift)
	case int(n.n) > t.order:
		return fmt.Errorf("btree: leaf holds %d entries, order %d", n.n, t.order)
	case n.buf == nil && n.n == 0:
		return nil
	case cap(n.buf) != len(n.buf) || fitBytes(len(n.buf)) != len(n.buf):
		return fmt.Errorf("btree: leaf array of %d bytes, capacity %d, is no size class", len(n.buf), cap(n.buf))
	case used > len(n.buf):
		return fmt.Errorf("btree: leaf array of %d bytes holds %d", len(n.buf), used)
	case n.next != nil && roomyBytes(used, len(n.buf), n.w()):
		return fmt.Errorf("btree: leaf array of %d bytes holds %d", len(n.buf), used)
	}
	return nil
}

// checkInvariants walks the tree verifying ordering and structure — the
// leaf chain included, which must thread the leaves in the order the
// descent reaches them — every node array's capacity (checkArray,
// checkLeaf) and every leaf's frame; it is exported to the package tests
// via export_test.go.
func (t *Tree) checkInvariants() error {
	count := 0
	var prevLeaf *node
	var walk func(n *node, lo float64, loTie uint64, hasLo bool, hi float64, hiTie uint64, hasHi bool) error
	walk = func(n *node, lo float64, loTie uint64, hasLo bool, hi float64, hiTie uint64, hasHi bool) error {
		if n.leaf() {
			if err := t.checkLeaf(n); err != nil {
				return err
			}
			for i := range int(n.n) {
				k, v := n.key(i), n.id(i)
				if i > 0 && cmpKV(n.key(i-1), n.id(i-1), k, v) > 0 {
					return fmt.Errorf("btree: unordered entries at %d", i)
				}
				if hasLo && cmpKV(k, v, lo, loTie) < 0 {
					return fmt.Errorf("btree: key below lower bound")
				}
				// Equal to the upper bound is a copy of the entry the
				// separator copies (see Insert).
				if hasHi && cmpKV(k, v, hi, hiTie) > 0 {
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
		for i := 1; i < len(in.keys); i++ {
			if cmpKV(in.keys[i-1], in.tie[i-1], in.keys[i], in.tie[i]) > 0 {
				return fmt.Errorf("btree: unordered separators at %d", i)
			}
		}
		for i := range in.keys {
			if hasLo && cmpKV(in.keys[i], in.tie[i], lo, loTie) < 0 {
				return fmt.Errorf("btree: separator below lower bound")
			}
		}
		if len(in.children) > t.order {
			return fmt.Errorf("btree: node fills %d slots, order %d", len(in.children), t.order)
		}
		if err := cmp.Or(checkArray(in.keys, false), checkArray(in.tie, false), checkArray(in.children, false)); err != nil {
			return err
		}
		if len(in.children) != len(in.keys)+1 || len(in.tie) != len(in.keys) {
			return fmt.Errorf("btree: internal node with %d keys, %d ties, %d children", len(in.keys), len(in.tie), len(in.children))
		}
		for i, c := range in.children {
			clo, cloTie, chasLo := lo, loTie, hasLo
			chi, chiTie, chasHi := hi, hiTie, hasHi
			if i > 0 {
				clo, cloTie, chasLo = in.keys[i-1], in.tie[i-1], true
			}
			if i < len(in.keys) {
				chi, chiTie, chasHi = in.keys[i], in.tie[i], true
			}
			if err := walk(c, clo, cloTie, chasLo, chi, chiTie, chasHi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0, 0, false, 0, 0, false); err != nil {
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
