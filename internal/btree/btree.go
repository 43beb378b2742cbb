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
// +Inf). A Scan with non-NaN bounds therefore never yields a NaN key.
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
// Every tree the engine builds — primary, host, baseline and composite — runs
// at DefaultOrder, 128 entries per node. The paper's DBMS-X B+-tree has
// 256-byte nodes (§7.1), 16 entries of this size, and the secondary indexes
// here once ran at 16 to match. A node of this package is not that node: it
// is an 80-byte struct of slice headers in front of two separately allocated
// arrays, so at 16 entries a bulk-loaded leaf (13
// entries) spends more on headers and allocator rounding than on keys, and a
// descent is bound by the cache misses of its levels, not by the search inside
// a node. Measured on 1M 16-byte entries (BenchmarkGetRandom1M and the
// order=16/order=128 sub-benchmarks, medians of five alternated runs): 26.0
// against 17.6 B/entry as bulk-loaded, a random Get 835 against 404 ns (64
// entries: 460 ns), and the wider node is also the faster one on trees that
// fit the caches (20k keys: 124 against 163 ns). At 128 a 1M-key tree is three
// levels whose inner two stay cached, so a lookup misses in one leaf. The
// baseline the paper's memory ratio is quoted against is therefore the leaner
// tree: an honest baseline is part of the reproduction. A figure that wants
// the paper's node passes 16 to New.
//
// A node holds at most order slots — entries in a leaf, children (and one
// separator fewer) in an internal node — and a full node splits before it
// takes one more. Each node array has the smallest allocator size class that
// holds its slots, not a full node's: an insert into a full array moves it
// to the next class, each half of a split and the node a merge leaves gets
// the class of what it holds, and a delete that leaves a quarter of the
// array spare moves it to the class of what remains (removeAt). A split
// leaves two half-empty nodes and deletes drain nodes, so arrays of the full
// order held about a quarter of an insert-built tree's bytes empty (1M
// random inserts: 24.5 against 18.1 B/entry). The one exception is
// the right edge: a new rightmost leaf is given a full node's array, because
// ascending keys — every primary index — append there and would otherwise
// regrow it class by class. An array's capacity is therefore a size class
// and the node header is 80 bytes, exactly another, so SizeBytes counts what
// the heap holds (see SizeBytes for the one rounding it leaves out).
package btree

import (
	"cmp"
	"fmt"
	"math"
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

// node is a leaf when it has no children. Its header is 80 bytes, an
// allocator size class.
type node struct {
	// keys holds entry keys in a leaf, separator keys in an internal node.
	keys []float64
	// tie holds the value component of the composite ordering: entry values
	// in a leaf, separator value components in an internal node.
	tie      []uint64
	children []*node // internal nodes only
	next     *node   // leaf-level sibling link for range scans
}

func (n *node) leaf() bool { return len(n.children) == 0 }

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
	for n := t.root; !n.leaf(); n = n.children[0] {
		h++
	}
	return h
}

// cmpKV orders composite (key, value) pairs: keys by keyorder's total order,
// then values.
func cmpKV(k1 float64, v1 uint64, k2 float64, v2 uint64) int {
	switch c := keyorder.Compare(k1, k2); {
	case c != 0:
		return c
	case v1 < v2:
		return -1
	case v1 > v2:
		return 1
	default:
		return 0
	}
}

// The searches below are written out (no sort.Search, no closure): a descent
// runs one per level.

// search returns the index of the first entry in n that is >= (k, v).
func (n *node) search(k float64, v uint64) int {
	keys, tie := n.keys, n.tie[:len(n.keys)]
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
// the number of separators <= (k, v). Separator i is the smallest entry of
// children[i+1].
func (n *node) childIndex(k float64, v uint64) int {
	keys, tie := n.keys, n.tie[:len(n.keys)]
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
func (n *node) childKey(k float64) int {
	keys := n.keys
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

// lineKeys is the number of keys in a cache line.
const lineKeys = 8

// searchKey returns the index of the first entry in leaf n whose key is
// >= k. A leaf is where a descent into a large tree misses the caches, and
// a binary search over a wide leaf takes its misses one after the other:
// every probe waits for the line before it. This search reads the last key
// of each line front to back instead — addresses the processor can request
// together — and then scans the one line that holds the answer. On a
// random Get over 1M keys it beats the binary search at every node width
// above 32 (128 keys per leaf: 364 ns against 388 ns, medians of nine
// interleaved rounds), and it is no slower on a tree that fits the caches.
func (n *node) searchKey(k float64) int {
	keys := n.keys
	i := 0
	for i+lineKeys <= len(keys) && keyorder.Less(keys[i+lineKeys-1], k) {
		i += lineKeys
	}
	for i < len(keys) && keyorder.Less(keys[i], k) {
		i++
	}
	return i
}

// Insert adds the entry (key, id). Inserting an entry that already exists
// (same key and id) stores a second copy, which Delete removes one at a
// time. The engine relies on it: under logical pointers an update that
// leaves the host column as it was inserts the new version's host entry
// while the old version's identical one is still in the tree.
func (t *Tree) Insert(key float64, id uint64) {
	t.growRoot(t.insert(t.root, key, id))
	t.size++
}

// growRoot puts a new root over the old one and the sibling its split
// produced, if it split.
func (t *Tree) growRoot(sep float64, sepTie uint64, right *node) {
	if right != nil {
		t.root = &node{
			keys:     []float64{sep},
			tie:      []uint64{sepTie},
			children: []*node{t.root, right},
		}
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
// class that holds it — the right one at least room slots, which is how a
// new rightmost leaf gets a full node's — so the left half keeps s's array
// only when that is its class. The slots s no longer covers are cleared, so
// the left node does not keep the right one's children reachable.
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

// insert descends into n; on child split it absorbs the separator, and on
// its own split returns the new right sibling with its separator.
func (t *Tree) insert(n *node, key float64, id uint64) (float64, uint64, *node) {
	if n.leaf() {
		return t.insertLeaf(n, n.search(key, id), key, id)
	}
	ci := n.childIndex(key, id)
	sep, sepTie, right := t.insert(n.children[ci], key, id)
	if right == nil {
		return 0, 0, nil
	}
	return t.absorb(n, ci, sep, sepTie, right)
}

// insertLeaf places (key, id) at index i of leaf n. A full leaf splits
// around its middle, counting the new entry, and the entry goes into the
// half it belongs to. The rightmost leaf is where ascending keys append:
// when the entry goes past its end the split is at the end instead and the
// entry opens the new leaf alone, so an ascending load leaves full leaves
// behind rather than half-empty ones, and the new rightmost leaf gets a full
// node's array to append into.
func (t *Tree) insertLeaf(n *node, i int, key float64, id uint64) (float64, uint64, *node) {
	if len(n.keys) < t.order {
		n.keys = insertAt(n.keys, i, key)
		n.tie = insertAt(n.tie, i, id)
		return 0, 0, nil
	}
	mid, room := t.order-t.order/2, 0
	if n.next == nil {
		room = t.order
		if i == len(n.keys) {
			mid = i
		}
	}
	right := &node{next: n.next}
	n.keys, right.keys = splitInsert(n.keys, i, key, mid, room)
	n.tie, right.tie = splitInsert(n.tie, i, id, mid, room)
	n.next = right
	if t.last == n {
		t.last = right
	}
	return right.keys[0], right.tie[0], right
}

// absorb adds the separator and right sibling that the split of
// n.children[ci] produced. A full n splits around its middle separator,
// counting the new one, and that separator moves up to n's parent.
func (t *Tree) absorb(n *node, ci int, sep float64, sepTie uint64, right *node) (float64, uint64, *node) {
	if len(n.children) < t.order {
		n.keys = insertAt(n.keys, ci, sep)
		n.tie = insertAt(n.tie, ci, sepTie)
		n.children = insertAt(n.children, ci+1, right)
		return 0, 0, nil
	}
	mid := t.order / 2
	r := &node{}
	n.keys, r.keys = splitInsert(n.keys, ci, sep, mid, 0)
	n.tie, r.tie = splitInsert(n.tie, ci, sepTie, mid, 0)
	n.children, r.children = splitInsert(n.children, ci+1, right, mid+1, 0)
	up, upTie := r.keys[0], r.tie[0]
	r.keys, r.tie = slices.Delete(r.keys, 0, 1), slices.Delete(r.tie, 0, 1)
	return up, upTie, r
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
	if !t.delete(t.root, key, id) {
		return false
	}
	t.size--
	for len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	return true
}

// delete removes (key, id) below n and merges the child it removed it from
// if that came back hollow.
func (t *Tree) delete(n *node, key float64, id uint64) bool {
	if n.leaf() {
		i := n.search(key, id)
		if i >= len(n.keys) || cmpKV(n.keys[i], n.tie[i], key, id) != 0 {
			return false
		}
		n.keys, n.tie = removeAt(n.keys, i), removeAt(n.tie, i)
		return true
	}
	ci := n.childIndex(key, id)
	for !t.delete(n.children[ci], key, id) {
		if !n.copiesLeft(ci, key, id) {
			return false
		}
		ci--
	}
	if t.hollow(n.children[ci]) {
		switch {
		case ci > 0 && t.mergeable(n.children[ci-1], n.children[ci]):
			t.mergeChildren(n, ci-1)
		case ci+1 < len(n.children) && t.mergeable(n.children[ci], n.children[ci+1]):
			t.mergeChildren(n, ci)
		}
	}
	return true
}

// copiesLeft reports whether the separator left of n.children[ci] equals
// (key, id), so that a copy of the entry the descent did not find in that
// child may sit in the one before it: a split parts two copies of one entry
// that way, and the separator copies the right one.
func (n *node) copiesLeft(ci int, key float64, id uint64) bool {
	return ci > 0 && cmpKV(n.keys[ci-1], n.tie[ci-1], key, id) == 0
}

// slots is what a node's capacity, the order, counts: entries in a leaf,
// children in an internal node.
func (n *node) slots() int {
	if n.leaf() {
		return len(n.keys)
	}
	return len(n.children)
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

// mergeChildren moves p.children[i+1] into p.children[i] and removes the
// separator between them from p. Dropping a separator widens the left
// child's range to cover the right one's, so no descent — composite or by
// key alone — is routed differently for any entry that remains.
func (t *Tree) mergeChildren(p *node, i int) {
	l, r := p.children[i], p.children[i+1]
	seam := len(l.children) - 1
	if l.leaf() {
		l.next = r.next
		l.keys, l.tie = extend(l.keys, r.keys), extend(l.tie, r.tie)
		if t.last == r {
			t.last = l
		}
	} else {
		l.keys = extend(l.keys, p.keys[i:i+1], r.keys)
		l.tie = extend(l.tie, p.tie[i:i+1], r.tie)
		l.children = extend(l.children, r.children)
	}
	p.keys, p.tie = removeAt(p.keys, i), removeAt(p.tie, i)
	p.children = removeAt(p.children, i+1)
	// Two internal nodes bring their edge children together as siblings,
	// and no delete may come this way again — a queue drained from one end
	// can join two empty leaves here, one more with each parent it drains —
	// so the pair is held to the rule now.
	if !l.leaf() {
		if a, b := l.children[seam], l.children[seam+1]; (t.hollow(a) || t.hollow(b)) && t.mergeable(a, b) {
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
func (t *Tree) Contains(key float64, id uint64) bool { return t.root.contains(key, id) }

// contains is Contains below n. Like delete, it looks left across a
// separator equal to the entry (copiesLeft).
func (n *node) contains(key float64, id uint64) bool {
	if n.leaf() {
		i := n.search(key, id)
		return i < len(n.keys) && cmpKV(n.keys[i], n.tie[i], key, id) == 0
	}
	for ci := n.childIndex(key, id); !n.children[ci].contains(key, id); ci-- {
		if !n.copiesLeft(ci, key, id) {
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
	n := t.leafFrom(lo)
	i := n.search(lo, 0)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if keyorder.Less(hi, n.keys[i]) {
				return
			}
			if !fn(n.keys[i], n.tie[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// leafFrom returns the leaf a walk over the entries with key >= k starts
// at: the first of them is in it or in a later leaf. The descent counts only
// the separators below (k, 0), not one equal to it — a copy of that entry
// may sit left of such a separator (see Insert).
func (t *Tree) leafFrom(k float64) *node {
	n := t.root
	for !n.leaf() {
		n = n.children[n.search(k, 0)]
	}
	return n
}

// Each calls fn for every entry in ascending (key, id) order — NaN keys
// included, which no Scan with ordinary bounds reaches. It stops early if
// fn returns false.
func (t *Tree) Each(fn func(key float64, id uint64) bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	for ; n != nil; n = n.next {
		for i, k := range n.keys {
			if !fn(k, n.tie[i]) {
				return
			}
		}
	}
}

// Lookup calls fn for every entry whose key equals key.
func (t *Tree) Lookup(key float64, fn func(id uint64) bool) {
	t.Scan(key, key, func(_ float64, id uint64) bool { return fn(id) })
}

// First returns the entry whose key equals key with the smallest id. It is
// correct on any tree; a tree maintained through Swap has the cheaper Get.
func (t *Tree) First(key float64) (uint64, bool) {
	n := t.leafFrom(key)
	// The entry may open a later leaf: the descent stays left of every
	// separator of this key, and deletes can leave empty leaves behind.
	for i := n.search(key, 0); n != nil; n, i = n.next, 0 {
		if i < len(n.keys) {
			return n.tie[i], keyorder.Compare(n.keys[i], key) == 0
		}
	}
	return 0, false
}

// Get returns the id stored under key in a unique-key tree (see Swap): one
// descent by key alone, or none for a key past the rightmost leaf's first
// (appends).
func (t *Tree) Get(key float64) (uint64, bool) {
	if t.appends(key) {
		return t.last.get(key)
	}
	n := t.root
	for !n.leaf() {
		n = n.children[n.childKey(key)]
	}
	return n.get(key)
}

// appends reports whether key is strictly above the first key of the
// rightmost leaf, so that the descent by key alone ends there and passes no
// separator equal to key (see the package comment).
func (t *Tree) appends(key float64) bool {
	n := t.last
	return len(n.keys) > 0 && keyorder.Less(n.keys[0], key)
}

// get looks key up in leaf n.
func (n *node) get(key float64) (uint64, bool) {
	if i := n.searchKey(key); i < len(n.keys) && !keyorder.Less(key, n.keys[i]) {
		return n.tie[i], true
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
	n := f.leaf
	if n == nil || !n.reaches(key) {
		// Past this leaf's last key. The leaf after it holds the key if it
		// reaches it: a key in the gap between the two is in neither.
		if n != nil && n.next != nil && n.next.reaches(key) {
			n = n.next
		} else {
			for n = t.root; !n.leaf(); {
				n = n.children[n.childKey(key)]
			}
		}
		f.leaf = n
	}
	return n.get(key)
}

// reaches reports whether leaf n's last key is >= key.
func (n *node) reaches(key float64) bool {
	return len(n.keys) > 0 && !keyorder.Less(n.keys[len(n.keys)-1], key)
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
	if n := t.last; t.appends(key) && len(n.keys) < t.order {
		old, ok, _, _, _ = t.swapLeaf(n, key, id) // no room to split for
	} else {
		var sep float64
		var sepTie uint64
		var right *node
		old, ok, sep, sepTie, right = t.swap(t.root, key, id)
		t.growRoot(sep, sepTie, right)
	}
	if !ok {
		t.size++
	}
	return old, ok
}

// swap is Swap below n; like insert it hands a split of n to its caller.
func (t *Tree) swap(n *node, key float64, id uint64) (old uint64, ok bool, sep float64, sepTie uint64, right *node) {
	if n.leaf() {
		return t.swapLeaf(n, key, id)
	}
	ci := n.childKey(key)
	if ci > 0 && !keyorder.Less(n.keys[ci-1], key) {
		n.tie[ci-1] = id // the separator that copies this key
	}
	old, ok, sep, sepTie, right = t.swap(n.children[ci], key, id)
	if right != nil {
		sep, sepTie, right = t.absorb(n, ci, sep, sepTie, right)
	}
	return old, ok, sep, sepTie, right
}

// swapLeaf is swap in leaf n: it replaces key's id, or inserts the entry,
// splitting a full n (insertLeaf).
func (t *Tree) swapLeaf(n *node, key float64, id uint64) (old uint64, ok bool, sep float64, sepTie uint64, right *node) {
	i := n.searchKey(key)
	if i < len(n.keys) && !keyorder.Less(key, n.keys[i]) {
		old, n.tie[i] = n.tie[i], id
		return old, true, 0, 0, nil
	}
	sep, sepTie, right = t.insertLeaf(n, i, key, id)
	return 0, false, sep, sepTie, right
}

// Min returns the smallest key, with ok=false for an empty tree.
func (t *Tree) Min() (float64, bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	for n != nil {
		if len(n.keys) > 0 {
			return n.keys[0], true
		}
		n = n.next
	}
	return 0, false
}

// Max returns the largest key, with ok=false for an empty tree.
func (t *Tree) Max() (float64, bool) {
	if t.size == 0 {
		return 0, false
	}
	best := math.Inf(-1)
	found := false
	// The rightmost leaf can be empty after deletes, so fall back to
	// checking the rightmost non-empty leaf.
	if n := t.last; len(n.keys) > 0 {
		return n.keys[len(n.keys)-1], true
	}
	// Rare path: scan everything.
	t.Scan(math.Inf(-1), math.Inf(1), func(k float64, _ uint64) bool {
		best = k
		found = true
		return true
	})
	return best, found
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
	per := t.order * 85 / 100
	if per < 1 {
		per = 1
	}
	var leaves []*node
	for off := 0; off < len(keys); off += per {
		end := off + per
		if end > len(keys) {
			end = len(keys)
		}
		leaves = append(leaves, &node{
			keys: append([]float64(nil), keys[off:end]...),
			tie:  append([]uint64(nil), ids[off:end]...),
		})
	}
	for i := 0; i+1 < len(leaves); i++ {
		leaves[i].next = leaves[i+1]
	}
	t.last = leaves[len(leaves)-1]
	level := leaves
	for len(level) > 1 {
		var parents []*node
		for off := 0; off < len(level); off += per + 1 {
			end := off + per + 1
			if end > len(level) {
				end = len(level)
			}
			p := &node{children: append([]*node(nil), level[off:end]...)}
			for _, c := range p.children[1:] {
				k, tie := minEntry(c)
				p.keys = append(p.keys, k)
				p.tie = append(p.tie, tie)
			}
			parents = append(parents, p)
		}
		level = parents
	}
	t.root = level[0]
	return nil
}

func minEntry(n *node) (float64, uint64) {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.keys[0], n.tie[0]
}

// SizeBytes is the heap footprint of the tree: key, tie and child arrays
// plus the node headers. This feeds the paper's memory-consumption figures,
// where the baseline's complete indexes dominate the budget. Every array's
// capacity and the header are allocator size classes (see the package
// comment), so the count is what the heap holds, but for one rounding: the
// allocator puts an 8-byte header in front of an array of pointers over
// 512 bytes, which moves a child array of more than 64 slots one class up.
// Internal nodes are about one node in a hundred.
func (t *Tree) SizeBytes() uint64 {
	return nodeSize(t.root)
}

func nodeSize(n *node) uint64 {
	// Header: three slice headers and the leaf link, 80 bytes.
	s := uint64(80)
	s += uint64(cap(n.keys)) * 8
	s += uint64(cap(n.tie)) * 8
	s += uint64(cap(n.children)) * 8
	for _, c := range n.children {
		s += nodeSize(c)
	}
	return s
}

// checkArray checks a node array against the size-class rule: its capacity
// is a size class, and an array in a leaf that is not the rightmost one
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

// checkInvariants walks the tree verifying ordering and structure — the
// leaf chain included, which must thread the leaves in the order the
// descent reaches them — and every node array's capacity (checkArray); it
// is exported to the package tests via export_test.go.
func (t *Tree) checkInvariants() error {
	count := 0
	var prevLeaf *node
	var walk func(n *node, lo float64, loTie uint64, hasLo bool, hi float64, hiTie uint64, hasHi bool) error
	walk = func(n *node, lo float64, loTie uint64, hasLo bool, hi float64, hiTie uint64, hasHi bool) error {
		for i := 1; i < len(n.keys); i++ {
			if cmpKV(n.keys[i-1], n.tie[i-1], n.keys[i], n.tie[i]) > 0 {
				return fmt.Errorf("btree: unordered keys at %d", i)
			}
		}
		for i := range n.keys {
			if hasLo && cmpKV(n.keys[i], n.tie[i], lo, loTie) < 0 {
				return fmt.Errorf("btree: key below lower bound")
			}
			// Equal to the upper bound is a copy of the entry the
			// separator copies (see Insert).
			if hasHi && cmpKV(n.keys[i], n.tie[i], hi, hiTie) > 0 && n.leaf() {
				return fmt.Errorf("btree: leaf key above upper bound")
			}
		}
		if n.slots() > t.order {
			return fmt.Errorf("btree: node fills %d slots, order %d", n.slots(), t.order)
		}
		inside := n.leaf() && n.next != nil
		if err := cmp.Or(checkArray(n.keys, inside), checkArray(n.tie, inside), checkArray(n.children, inside)); err != nil {
			return err
		}
		if n.leaf() {
			count += len(n.keys)
			if prevLeaf != nil && prevLeaf.next != n {
				return fmt.Errorf("btree: leaf chain skips or repeats a leaf")
			}
			prevLeaf = n
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: internal node with %d keys, %d children", len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			clo, cloTie, chasLo := lo, loTie, hasLo
			chi, chiTie, chasHi := hi, hiTie, hasHi
			if i > 0 {
				clo, cloTie, chasLo = n.keys[i-1], n.tie[i-1], true
			}
			if i < len(n.keys) {
				chi, chiTie, chasHi = n.keys[i], n.tie[i], true
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
