// Package btree implements the in-memory B+-tree that serves three roles in
// the reproduction: the conventional complete secondary index (the paper's
// Baseline), the host index Hermit piggybacks on, and the primary index used
// by the logical-pointer tuple-identifier scheme (§5.1).
//
// Keys are float64 column values; values are opaque uint64 tuple identifiers
// (either physical RIDs or logical primary keys). Duplicate column values
// are supported by ordering entries on the composite (key, value) pair,
// which keeps every entry unique and makes splits, scans and exact-entry
// deletes unambiguous even for heavily skewed data.
//
// The default node capacity is 16 entries, i.e. 256 bytes of keys per node,
// matching the 256-byte node size of the paper's DBMS-X B+-tree (§7.1).
package btree

import (
	"fmt"
	"math"
	"sort"
)

// DefaultOrder is the default maximum number of entries per node.
const DefaultOrder = 16

// Tree is a B+-tree mapping float64 keys to uint64 tuple identifiers.
// The zero value is not usable; call New.
//
// Tree is not internally synchronised. The engine layer serialises writers;
// concurrent readers are safe only in the absence of writers.
type Tree struct {
	root  *node
	order int
	size  int
}

type node struct {
	leaf bool
	// keys holds entry keys in a leaf, separator keys in an internal node.
	keys []float64
	// tie holds the value component of the composite ordering: entry values
	// in a leaf, separator value components in an internal node.
	tie      []uint64
	children []*node // internal nodes only
	next     *node   // leaf-level sibling link for range scans
}

// New creates an empty tree with the given node order (maximum entries per
// node). Orders below 4 are raised to 4.
func New(order int) *Tree {
	if order < 4 {
		order = 4
	}
	return &Tree{
		root:  &node{leaf: true},
		order: order,
	}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels, 1 for a tree that is a single leaf.
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// cmpKV orders composite (key, value) pairs.
func cmpKV(k1 float64, v1 uint64, k2 float64, v2 uint64) int {
	switch {
	case k1 < k2:
		return -1
	case k1 > k2:
		return 1
	case v1 < v2:
		return -1
	case v1 > v2:
		return 1
	default:
		return 0
	}
}

// search returns the index of the first entry in n that is >= (k, v).
func (n *node) search(k float64, v uint64) int {
	return sort.Search(len(n.keys), func(i int) bool {
		return cmpKV(n.keys[i], n.tie[i], k, v) >= 0
	})
}

// childIndex returns the child to descend into for composite key (k, v):
// the number of separators <= (k, v). Separator i is the smallest entry of
// children[i+1].
func (n *node) childIndex(k float64, v uint64) int {
	return sort.Search(len(n.keys), func(i int) bool {
		return cmpKV(n.keys[i], n.tie[i], k, v) > 0
	})
}

// Insert adds the entry (key, id). Inserting an entry that already exists
// (same key and id) is permitted and stores a second copy; the engine never
// does this for a well-formed table, and tolerating it keeps the tree free
// of policy.
func (t *Tree) Insert(key float64, id uint64) {
	sep, sepTie, right := t.insert(t.root, key, id)
	if right != nil {
		newRoot := &node{
			keys:     []float64{sep},
			tie:      []uint64{sepTie},
			children: []*node{t.root, right},
		}
		t.root = newRoot
	}
	t.size++
}

// insertAt inserts v at index i of a node array. Node arrays built by
// inserts are allocated once at full (the length at which the node splits)
// and never regrown, so no node is left holding a doubled backing array
// and cap() — what SizeBytes counts — is what the heap holds.
func insertAt[T any](s []T, i int, v T, full int) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, full), s...)
	}
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// splitOff copies s[from:] into a fresh full-capacity array: the right
// sibling's share of a split. The left sibling keeps s's array.
func splitOff[T any](s []T, from, full int) []T {
	return append(make([]T, 0, full), s[from:]...)
}

// insert descends into n; on child split it absorbs the separator, and on
// its own split returns the new right sibling with its separator.
func (t *Tree) insert(n *node, key float64, id uint64) (float64, uint64, *node) {
	full := t.order + 1
	if n.leaf {
		i := n.search(key, id)
		n.keys = insertAt(n.keys, i, key, full)
		n.tie = insertAt(n.tie, i, id, full)
		if len(n.keys) > t.order {
			return t.splitLeaf(n, i)
		}
		return 0, 0, nil
	}
	ci := n.childIndex(key, id)
	sep, sepTie, right := t.insert(n.children[ci], key, id)
	if right == nil {
		return 0, 0, nil
	}
	n.keys = insertAt(n.keys, ci, sep, full)
	n.tie = insertAt(n.tie, ci, sepTie, full)
	n.children = insertAt(n.children, ci+1, right, full+1)
	if len(n.keys) > t.order {
		return t.splitInternal(n)
	}
	return 0, 0, nil
}

// splitLeaf moves the upper half of the overflowing leaf n into a new
// right sibling; i is where the overflowing entry landed. When that was the
// end of the rightmost leaf the split is at i instead, so an ascending
// load leaves full leaves behind rather than half-empty ones.
func (t *Tree) splitLeaf(n *node, i int) (float64, uint64, *node) {
	mid := len(n.keys) / 2
	if n.next == nil && i == len(n.keys)-1 {
		mid = i
	}
	full := t.order + 1
	right := &node{
		leaf: true,
		keys: splitOff(n.keys, mid, full),
		tie:  splitOff(n.tie, mid, full),
		next: n.next,
	}
	n.keys = n.keys[:mid]
	n.tie = n.tie[:mid]
	n.next = right
	return right.keys[0], right.tie[0], right
}

func (t *Tree) splitInternal(n *node) (float64, uint64, *node) {
	mid := len(n.keys) / 2
	sep, sepTie := n.keys[mid], n.tie[mid]
	full := t.order + 1
	right := &node{
		keys:     splitOff(n.keys, mid+1, full),
		tie:      splitOff(n.tie, mid+1, full),
		children: splitOff(n.children, mid+1, full+1),
	}
	n.keys = n.keys[:mid]
	n.tie = n.tie[:mid]
	clear(n.children[mid+1:]) // drop the moved children's references
	n.children = n.children[:mid+1]
	return sep, sepTie, right
}

// Delete removes the entry (key, id) if present and reports whether it was
// found. Underfull nodes are not rebalanced: entries are simply removed,
// which preserves all ordering invariants and matches the lazy-deletion
// strategy common in main-memory B+-trees; the TRS-Tree reorganization
// experiments drive deletes through this path.
func (t *Tree) Delete(key float64, id uint64) bool {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(key, id)]
	}
	i := n.search(key, id)
	if i >= len(n.keys) || cmpKV(n.keys[i], n.tie[i], key, id) != 0 {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.tie = append(n.tie[:i], n.tie[i+1:]...)
	t.size--
	return true
}

// Contains reports whether the exact entry (key, id) is present.
func (t *Tree) Contains(key float64, id uint64) bool {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(key, id)]
	}
	i := n.search(key, id)
	return i < len(n.keys) && cmpKV(n.keys[i], n.tie[i], key, id) == 0
}

// Scan calls fn for every entry with lo <= key <= hi in ascending (key, id)
// order. Scanning stops early if fn returns false.
func (t *Tree) Scan(lo, hi float64, fn func(key float64, id uint64) bool) {
	if lo > hi {
		return
	}
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(lo, 0)]
	}
	i := n.search(lo, 0)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if n.keys[i] > hi {
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

// Lookup calls fn for every entry whose key equals key.
func (t *Tree) Lookup(key float64, fn func(id uint64) bool) {
	t.Scan(key, key, func(_ float64, id uint64) bool { return fn(id) })
}

// First returns the entry whose key equals key with the smallest id. The
// primary index uses this for unique keys.
func (t *Tree) First(key float64) (uint64, bool) {
	var id uint64
	found := false
	t.Lookup(key, func(v uint64) bool {
		id = v
		found = true
		return false
	})
	return id, found
}

// Min returns the smallest key, with ok=false for an empty tree.
func (t *Tree) Min() (float64, bool) {
	n := t.root
	for !n.leaf {
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
	// Rightmost descent can land on an emptied leaf after lazy deletes, so
	// fall back to checking the rightmost non-empty leaf reachable by the
	// sibling chain from the rightmost path.
	n := t.root
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	if len(n.keys) > 0 {
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
	t.root = &node{leaf: true}
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
			leaf: true,
			keys: append([]float64(nil), keys[off:end]...),
			tie:  append([]uint64(nil), ids[off:end]...),
		})
	}
	for i := 0; i+1 < len(leaves); i++ {
		leaves[i].next = leaves[i+1]
	}
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
	for !n.leaf {
		n = n.children[0]
	}
	return n.keys[0], n.tie[0]
}

// SizeBytes estimates the heap footprint of the tree: key, tie and child
// arrays plus per-node overhead. This feeds the paper's memory-consumption
// figures, where the baseline's complete indexes dominate the budget.
func (t *Tree) SizeBytes() uint64 {
	return nodeSize(t.root)
}

func nodeSize(n *node) uint64 {
	// Struct header: flag + 3 slice headers + pointer ≈ 80 bytes.
	s := uint64(80)
	s += uint64(cap(n.keys)) * 8
	s += uint64(cap(n.tie)) * 8
	s += uint64(cap(n.children)) * 8
	for _, c := range n.children {
		s += nodeSize(c)
	}
	return s
}

// checkInvariants walks the tree verifying ordering and structure; it is
// exported to the package tests via export_test.go.
func (t *Tree) checkInvariants() error {
	count := 0
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
			if hasHi && cmpKV(n.keys[i], n.tie[i], hi, hiTie) >= 0 && n.leaf {
				return fmt.Errorf("btree: leaf key above upper bound")
			}
		}
		if n.leaf {
			count += len(n.keys)
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
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d entries reachable", t.size, count)
	}
	return nil
}
