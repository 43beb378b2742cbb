package btree

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"hermit/internal/keyorder"
)

// CompositeTree is a B+-tree over two-column composite keys (a, b), the
// index shape the paper's running example uses for (TIME, DJ) (§3). Entries
// are ordered lexicographically by (a, b, id); range scans constrain both
// key components, with the leading component driving navigation and the
// second filtered during the scan — the standard composite-index plan.
type CompositeTree struct {
	root  *cnode
	order int
	size  int
}

// cnode is a leaf when it has no children. Its header is 104 bytes, which
// the allocator rounds up to its 112-byte size class.
type cnode struct {
	a        []float64
	b        []float64
	tie      []uint64
	children []*cnode
	next     *cnode
}

func (n *cnode) leaf() bool { return len(n.children) == 0 }

// NewComposite creates an empty composite tree with the given node order.
func NewComposite(order int) *CompositeTree {
	if order < 4 {
		order = 4
	}
	return &CompositeTree{root: &cnode{}, order: order}
}

// Len returns the number of entries.
func (t *CompositeTree) Len() int { return t.size }

// cmp3 orders entries by (a, b, id) under keyorder.Compare — the order
// keyorder.SortTriples bulk-loads in, so inserts, deletes and scans find
// every entry where BulkLoad put it, NaN and ±0 keys included.
func cmp3(a1, b1 float64, v1 uint64, a2, b2 float64, v2 uint64) int {
	if c := keyorder.Compare(a1, a2); c != 0 {
		return c
	}
	if c := keyorder.Compare(b1, b2); c != 0 {
		return c
	}
	return cmp.Compare(v1, v2)
}

func (n *cnode) search(a, b float64, v uint64) int {
	return sort.Search(len(n.a), func(i int) bool {
		return cmp3(n.a[i], n.b[i], n.tie[i], a, b, v) >= 0
	})
}

func (n *cnode) childIndex(a, b float64, v uint64) int {
	return sort.Search(len(n.a), func(i int) bool {
		return cmp3(n.a[i], n.b[i], n.tie[i], a, b, v) > 0
	})
}

// Insert adds the entry ((a, b), id). Like Tree.Insert, a second copy of an
// entry is stored as a second entry.
func (t *CompositeTree) Insert(a, b float64, id uint64) {
	sa, sb, sTie, right := t.insert(t.root, a, b, id)
	if right != nil {
		t.root = &cnode{
			a:        []float64{sa},
			b:        []float64{sb},
			tie:      []uint64{sTie},
			children: []*cnode{t.root, right},
		}
	}
	t.size++
}

// insert is Tree.insert's counterpart: a node holds at most order slots
// (entries in a leaf, children in an internal node), and a full one splits
// around its middle, counting the new slot, before it takes it. Its arrays
// follow Tree's size-class rule, right edge included.
func (t *CompositeTree) insert(n *cnode, a, b float64, id uint64) (float64, float64, uint64, *cnode) {
	if n.leaf() {
		i := n.search(a, b, id)
		if len(n.a) < t.order {
			n.a = insertAt(n.a, i, a)
			n.b = insertAt(n.b, i, b)
			n.tie = insertAt(n.tie, i, id)
			return 0, 0, 0, nil
		}
		mid, room := t.order-t.order/2, 0
		if n.next == nil {
			room = t.order
		}
		right := &cnode{next: n.next}
		n.a, right.a = splitInsert(n.a, i, a, mid, room)
		n.b, right.b = splitInsert(n.b, i, b, mid, room)
		n.tie, right.tie = splitInsert(n.tie, i, id, mid, room)
		n.next = right
		return right.a[0], right.b[0], right.tie[0], right
	}
	ci := n.childIndex(a, b, id)
	sa, sb, sTie, right := t.insert(n.children[ci], a, b, id)
	if right == nil {
		return 0, 0, 0, nil
	}
	if len(n.children) < t.order {
		n.a = insertAt(n.a, ci, sa)
		n.b = insertAt(n.b, ci, sb)
		n.tie = insertAt(n.tie, ci, sTie)
		n.children = insertAt(n.children, ci+1, right)
		return 0, 0, 0, nil
	}
	mid := t.order / 2
	r := &cnode{}
	n.a, r.a = splitInsert(n.a, ci, sa, mid, 0)
	n.b, r.b = splitInsert(n.b, ci, sb, mid, 0)
	n.tie, r.tie = splitInsert(n.tie, ci, sTie, mid, 0)
	n.children, r.children = splitInsert(n.children, ci+1, right, mid+1, 0)
	ua, ub, uTie := r.a[0], r.b[0], r.tie[0]
	r.a, r.b, r.tie = slices.Delete(r.a, 0, 1), slices.Delete(r.b, 0, 1), slices.Delete(r.tie, 0, 1)
	return ua, ub, uTie, r
}

// Delete removes the entry ((a, b), id), reporting whether it was found.
// Like Tree.Delete it looks left across a separator equal to the entry, where
// a split may have put a second copy of it. Unlike Tree.Delete, it leaves
// underfull nodes as they are; their arrays shrink like Tree's (removeAt).
func (t *CompositeTree) Delete(a, b float64, id uint64) bool {
	if !t.root.delete(a, b, id) {
		return false
	}
	t.size--
	return true
}

func (n *cnode) delete(a, b float64, id uint64) bool {
	if n.leaf() {
		i := n.search(a, b, id)
		if i >= len(n.a) || cmp3(n.a[i], n.b[i], n.tie[i], a, b, id) != 0 {
			return false
		}
		n.a, n.b, n.tie = removeAt(n.a, i), removeAt(n.b, i), removeAt(n.tie, i)
		return true
	}
	for ci := n.childIndex(a, b, id); !n.children[ci].delete(a, b, id); ci-- {
		if ci == 0 || cmp3(n.a[ci-1], n.b[ci-1], n.tie[ci-1], a, b, id) != 0 {
			return false
		}
	}
	return true
}

// Scan calls fn for every entry with aLo <= a <= aHi and bLo <= b <= bHi in
// ascending (a, b, id) order, the bounds taken in keyorder's total order: a
// Scan with non-NaN bounds never yields a NaN in either column. Navigation
// seeks the leading component; the second component is filtered during the
// leaf walk.
func (t *CompositeTree) Scan(aLo, aHi, bLo, bHi float64, fn func(a, b float64, id uint64) bool) {
	if keyorder.Less(aHi, aLo) || keyorder.Less(bHi, bLo) {
		return
	}
	n := t.root
	for !n.leaf() {
		// Left of a separator equal to (aLo, bLo, 0), like Tree.leafFrom.
		n = n.children[n.search(aLo, bLo, 0)]
	}
	i := n.search(aLo, bLo, 0)
	for n != nil {
		for ; i < len(n.a); i++ {
			if keyorder.Less(aHi, n.a[i]) {
				return
			}
			if keyorder.Less(n.b[i], bLo) || keyorder.Less(bHi, n.b[i]) {
				continue
			}
			if !fn(n.a[i], n.b[i], n.tie[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// SizeBytes is the heap footprint of the composite tree, counted like
// Tree.SizeBytes.
func (t *CompositeTree) SizeBytes() uint64 {
	return csize(t.root)
}

func csize(n *cnode) uint64 {
	s := uint64(112) // the header's size class
	s += uint64(cap(n.a))*8 + uint64(cap(n.b))*8 + uint64(cap(n.tie))*8
	s += uint64(cap(n.children)) * 8
	for _, c := range n.children {
		s += csize(c)
	}
	return s
}

// BulkLoad replaces the contents with entries sorted by (a, b, id).
func (t *CompositeTree) BulkLoad(as, bs []float64, ids []uint64) error {
	if len(as) != len(bs) || len(as) != len(ids) {
		return fmt.Errorf("btree: composite BulkLoad length mismatch")
	}
	for i := 1; i < len(as); i++ {
		if cmp3(as[i-1], bs[i-1], ids[i-1], as[i], bs[i], ids[i]) > 0 {
			return fmt.Errorf("btree: composite BulkLoad input not sorted at %d", i)
		}
	}
	t.root = &cnode{}
	t.size = len(as)
	if len(as) == 0 {
		return nil
	}
	per := t.order * 85 / 100
	if per < 1 {
		per = 1
	}
	var leaves []*cnode
	for off := 0; off < len(as); off += per {
		end := off + per
		if end > len(as) {
			end = len(as)
		}
		leaves = append(leaves, &cnode{
			a:   append([]float64(nil), as[off:end]...),
			b:   append([]float64(nil), bs[off:end]...),
			tie: append([]uint64(nil), ids[off:end]...),
		})
	}
	for i := 0; i+1 < len(leaves); i++ {
		leaves[i].next = leaves[i+1]
	}
	level := leaves
	for len(level) > 1 {
		var parents []*cnode
		for off := 0; off < len(level); off += per + 1 {
			end := off + per + 1
			if end > len(level) {
				end = len(level)
			}
			p := &cnode{children: append([]*cnode(nil), level[off:end]...)}
			for _, c := range p.children[1:] {
				ma, mb, mt := cminEntry(c)
				p.a = append(p.a, ma)
				p.b = append(p.b, mb)
				p.tie = append(p.tie, mt)
			}
			parents = append(parents, p)
		}
		level = parents
	}
	t.root = level[0]
	return nil
}

func cminEntry(n *cnode) (float64, float64, uint64) {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.a[0], n.b[0], n.tie[0]
}
