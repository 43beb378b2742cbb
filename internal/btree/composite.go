package btree

import (
	"cmp"
	"fmt"
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

type cnode struct {
	leaf     bool
	a        []float64
	b        []float64
	tie      []uint64
	children []*cnode
	next     *cnode
}

// NewComposite creates an empty composite tree with the given node order.
func NewComposite(order int) *CompositeTree {
	if order < 4 {
		order = 4
	}
	return &CompositeTree{root: &cnode{leaf: true}, order: order}
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

// Insert adds the entry ((a, b), id).
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

func (t *CompositeTree) insert(n *cnode, a, b float64, id uint64) (float64, float64, uint64, *cnode) {
	full := t.order + 1
	if n.leaf {
		i := n.search(a, b, id)
		n.a = insertAt(n.a, i, a, full)
		n.b = insertAt(n.b, i, b, full)
		n.tie = insertAt(n.tie, i, id, full)
		if len(n.a) > t.order {
			return t.splitLeaf(n)
		}
		return 0, 0, 0, nil
	}
	ci := n.childIndex(a, b, id)
	sa, sb, sTie, right := t.insert(n.children[ci], a, b, id)
	if right == nil {
		return 0, 0, 0, nil
	}
	n.a = insertAt(n.a, ci, sa, full)
	n.b = insertAt(n.b, ci, sb, full)
	n.tie = insertAt(n.tie, ci, sTie, full)
	n.children = insertAt(n.children, ci+1, right, full+1)
	if len(n.a) > t.order {
		return t.splitInternal(n)
	}
	return 0, 0, 0, nil
}

func (t *CompositeTree) splitLeaf(n *cnode) (float64, float64, uint64, *cnode) {
	mid := len(n.a) / 2
	full := t.order + 1
	right := &cnode{
		leaf: true,
		a:    splitOff(n.a, mid, full),
		b:    splitOff(n.b, mid, full),
		tie:  splitOff(n.tie, mid, full),
		next: n.next,
	}
	n.a, n.b, n.tie = n.a[:mid], n.b[:mid], n.tie[:mid]
	n.next = right
	return right.a[0], right.b[0], right.tie[0], right
}

func (t *CompositeTree) splitInternal(n *cnode) (float64, float64, uint64, *cnode) {
	mid := len(n.a) / 2
	sa, sb, sTie := n.a[mid], n.b[mid], n.tie[mid]
	full := t.order + 1
	right := &cnode{
		a:        splitOff(n.a, mid+1, full),
		b:        splitOff(n.b, mid+1, full),
		tie:      splitOff(n.tie, mid+1, full),
		children: splitOff(n.children, mid+1, full+1),
	}
	n.a, n.b, n.tie = n.a[:mid], n.b[:mid], n.tie[:mid]
	clear(n.children[mid+1:]) // drop the moved children's references
	n.children = n.children[:mid+1]
	return sa, sb, sTie, right
}

// Delete removes the entry ((a, b), id), reporting whether it was found.
// Unlike Tree.Delete, it leaves underfull nodes as they are.
func (t *CompositeTree) Delete(a, b float64, id uint64) bool {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(a, b, id)]
	}
	i := n.search(a, b, id)
	if i >= len(n.a) || cmp3(n.a[i], n.b[i], n.tie[i], a, b, id) != 0 {
		return false
	}
	n.a = append(n.a[:i], n.a[i+1:]...)
	n.b = append(n.b[:i], n.b[i+1:]...)
	n.tie = append(n.tie[:i], n.tie[i+1:]...)
	t.size--
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
	for !n.leaf {
		n = n.children[n.childIndex(aLo, bLo, 0)]
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

// SizeBytes estimates the heap footprint of the composite tree.
func (t *CompositeTree) SizeBytes() uint64 {
	return csize(t.root)
}

func csize(n *cnode) uint64 {
	s := uint64(104)
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
	t.root = &cnode{leaf: true}
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
			leaf: true,
			a:    append([]float64(nil), as[off:end]...),
			b:    append([]float64(nil), bs[off:end]...),
			tie:  append([]uint64(nil), ids[off:end]...),
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
	for !n.leaf {
		n = n.children[0]
	}
	return n.a[0], n.b[0], n.tie[0]
}
