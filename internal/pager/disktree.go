package pager

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// DiskOrder is the maximum number of entries per disk B+-tree node. At 16
// bytes per entry plus child pointers this stays comfortably inside one
// 8 KiB page while keeping the tree shallow, like PostgreSQL's nbtree.
const DiskOrder = 256

// invalidPage is the nil sentinel for page links (page 0 is a valid page).
const invalidPage = ^PageID(0)

// DiskTree is a page-based B+-tree over a buffer pool: the disk engine's
// host, primary and baseline secondary indexes. Keys are float64 column
// values; values are opaque uint64 tuple identifiers; entries are ordered
// by the composite (key, value) so duplicates behave exactly as in the
// in-memory btree package.
type DiskTree struct {
	pool   *Pool
	rootID PageID
	size   int
	npages uint64
}

// dnode is the decoded form of one tree page.
//
// Page layout:
//
//	[0]     leaf flag
//	[1:3]   uint16 entry count
//	[3:11]  next leaf PageID (leaves; invalidPage otherwise)
//	[16:]   count*(key float64, tie uint64), then for internal nodes
//	        (count+1) child PageIDs
type dnode struct {
	leaf     bool
	keys     []float64
	tie      []uint64
	children []PageID
	next     PageID
}

// NewDiskTree creates an empty tree rooted at a fresh leaf page.
func NewDiskTree(pool *Pool) (*DiskTree, error) {
	t := &DiskTree{pool: pool}
	id, err := t.allocNode(&dnode{leaf: true, next: invalidPage})
	if err != nil {
		return nil, err
	}
	t.rootID = id
	return t, nil
}

// Len returns the number of entries.
func (t *DiskTree) Len() int { return t.size }

// SizeBytes returns the tree's on-disk footprint.
func (t *DiskTree) SizeBytes() uint64 { return t.npages * PageSize }

const nodeHeader = 16

func decodeNode(data []byte) *dnode {
	n := &dnode{leaf: data[0] == 1}
	count := int(binary.LittleEndian.Uint16(data[1:3]))
	n.next = PageID(binary.LittleEndian.Uint64(data[3:11]))
	off := nodeHeader
	n.keys = make([]float64, count)
	n.tie = make([]uint64, count)
	for i := 0; i < count; i++ {
		n.keys[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		n.tie[i] = binary.LittleEndian.Uint64(data[off+8:])
		off += 16
	}
	if !n.leaf {
		n.children = make([]PageID, count+1)
		for i := range n.children {
			n.children[i] = PageID(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		}
	}
	return n
}

func encodeNode(n *dnode, data []byte) {
	if n.leaf {
		data[0] = 1
	} else {
		data[0] = 0
	}
	binary.LittleEndian.PutUint16(data[1:3], uint16(len(n.keys)))
	binary.LittleEndian.PutUint64(data[3:11], uint64(n.next))
	off := nodeHeader
	for i := range n.keys {
		binary.LittleEndian.PutUint64(data[off:], math.Float64bits(n.keys[i]))
		binary.LittleEndian.PutUint64(data[off+8:], n.tie[i])
		off += 16
	}
	if !n.leaf {
		for _, c := range n.children {
			binary.LittleEndian.PutUint64(data[off:], uint64(c))
			off += 8
		}
	}
}

func (t *DiskTree) readNode(id PageID) (*dnode, error) {
	f, err := t.pool.Fetch(id)
	if err != nil {
		return nil, err
	}
	n := decodeNode(f.Data)
	t.pool.Unpin(f, false)
	return n, nil
}

func (t *DiskTree) writeNode(id PageID, n *dnode) error {
	f, err := t.pool.Fetch(id)
	if err != nil {
		return err
	}
	encodeNode(n, f.Data)
	t.pool.Unpin(f, true)
	return nil
}

func (t *DiskTree) allocNode(n *dnode) (PageID, error) {
	f, err := t.pool.NewPage()
	if err != nil {
		return 0, err
	}
	encodeNode(n, f.Data)
	id := f.ID
	t.pool.Unpin(f, true)
	t.npages++
	return id, nil
}

func dcmp(k1 float64, v1 uint64, k2 float64, v2 uint64) int {
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

func (n *dnode) search(k float64, v uint64) int {
	return sort.Search(len(n.keys), func(i int) bool {
		return dcmp(n.keys[i], n.tie[i], k, v) >= 0
	})
}

func (n *dnode) childIndex(k float64, v uint64) int {
	return sort.Search(len(n.keys), func(i int) bool {
		return dcmp(n.keys[i], n.tie[i], k, v) > 0
	})
}

// Insert adds the entry (key, id).
func (t *DiskTree) Insert(key float64, id uint64) error {
	sep, sepTie, right, split, err := t.insert(t.rootID, key, id)
	if err != nil {
		return err
	}
	if split {
		newRoot := &dnode{
			keys:     []float64{sep},
			tie:      []uint64{sepTie},
			children: []PageID{t.rootID, right},
			next:     invalidPage,
		}
		rid, err := t.allocNode(newRoot)
		if err != nil {
			return err
		}
		t.rootID = rid
	}
	t.size++
	return nil
}

func (t *DiskTree) insert(id PageID, key float64, tie uint64) (float64, uint64, PageID, bool, error) {
	n, err := t.readNode(id)
	if err != nil {
		return 0, 0, 0, false, err
	}
	if n.leaf {
		i := n.search(key, tie)
		n.keys = append(n.keys, 0)
		n.tie = append(n.tie, 0)
		copy(n.keys[i+1:], n.keys[i:])
		copy(n.tie[i+1:], n.tie[i:])
		n.keys[i] = key
		n.tie[i] = tie
		if len(n.keys) > DiskOrder {
			return t.splitLeaf(id, n)
		}
		return 0, 0, 0, false, t.writeNode(id, n)
	}
	ci := n.childIndex(key, tie)
	sep, sepTie, right, split, err := t.insert(n.children[ci], key, tie)
	if err != nil || !split {
		return 0, 0, 0, false, err
	}
	n.keys = append(n.keys, 0)
	n.tie = append(n.tie, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	copy(n.tie[ci+1:], n.tie[ci:])
	n.keys[ci] = sep
	n.tie[ci] = sepTie
	n.children = append(n.children, 0)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.keys) > DiskOrder {
		return t.splitInternal(id, n)
	}
	return 0, 0, 0, false, t.writeNode(id, n)
}

func (t *DiskTree) splitLeaf(id PageID, n *dnode) (float64, uint64, PageID, bool, error) {
	mid := len(n.keys) / 2
	right := &dnode{
		leaf: true,
		keys: append([]float64(nil), n.keys[mid:]...),
		tie:  append([]uint64(nil), n.tie[mid:]...),
		next: n.next,
	}
	rid, err := t.allocNode(right)
	if err != nil {
		return 0, 0, 0, false, err
	}
	n.keys = n.keys[:mid]
	n.tie = n.tie[:mid]
	n.next = rid
	if err := t.writeNode(id, n); err != nil {
		return 0, 0, 0, false, err
	}
	return right.keys[0], right.tie[0], rid, true, nil
}

func (t *DiskTree) splitInternal(id PageID, n *dnode) (float64, uint64, PageID, bool, error) {
	mid := len(n.keys) / 2
	sep, sepTie := n.keys[mid], n.tie[mid]
	right := &dnode{
		keys:     append([]float64(nil), n.keys[mid+1:]...),
		tie:      append([]uint64(nil), n.tie[mid+1:]...),
		children: append([]PageID(nil), n.children[mid+1:]...),
		next:     invalidPage,
	}
	rid, err := t.allocNode(right)
	if err != nil {
		return 0, 0, 0, false, err
	}
	n.keys = n.keys[:mid]
	n.tie = n.tie[:mid]
	n.children = n.children[:mid+1]
	if err := t.writeNode(id, n); err != nil {
		return 0, 0, 0, false, err
	}
	return sep, sepTie, rid, true, nil
}

// Delete removes the entry (key, id) and reports whether it was found.
// Underfull pages are not rebalanced (the in-memory tree merges them).
func (t *DiskTree) Delete(key float64, id uint64) (bool, error) {
	nid := t.rootID
	for {
		n, err := t.readNode(nid)
		if err != nil {
			return false, err
		}
		if n.leaf {
			i := n.search(key, id)
			if i >= len(n.keys) || dcmp(n.keys[i], n.tie[i], key, id) != 0 {
				return false, nil
			}
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.tie = append(n.tie[:i], n.tie[i+1:]...)
			t.size--
			return true, t.writeNode(nid, n)
		}
		nid = n.children[n.childIndex(key, id)]
	}
}

// Scan calls fn for every entry with lo <= key <= hi in ascending order.
func (t *DiskTree) Scan(lo, hi float64, fn func(key float64, id uint64) bool) error {
	if lo > hi {
		return nil
	}
	nid := t.rootID
	for {
		n, err := t.readNode(nid)
		if err != nil {
			return err
		}
		if n.leaf {
			i := n.search(lo, 0)
			for {
				for ; i < len(n.keys); i++ {
					if n.keys[i] > hi {
						return nil
					}
					if !fn(n.keys[i], n.tie[i]) {
						return nil
					}
				}
				if n.next == invalidPage {
					return nil
				}
				n, err = t.readNode(n.next)
				if err != nil {
					return err
				}
				i = 0
			}
		}
		nid = n.children[n.childIndex(lo, 0)]
	}
}

// First returns the smallest-id entry whose key equals key.
func (t *DiskTree) First(key float64) (uint64, bool, error) {
	var id uint64
	found := false
	err := t.Scan(key, key, func(_ float64, v uint64) bool {
		id = v
		found = true
		return false
	})
	return id, found, err
}

// BulkLoad replaces the tree with the given entries, which must be sorted
// by (key, id); leaves are packed to ~85%.
func (t *DiskTree) BulkLoad(keys []float64, ids []uint64) error {
	if len(keys) != len(ids) {
		return fmt.Errorf("pager: BulkLoad length mismatch")
	}
	for i := 1; i < len(keys); i++ {
		if dcmp(keys[i-1], ids[i-1], keys[i], ids[i]) > 0 {
			return fmt.Errorf("pager: BulkLoad input not sorted at %d", i)
		}
	}
	per := DiskOrder * 85 / 100
	type levelEntry struct {
		id   PageID
		key  float64
		tie  uint64
		have bool
	}
	var leaves []levelEntry
	if len(keys) == 0 {
		id, err := t.allocNode(&dnode{leaf: true, next: invalidPage})
		if err != nil {
			return err
		}
		t.rootID = id
		t.size = 0
		return nil
	}
	// Build leaves; link them as we go.
	var prevID PageID = invalidPage
	var prevNode *dnode
	for off := 0; off < len(keys); off += per {
		end := off + per
		if end > len(keys) {
			end = len(keys)
		}
		n := &dnode{
			leaf: true,
			keys: append([]float64(nil), keys[off:end]...),
			tie:  append([]uint64(nil), ids[off:end]...),
			next: invalidPage,
		}
		id, err := t.allocNode(n)
		if err != nil {
			return err
		}
		if prevNode != nil {
			prevNode.next = id
			if err := t.writeNode(prevID, prevNode); err != nil {
				return err
			}
		}
		prevID, prevNode = id, n
		leaves = append(leaves, levelEntry{id: id, key: n.keys[0], tie: n.tie[0], have: true})
	}
	level := leaves
	for len(level) > 1 {
		var parents []levelEntry
		for off := 0; off < len(level); off += per + 1 {
			end := off + per + 1
			if end > len(level) {
				end = len(level)
			}
			group := level[off:end]
			n := &dnode{next: invalidPage}
			for _, g := range group {
				n.children = append(n.children, g.id)
			}
			for _, g := range group[1:] {
				n.keys = append(n.keys, g.key)
				n.tie = append(n.tie, g.tie)
			}
			id, err := t.allocNode(n)
			if err != nil {
				return err
			}
			parents = append(parents, levelEntry{id: id, key: group[0].key, tie: group[0].tie, have: true})
		}
		level = parents
	}
	t.rootID = level[0].id
	t.size = len(keys)
	return nil
}
