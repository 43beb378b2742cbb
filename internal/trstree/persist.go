package trstree

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Snapshot format: the paper (§6) requires the RDBMS to periodically
// persist TRS-Trees for fault tolerance (checkpointing for the in-memory
// engine, node pages for the disk engine). The snapshot is a little-endian
// pre-order dump of the tree:
//
//	magic "TRST", version uint16, Params, root bounds
//	per node: flags byte (leaf | leftEdge | rightEdge), lo, hi
//	  leaf:     beta, alpha, eps, count, deleted, n outliers, entries
//	  internal: child count, then children pre-order
//
// The tree stores no node's bounds or flags: Save writes the ones every
// descent derives (span.child), and Load derives them again and rejects a
// snapshot whose stored ones differ, or whose child count is not
// NodeFanout. A snapshot Load accepts saves back to the same bytes.
//
// Snapshots capture a consistent point-in-time image (the read latch is
// held while encoding); writes after the snapshot are recovered by the
// engine's WAL replay, exactly as §6 sketches.

const (
	snapshotMagic   = "TRST"
	snapshotVersion = 1

	flagLeaf      = 1
	flagLeftEdge  = 2
	flagRightEdge = 4
)

// Errors returned by Load.
var (
	ErrBadSnapshot     = errors.New("trstree: malformed snapshot")
	ErrSnapshotVersion = errors.New("trstree: unsupported snapshot version")
)

// Save writes a point-in-time snapshot of the tree to w.
func (t *Tree) Save(w io.Writer) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := writeAll(bw,
		uint16(snapshotVersion),
		uint32(t.params.NodeFanout),
		uint32(t.params.MaxHeight),
		t.params.OutlierRatio,
		t.params.ErrorBound,
		t.params.SampleRate,
		boolByte(t.params.UnionRanges),
		uint32(t.params.MinLeafPairs),
	); err != nil {
		return err
	}
	if err := t.writeNodeSnapshot(bw, t.root, t.bounds); err != nil {
		return err
	}
	return bw.Flush()
}

func (t *Tree) writeNodeSnapshot(w io.Writer, r ref, s span) error {
	var flags byte
	if r.isLeaf() {
		flags |= flagLeaf
	}
	if s.left {
		flags |= flagLeftEdge
	}
	if s.right {
		flags |= flagRightEdge
	}
	if err := writeAll(w, flags, s.lo, s.hi); err != nil {
		return err
	}
	if r.isLeaf() {
		l := &t.leaves[r.slot()]
		if err := writeAll(w,
			l.model.Beta, l.model.Alpha, l.eps,
			uint64(l.count), uint64(l.deleted), uint64(len(l.outliers)),
		); err != nil {
			return err
		}
		for _, e := range l.outliers {
			if err := writeAll(w, e.m, e.id); err != nil {
				return err
			}
		}
		return nil
	}
	k := t.params.NodeFanout
	if err := writeAll(w, uint32(k)); err != nil {
		return err
	}
	wd := s.width(k)
	for i, c := range t.kids(r) {
		if err := t.writeNodeSnapshot(w, c, s.child(wd, i, k)); err != nil {
			return err
		}
	}
	return nil
}

// maxFanout bounds the NodeFanout a snapshot may declare.
const maxFanout = 1 << 16

// Load reconstructs a tree from a snapshot produced by Save. It reads r to
// its end: bytes after the tree are an error.
func Load(r io.Reader) (*Tree, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, magic)
	}
	var version uint16
	if err := readAll(br, &version); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d", ErrSnapshotVersion, version)
	}
	var p Params
	var fanout, maxHeight, minLeaf uint32
	var union byte
	if err := readAll(br, &fanout, &maxHeight, &p.OutlierRatio, &p.ErrorBound,
		&p.SampleRate, &union, &minLeaf); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	// Save writes sanitized parameters; anything sanitize would change did
	// not come from Save.
	if fanout < 2 || fanout > maxFanout || maxHeight < 1 || minLeaf < 1 || union > 1 ||
		p.OutlierRatio <= 0 || p.ErrorBound < 0 {
		return nil, fmt.Errorf("%w: parameters", ErrBadSnapshot)
	}
	p.NodeFanout = int(fanout)
	p.MaxHeight = int(maxHeight)
	p.UnionRanges = union != 0
	p.MinLeafPairs = int(minLeaf)
	var flags byte
	var lo, hi float64
	if err := readAll(br, &flags, &lo, &hi); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return nil, fmt.Errorf("%w: NaN bounds", ErrBadSnapshot)
	}
	bounds := span{lo: lo, hi: hi, left: true, right: true}
	n := nodes{fanout: p.NodeFanout}
	root, err := n.readNodeSnapshot(br, flags, bounds, 0)
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: bytes after the tree", ErrBadSnapshot)
	}
	return newTree(p, lo, hi, root, n), nil
}

// maxSnapshotDepth bounds recursion so corrupt child counts cannot blow
// the stack.
const maxSnapshotDepth = 64

// readNodeSnapshot reads the node that covers s, whose flags are read, and
// appends it to n.
func (n *nodes) readNodeSnapshot(r io.Reader, flags byte, s span, depth int) (ref, error) {
	if depth > maxSnapshotDepth {
		return 0, fmt.Errorf("%w: nesting too deep", ErrBadSnapshot)
	}
	if flags&^(flagLeaf|flagLeftEdge|flagRightEdge) != 0 ||
		(flags&flagLeftEdge != 0) != s.left || (flags&flagRightEdge != 0) != s.right {
		return 0, fmt.Errorf("%w: node flags %#x", ErrBadSnapshot, flags)
	}
	if flags&flagLeaf != 0 {
		return n.readLeafSnapshot(r)
	}
	var children uint32
	if err := readAll(r, &children); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	k := n.fanout
	if children != uint32(k) {
		return 0, fmt.Errorf("%w: child count %d", ErrBadSnapshot, children)
	}
	in := n.addInner()
	w := s.width(k)
	for i := range k {
		cs := s.child(w, i, k)
		var lo, hi float64
		if err := readAll(r, &flags, &lo, &hi); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return 0, fmt.Errorf("%w: NaN bounds", ErrBadSnapshot)
		}
		if math.Float64bits(lo) != math.Float64bits(cs.lo) || math.Float64bits(hi) != math.Float64bits(cs.hi) {
			return 0, fmt.Errorf("%w: child %d covers [%v, %v], not [%v, %v]", ErrBadSnapshot, i, lo, hi, cs.lo, cs.hi)
		}
		c, err := n.readNodeSnapshot(r, flags, cs, depth+1)
		if err != nil {
			return 0, err
		}
		n.kids(in)[i] = c
	}
	return in, nil
}

// readLeafSnapshot reads a leaf's fields and appends it to n.
func (n *nodes) readLeafSnapshot(r io.Reader) (ref, error) {
	var l leaf
	var count, deleted, outliers uint64
	if err := readAll(r, &l.model.Beta, &l.model.Alpha, &l.eps,
		&count, &deleted, &outliers); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if count > math.MaxUint32 || deleted > math.MaxUint32 || outliers > math.MaxUint32 {
		return 0, fmt.Errorf("%w: leaf counters %d, %d, %d", ErrBadSnapshot, count, deleted, outliers)
	}
	l.count, l.deleted = uint32(count), uint32(deleted)
	if outliers > 0 {
		// Grown as read, so that a corrupt count cannot allocate more than
		// the input holds, then moved into an array of its exact length.
		l.outliers = make([]outlierEntry, 0, min(outliers, 1<<12))
		for range outliers {
			var e outlierEntry
			if err := readAll(r, &e.m, &e.id); err != nil {
				return 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
			}
			l.outliers = append(l.outliers, e)
		}
		if cap(l.outliers) != len(l.outliers) {
			l.outliers = append(make([]outlierEntry, 0, len(l.outliers)), l.outliers...)
		}
	}
	return n.addLeaf(l), nil
}

// SaveFile snapshots the tree to path atomically (write temp + rename).
func (t *Tree) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := t.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reconstructs a tree from a snapshot file.
func LoadFile(path string) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// writeAll writes each value in little-endian order.
func writeAll(w io.Writer, vals ...any) error {
	for _, v := range vals {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// readAll reads each pointer target in little-endian order.
func readAll(r io.Reader, vals ...any) error {
	for _, v := range vals {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}
