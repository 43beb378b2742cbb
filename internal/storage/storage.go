// Package storage implements the in-memory base-table substrate used by the
// main-memory engine (the paper's DBMS-X stand-in). A table's rows are
// tuples of float64 columns, kept in blocks of BlockRows rows; rows are
// addressed by record identifiers (RIDs) in the paper's "blockID+offset"
// physical-pointer format (§5.1).
//
// A block that is filling holds its rows as float64s. The insert that fills
// its last slot packs it frame-of-reference, column by column
// (internal/forcode describes the frame): each column's values are coded
// by their keyorder.RankBits, which keeps −0 apart from +0, in a frame
// whose base sits far enough below the smallest that the unused codes
// split evenly below and above them, and a row is the concatenation of its
// codes, stride bytes in all. A column of whole numbers, of values on a
// grid or of one value costs a byte or two, not eight, and every float64
// reads back bit for bit: −0, NaN payloads, ±Inf and subnormals included.
// An insert into a packed block writes the row's codes when they fit the
// frames. A value its frame does not hold is an exception (patched
// frame-of-reference, Zukowski et al., ICDE 2006): its code is the mark,
// all ones, and its rank sits in the block's exception list, sorted by
// slot, so the frames and every other row's codes stay as they are. The
// block packs anew, from its codes and exceptions straight into the new
// codes array, when one more exception would take more heap than the wider
// codes would add, or when the frame has no mark to spare.
//
// A row never moves, so its RID is stable for as long as the row exists. A
// deleted row's slot is free, and the next insert fills a free slot before
// it appends: the blocks hold as many slots as the table has had rows at
// once, not as many as it has ever been given — and a block whose every slot
// is free gives its rows back until an insert needs them again. A RID
// therefore names a row only until that row is deleted — afterwards it
// reads ErrTombstoned, and after the slot's next insert it reads the new
// row. Whoever keeps RIDs across deletes (the engine's indexes and version
// chains) drops them before it deletes the row. A row changes only by a
// delete and the insert that refills a slot: there is no write path into
// a stored row.
package storage

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"unsafe"

	"hermit/internal/forcode"
	"hermit/internal/heapsize"
	"hermit/internal/keyorder"
)

// BlockRows is the number of rows per storage block. A power of two so the
// block/slot split compiles to shifts.
const BlockRows = 4096

// RID is a physical record identifier: block number in the high 48 bits and
// slot within the block in the low 16 bits. The zero RID is a valid address
// (block 0, slot 0); use the ok results of table methods to detect absence.
type RID uint64

// MakeRID packs a block number and slot into a RID.
func MakeRID(block uint64, slot uint16) RID {
	return RID(block<<16 | uint64(slot))
}

// Block returns the block number encoded in the RID.
func (r RID) Block() uint64 { return uint64(r) >> 16 }

// Slot returns the slot within the block encoded in the RID.
func (r RID) Slot() uint16 { return uint16(r) }

// String implements fmt.Stringer in the paper's "blockID+offset" notation.
func (r RID) String() string {
	return fmt.Sprintf("%d+%d", r.Block(), r.Slot())
}

// Errors returned by table operations.
var (
	ErrBadRow      = errors.New("storage: row width does not match schema")
	ErrNoSuchRow   = errors.New("storage: no row at RID")
	ErrBadColumn   = errors.New("storage: column index out of range")
	ErrTombstoned  = errors.New("storage: row has been deleted")
	ErrOutOfBounds = errors.New("storage: RID out of bounds")
)

// frame is how a packed block codes one column.
type frame struct {
	base uint64 // the rank code 0 stands for, at or below the column's smallest
	mask uint64 // the low w bytes: what a code may hold
	// Where every rank the codes stand for is on one side of +0, the
	// float's bits are linear in the code: zero + code*step, step 1<<shift
	// from +0 up and its negation below. Where they straddle +0 (mixed),
	// a code decodes through keyorder.Unrank.
	zero, step uint64
	off        uint32 // the code's byte offset in a row
	w          uint8  // the code's bytes, 0 to 8; 0 when the column holds one value
	shift      uint8  // every rank − base is a multiple of 1<<shift
	mixed      bool
	// marked: the all-ones code is the mark of an exception, not a value.
	// A frame is marked when it is packed with its top code unused, so a
	// frame of one value (w = 0, whose one code is all ones) or one whose
	// values reach its top code takes no exceptions: a miss there repacks.
	marked bool
}

// newFrame is the frame at byte offset off of a column whose ranks run
// from lo to hi with diff the OR of their differences from one of them.
func newFrame(lo, hi, diff uint64, off int) frame {
	f := frame{off: uint32(off)}
	f.shift, f.w = forcode.Derive(lo, hi, diff)
	f.mask = forcode.Mask(f.w)
	// The codes the values leave unused go half below them and half
	// above, so that an insert a little out of their range still fits
	// — but none across +0 from values all on one side of it.
	k := min((f.mask-(hi-lo)>>f.shift)/2, lo>>f.shift)
	switch {
	case lo >= 1<<63:
		k = min(k, (lo-1<<63)>>f.shift)
	case hi < 1<<63:
		if room := (1<<63 - 1 - lo) >> f.shift; room < f.mask {
			k = min(max(k, f.mask-room), lo>>f.shift)
		}
	}
	f.setBase(lo - k<<f.shift)
	f.marked = f.w > 0 && forcode.Code(hi, f.base, f.shift) < f.mask
	return f
}

// fits reports whether rank r has a code in the frame that is not the mark.
func (f *frame) fits(r uint64) bool {
	return forcode.Fits(r, f.base, f.shift, f.w) && (!f.marked || forcode.Code(r, f.base, f.shift) != f.mask)
}

// code reads the column's code from row; fast says 8 bytes follow it.
func (f *frame) code(row []byte, fast bool) uint64 {
	if fast {
		return forcode.Load(row, int(f.off)) & f.mask
	}
	return forcode.LoadTail(row, int(f.off), f.w)
}

// setBase sets the frame's base, and the decoding that follows from it and
// from the frame's mask and shift.
func (f *frame) setBase(base uint64) {
	f.base, f.step = base, 1<<(f.shift&63)
	// The ranks a code may stand for run from base to top: a rank fits
	// only at or above base, and ranks end at 2^64 − 1.
	top := uint64(math.MaxUint64)
	if f.mask <= math.MaxUint64>>(f.shift&63) {
		if t, carry := bits.Add64(base, f.mask<<(f.shift&63), 0); carry == 0 {
			top = t
		}
	}
	f.mixed = base>>63 != top>>63
	f.zero = math.Float64bits(keyorder.Unrank(base))
	if base>>63 == 0 {
		f.step = -f.step
	}
}

// value decodes code x.
func (f *frame) value(x uint64) float64 {
	if f.mixed {
		return keyorder.Unrank(forcode.Rank(x, f.base, f.shift))
	}
	return math.Float64frombits(f.zero + x*f.step)
}

// get decodes the column's code from row, a packed row with 8 bytes from
// the code on: one load.
func (f *frame) get(row []byte) float64 {
	return f.value(forcode.Load(row, int(f.off)) & f.mask)
}

// getTail is get for a row at the end of its block, where the 8 bytes may
// run past the array: it reads the code's w bytes one by one.
func (f *frame) getTail(row []byte) float64 {
	return f.value(forcode.LoadTail(row, int(f.off), f.w))
}

// put writes r's code into row, its w bytes alone: the bytes beyond them
// are another column's or another row's. Where 8 bytes follow the code it
// is one 8-byte load and store.
func (f *frame) put(row []byte, r uint64) { f.putCode(row, forcode.Code(r, f.base, f.shift)) }

// putCode writes code x into row as put writes a rank's.
func (f *frame) putCode(row []byte, x uint64) {
	if q := int(f.off); q+8 <= len(row) {
		forcode.Store(row, q, x, f.mask)
		return
	}
	for i := int(f.off); i < int(f.off)+int(f.w); i++ {
		row[i] = byte(x)
		x >>= 8
	}
}

// block is one fixed-capacity arena of rows plus a deletion bitmap, which
// doubles as the block's free-slot set. Its rows are in data while it fills
// and in codes, under frames, once it is packed, the values the frames do
// not hold in x; a block whose every used slot is free has none of them.
// The header is 128 bytes, one size class: x is one pointer.
type block struct {
	data   []float64 // BlockRows * width values; nil when packed or wholly free
	codes  []byte    // BlockRows * stride bytes, and what the allocator rounds that up to
	frames []frame   // one per column; nil unless packed
	dead   []uint64  // bitmap, BlockRows bits: the free slots below used
	x      *patches  // a packed block's exceptions; nil when it has none
	stride int       // bytes a packed row takes
	used   int       // slots handed out so far (live or free)
	free   int       // bits set in dead
}

func (b *block) isDead(slot uint16) bool {
	return b.dead[slot/64]&(1<<(slot%64)) != 0
}

func (b *block) setDead(slot uint16) {
	b.dead[slot/64] |= 1 << (slot % 64)
	b.free++
}

// takeFree claims the block's lowest free slot; b.free is positive.
func (b *block) takeFree() uint16 {
	for w, word := range b.dead {
		if word != 0 {
			s := bits.TrailingZeros64(word)
			b.dead[w] = word &^ (1 << s)
			b.free--
			return uint16(w*64 + s)
		}
	}
	panic("storage: free count and deletion bitmap disagree")
}

// alive returns the live slots among slots 64w to 64w+63 as a bitmap.
func (b *block) alive(w int) uint64 {
	alive := ^b.dead[w]
	if n := b.used - w*64; n < 64 {
		alive &= 1<<n - 1
	}
	return alive
}

// packed returns the codes of the row in slot s of a packed block, and
// whether get may read them: whether 8 bytes follow each of its codes.
func (b *block) packed(s int) ([]byte, bool) {
	p := s * b.stride
	return b.codes[p:], p+b.stride+8 <= len(b.codes)
}

// decode writes the row in slot s into dst, which has one element a column.
func (b *block) decode(s int, dst []float64) {
	if b.data != nil {
		copy(dst, b.data[s*len(dst):])
		return
	}
	frames := b.frames
	dst = dst[:len(frames)]
	row, fast := b.packed(s)
	if b.x != nil {
		for c := range frames {
			dst[c] = b.cell(s, c, row, fast)
		}
		return
	}
	if fast {
		for c := range frames {
			dst[c] = frames[c].get(row)
		}
		return
	}
	for c := range frames {
		dst[c] = frames[c].getTail(row)
	}
}

// at returns column col of the row in slot s; the block has width columns.
func (b *block) at(s, col, width int) float64 {
	if b.data != nil {
		return b.data[s*width+col]
	}
	row, fast := b.packed(s)
	return b.cell(s, col, row, fast)
}

// cell decodes column c of row, the packed row in slot s, looking a
// marked code up among the exceptions.
func (b *block) cell(s, c int, row []byte, fast bool) float64 {
	f := &b.frames[c]
	x := f.code(row, fast)
	if x == f.mask && f.marked && b.x != nil {
		return keyorder.Unrank(b.x.rank[b.xat(s, c, row, fast)])
	}
	return f.value(x)
}

// rank is the rank column c of the row in slot s codes.
func (b *block) rank(s, c int) uint64 {
	f := &b.frames[c]
	row, fast := b.packed(s)
	x := f.code(row, fast)
	if x == f.mask && f.marked && b.x != nil {
		return b.x.rank[b.xat(s, c, row, fast)]
	}
	return forcode.Rank(x, f.base, f.shift)
}

// xat is the index of the exception of column c of row, the packed row in
// slot s, whose code there is the mark: a row's exceptions lie together in
// column order.
func (b *block) xat(s, c int, row []byte, fast bool) int {
	i, _ := slices.BinarySearch(b.x.slot, uint16(s))
	for k := range c {
		if f := &b.frames[k]; f.marked && f.code(row, fast) == f.mask {
			i++
		}
	}
	return i
}

// patches are a packed block's exceptions: the ranks of the values whose
// code is the mark, in slot order and within a row in column order, and
// each column's reach, which the break-even test reads.
type patches struct {
	slot  []uint16
	rank  []uint64
	reach []reach // one a column
	// stale: a delete took a rank at a reach's edge, so the reach may be
	// wider than the live rows; the next miss measures it anew.
	stale bool
}

// reach is a set of ranks: its smallest and largest, and the OR of each
// one's difference from a member, whose lowest bit is their grid.
type reach struct{ lo, hi, diff uint64 }

func (r *reach) add(x uint64) {
	r.diff |= x ^ r.lo
	r.lo, r.hi = min(r.lo, x), max(r.hi, x)
}

// heap is what p takes once it holds n exceptions, each array grown to
// the size class that holds them.
func (p *patches) heap(n int) uint64 {
	return heapsize.Of(int(unsafe.Sizeof(*p)), true) + heapsize.Of(cap(p.reach)*int(unsafe.Sizeof(reach{})), false) +
		heapsize.Of(2*max(n, cap(p.slot)), false) + heapsize.Of(8*max(n, cap(p.rank)), false)
}

// grow returns a with length n, in an array of the size class of n
// elements of size bytes when a's own is too small.
func grow[T any](a []T, n, size int) []T {
	if n <= cap(a) {
		return a[:n]
	}
	g := make([]T, n, int(heapsize.Of(n*size, false))/size)
	copy(g, a)
	return g
}

// reaches sets rs to the reach of each column over the block's live rows
// but slot s, and row, which goes into slot s.
func (b *block) reaches(s int, row []float64, rs []reach) {
	for c := range rs {
		r := keyorder.RankBits(math.Float64bits(row[c]))
		rs[c] = reach{r, r, 0}
	}
	for w := 0; w*64 < b.used; w++ {
		alive := b.alive(w)
		if w == s/64 {
			alive &^= 1 << (s % 64)
		}
		for ; alive != 0; alive &= alive - 1 {
			l := w*64 + bits.TrailingZeros64(alive)
			for c := range rs {
				rs[c].add(b.rank(l, c))
			}
		}
	}
}

// refill writes row into slot s of the packed block b. A value that its
// column's frame does not hold becomes an exception: the row's code there
// is the mark and the value's rank goes into the block's exceptions — until
// the exceptions would take more heap than the repack that holds them all
// would add to the codes array, or the frame is not marked; then the block
// packs anew (repack). The test reads each column's reach, O(1) a write;
// it measures the reaches over the live rows only when the block has no
// exceptions yet or a delete left them stale.
func (b *block) refill(s int, row []float64) {
	width := len(b.frames)
	miss := 0
	for c := range b.frames {
		f := &b.frames[c]
		if !f.fits(keyorder.RankBits(math.Float64bits(row[c]))) {
			if !f.marked {
				b.repack(s, row, nil)
				return
			}
			miss++
		}
	}
	p := b.x
	if miss > 0 {
		var stack [8]reach
		var rs []reach
		if p != nil && !p.stale {
			rs = p.reach
			for c := range rs {
				rs[c].add(keyorder.RankBits(math.Float64bits(row[c])))
			}
		} else {
			if p != nil {
				rs = p.reach
			} else if width <= len(stack) {
				rs = stack[:width]
			} else {
				rs = make([]reach, width)
			}
			b.reaches(s, row, rs)
		}
		stride := 0
		for _, r := range rs {
			_, w := forcode.Derive(r.lo, r.hi, r.diff)
			stride += int(w)
		}
		n := miss
		if p != nil {
			n += len(p.slot)
		}
		xheap := heapsize.Of(int(unsafe.Sizeof(patches{})), true) + heapsize.Of(width*int(unsafe.Sizeof(reach{})), false) +
			heapsize.Of(2*n, false) + heapsize.Of(8*n, false)
		if p != nil {
			xheap = p.heap(n)
		}
		if heapsize.Of(len(b.codes), false)+xheap > heapsize.Of(BlockRows*stride, false) {
			b.repack(s, row, rs)
			return
		}
		if p == nil {
			p = &patches{reach: slices.Clone(rs)}
			b.x = p
		}
		p.stale = false
		i, _ := slices.BinarySearch(p.slot, uint16(s))
		old := len(p.slot)
		p.slot, p.rank = grow(p.slot, old+miss, 2), grow(p.rank, old+miss, 8)
		copy(p.slot[i+miss:], p.slot[i:old])
		copy(p.rank[i+miss:], p.rank[i:old])
		for c := range b.frames {
			if r := keyorder.RankBits(math.Float64bits(row[c])); !b.frames[c].fits(r) {
				p.slot[i], p.rank[i] = uint16(s), r
				i++
			}
		}
	} else if p != nil {
		for c := range p.reach {
			p.reach[c].add(keyorder.RankBits(math.Float64bits(row[c])))
		}
	}
	codes := b.codes[s*b.stride:]
	for c := range b.frames {
		f := &b.frames[c]
		if r := keyorder.RankBits(math.Float64bits(row[c])); f.fits(r) {
			f.put(codes, r)
		} else {
			f.putCode(codes, f.mask)
		}
	}
}

// repack codes the block anew, row in slot s among its live rows, under
// the tightest frames, straight from the old codes and exceptions into the
// new codes array: it allocates that array and the frames alone. rs, when
// not nil, holds each column's reach over those rows.
func (b *block) repack(s int, row []float64, rs []reach) {
	width := len(b.frames)
	if rs == nil {
		var stack [8]reach
		if width <= len(stack) {
			rs = stack[:width]
		} else {
			rs = make([]reach, width)
		}
		b.reaches(s, row, rs)
	}
	frames := make([]frame, width)
	stride := 0
	for c, r := range rs {
		frames[c] = newFrame(r.lo, r.hi, r.diff, stride)
		stride += int(frames[c].w)
	}
	codes := make([]byte, heapsize.Of(BlockRows*stride, false))
	for w := 0; w*64 < b.used; w++ {
		for alive := b.alive(w); alive != 0; alive &= alive - 1 {
			l := w*64 + bits.TrailingZeros64(alive)
			dst := codes[l*stride:]
			for c := range frames {
				if frames[c].w == 0 {
					continue
				}
				if l == s {
					frames[c].put(dst, keyorder.RankBits(math.Float64bits(row[c])))
				} else {
					frames[c].put(dst, b.rank(l, c))
				}
			}
		}
	}
	b.codes, b.frames, b.stride, b.x = codes, frames, stride, nil
}

// forget drops the exceptions of the row in slot s, which is being
// deleted, and marks the reaches stale when one of its ranks is at an edge.
func (b *block) forget(s int) {
	p := b.x
	for c := range p.reach {
		if r := b.rank(s, c); r == p.reach[c].lo || r == p.reach[c].hi {
			p.stale = true
		}
	}
	i, _ := slices.BinarySearch(p.slot, uint16(s))
	j := i
	for j < len(p.slot) && p.slot[j] == uint16(s) {
		j++
	}
	if j == i {
		return
	}
	if len(p.slot) == j-i {
		b.x = nil
		return
	}
	p.slot = slices.Delete(p.slot, i, j)
	p.rank = slices.Delete(p.rank, i, j)
}

// pack codes data, the block's rows, under the narrowest frames that hold
// them. Every slot of data holds a row.
func (b *block) pack(data []float64, width int) {
	// Each column's frame, from one pass down it: its smallest and largest
	// rank, and the bits in which some rank differs from the first row's,
	// the lowest of which is the grid.
	frames := make([]frame, width)
	stride := 0
	for c := range frames {
		ref := keyorder.RankBits(math.Float64bits(data[c]))
		lo, hi, diff := ref, ref, uint64(0)
		for i := c; i < len(data); i += width {
			r := keyorder.RankBits(math.Float64bits(data[i]))
			lo, hi, diff = min(lo, r), max(hi, r), diff|(r^ref)
		}
		frames[c] = newFrame(lo, hi, diff, stride)
		stride += int(frames[c].w)
	}
	// The array is as long as the allocator makes it: the rounding is spare
	// bytes the last rows' 8-byte loads may reach into.
	codes := make([]byte, heapsize.Of(BlockRows*stride, false))
	// A column at a time: each code is written with one 8-byte
	// read-modify-write — but in the last rows, which have no 8 bytes after
	// the code, where it is written byte by byte.
	for c := range frames {
		f := frames[c]
		if f.w == 0 {
			continue
		}
		i, q := c, int(f.off)
		for ; i < len(data) && q+8 <= len(codes); i, q = i+width, q+stride {
			forcode.Store(codes, q, forcode.Code(keyorder.RankBits(math.Float64bits(data[i])), f.base, f.shift), f.mask)
		}
		for ; i < len(data); i, q = i+width, q+stride {
			f.put(codes[q-int(f.off):], keyorder.RankBits(math.Float64bits(data[i])))
		}
	}
	b.codes, b.frames, b.stride, b.data = codes, frames, stride, nil
}

// Table is a row store whose deletes free the row's slot for the next
// insert. It is safe for one writer and any number of concurrent readers:
// mutations take the write latch, reads and scans the read latch. Scans
// hold the read latch for their full duration, so long scans (e.g. TRS-Tree
// reorganization rescans) briefly delay writers.
type Table struct {
	mu     sync.RWMutex
	width  int
	blocks []*block
	// holes stacks the blocks that have a free slot. An insert fills the top
	// block's slots lowest first, so refills stay within one block until it
	// is full again.
	holes []uint32
	// spare is the float64 array of the block packed last, kept while the
	// next insert appends a block to fill.
	spare   []float64
	live    int // rows inserted minus rows deleted
	deleted int // free slots: rows deleted and not yet overwritten
}

// NewTable creates a table with the given number of float64 columns.
func NewTable(width int) *Table {
	if width <= 0 {
		panic("storage: table width must be positive")
	}
	return &Table{width: width}
}

// Width returns the number of columns.
func (t *Table) Width() int { return t.width }

// Len returns the number of live (non-deleted) rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Deleted returns the number of free slots: rows deleted whose slot no
// insert has filled yet.
func (t *Table) Deleted() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.deleted
}

// Insert stores a copy of row in a free slot, or appends it when there is
// none, and returns its RID.
func (t *Table) Insert(row []float64) (RID, error) {
	if len(row) != t.width {
		return 0, ErrBadRow
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.live++
	var b *block
	var bi int
	var slot uint16
	if n := len(t.holes); n > 0 {
		bi = int(t.holes[n-1])
		b = t.blocks[bi]
		slot = b.takeFree()
		if b.free == 0 {
			t.holes = t.holes[:n-1]
		}
		t.deleted--
	} else {
		if len(t.blocks) == 0 || t.blocks[len(t.blocks)-1].used == BlockRows {
			t.blocks = append(t.blocks, &block{dead: make([]uint64, BlockRows/64)})
		}
		bi = len(t.blocks) - 1
		b = t.blocks[bi]
		slot = uint16(b.used)
		b.used++
	}
	t.put(b, int(slot), row)
	return MakeRID(uint64(bi), slot), nil
}

// put writes row into slot s of b, which the caller has just claimed.
func (t *Table) put(b *block, s int, row []float64) {
	w := t.width
	if b.frames != nil {
		b.refill(s, row)
		return
	}
	if b.data == nil {
		b.data, t.spare = t.spare, nil
		if b.data == nil {
			b.data = make([]float64, BlockRows*w)
		}
	}
	copy(b.data[s*w:], row)
	if b.used == BlockRows && b.free == 0 {
		data := b.data
		b.pack(data, w)
		if len(t.holes) == 0 {
			// The next insert appends a block: it takes this array.
			t.spare = data
		}
	}
}

// row returns the block and slot for rid after bounds checking.
func (t *Table) row(rid RID) (*block, uint16, error) {
	bi := rid.Block()
	if bi >= uint64(len(t.blocks)) {
		return nil, 0, ErrOutOfBounds
	}
	b := t.blocks[bi]
	slot := rid.Slot()
	if int(slot) >= b.used {
		return nil, 0, ErrOutOfBounds
	}
	if b.isDead(slot) {
		return nil, 0, ErrTombstoned
	}
	return b, slot, nil
}

// Get copies the row at rid into dst (allocating if dst is too small) and
// returns it.
func (t *Table) Get(rid RID, dst []float64) ([]float64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	b, slot, err := t.row(rid)
	if err != nil {
		return nil, err
	}
	if cap(dst) < t.width {
		dst = make([]float64, t.width)
	}
	dst = dst[:t.width]
	b.decode(int(slot), dst)
	return dst, nil
}

// GetRun copies the rows at rids, in that order and back to back, into dst
// (allocating if dst is too small) under one hold of the read latch: what a
// caller that materialises many rows pays instead of a latch round-trip per
// row. It fails on the first RID that names no row.
func (t *Table) GetRun(rids []RID, dst []float64) ([]float64, error) {
	need := len(rids) * t.width
	if cap(dst) < need {
		dst = make([]float64, need)
	}
	dst = dst[:need]
	t.mu.RLock()
	defer t.mu.RUnlock()
	// The first pass checks every RID and touches the first and the last
	// byte of each packed row, so that the cache misses of the whole run are
	// under way together before the second pass decodes one row after
	// another.
	var touch byte
	for _, rid := range rids {
		b, slot, err := t.row(rid)
		if err != nil {
			return nil, fmt.Errorf("storage: row %v: %w", rid, err)
		}
		if p := int(slot) * b.stride; p < len(b.codes) {
			touch += b.codes[p] + b.codes[p+b.stride-1]
		}
	}
	runtime.KeepAlive(touch) // or the compiler drops the loads
	w := t.width
	for i, rid := range rids {
		t.blocks[rid.Block()].decode(int(rid.Slot()), dst[i*w:i*w+w])
	}
	return dst, nil
}

// ValueRun copies column col of the rows at rids, in that order, into dst
// (allocating if dst is too small) under one hold of the read latch, as
// GetRun does whole rows: it decodes that column alone. It fails on the
// first RID that names no row.
func (t *Table) ValueRun(rids []RID, col int, dst []float64) ([]float64, error) {
	if col < 0 || col >= t.width {
		return nil, ErrBadColumn
	}
	if cap(dst) < len(rids) {
		dst = make([]float64, len(rids))
	}
	dst = dst[:len(rids)]
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i, rid := range rids {
		b, slot, err := t.row(rid)
		if err != nil {
			return nil, fmt.Errorf("storage: row %v: %w", rid, err)
		}
		dst[i] = b.at(int(slot), col, t.width)
	}
	return dst, nil
}

// Delete removes the row at rid and frees its slot for a later insert; the
// block's rows go with the last of them (the slot bookkeeping stays, so the
// next insert into the block finds the same slots in the same order and
// fills the block anew). Deleting an already-deleted row is an error so that
// index maintenance bugs surface instead of silently passing.
func (t *Table) Delete(rid RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, slot, err := t.row(rid)
	if err != nil {
		return err
	}
	b.setDead(slot)
	if b.free == 1 {
		t.holes = append(t.holes, uint32(rid.Block()))
	}
	if b.free == b.used {
		b.data, b.codes, b.frames, b.stride, b.x = nil, nil, nil, 0, nil
	} else if b.x != nil {
		b.forget(int(slot))
	}
	t.live--
	t.deleted++
	return nil
}

// Scan calls fn for every live row in RID order. The row slice is reused
// between calls; fn must not retain it. Scanning stops early if fn returns
// false.
func (t *Table) Scan(fn func(rid RID, row []float64) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	buf := make([]float64, t.width)
	for bi, b := range t.blocks {
		for w := 0; w*64 < b.used; w++ {
			for alive := b.alive(w); alive != 0; alive &= alive - 1 {
				s := w*64 + bits.TrailingZeros64(alive)
				b.decode(s, buf)
				if !fn(MakeRID(uint64(bi), uint16(s)), buf) {
					return
				}
			}
		}
	}
}

// ScanColumn calls fn with (rid, value) for every live row, reading only one
// column. Used by TRS-Tree construction and reorganization, which project
// (target, host) pairs out of the base table (Algorithm 1's temporary table).
func (t *Table) ScanColumn(col int, fn func(rid RID, v float64) bool) error {
	if col < 0 || col >= t.width {
		return ErrBadColumn
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.scanColumn(col, fn)
	return nil
}

// scanColumn is ScanColumn without latching; the caller holds t.mu.
func (t *Table) scanColumn(col int, fn func(rid RID, v float64) bool) {
	t.scanKeyed(col, col, col, func(rid RID, v, _, _ float64) bool { return fn(rid, v) })
}

// ScanPairs calls fn with the (target, host) projection of every live row.
func (t *Table) ScanPairs(target, host int, fn func(rid RID, m, n float64) bool) error {
	return t.ScanKeyed(target, host, target, func(rid RID, m, n, _ float64) bool { return fn(rid, m, n) })
}

// ScanKeyed is ScanPairs that also hands fn each row's value in column key,
// read in the scan's one hold of the read latch. A scan that needs a row's
// key must take it from here: fn must not call ValueRun or another latching
// method of t, as a second read latch waits behind any writer queued on the
// first, and that writer waits for the scan.
func (t *Table) ScanKeyed(target, host, key int, fn func(rid RID, m, n, k float64) bool) error {
	if target < 0 || target >= t.width || host < 0 || host >= t.width || key < 0 || key >= t.width {
		return ErrBadColumn
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.scanKeyed(target, host, key, fn)
	return nil
}

// scanKeyed is ScanKeyed without latching; the caller holds t.mu. Each
// block's frames are read once, before its rows, and a column named twice
// is decoded once.
func (t *Table) scanKeyed(target, host, key int, fn func(rid RID, m, n, k float64) bool) {
	width := t.width
	for bi, b := range t.blocks {
		data, x := b.data, b.x != nil
		var ft, fh, fk frame
		if b.frames != nil {
			ft, fh, fk = b.frames[target], b.frames[host], b.frames[key]
		} else if data == nil {
			continue
		}
		for w := 0; w*64 < b.used; w++ {
			for alive := b.alive(w); alive != 0; alive &= alive - 1 {
				s := w*64 + bits.TrailingZeros64(alive)
				rid := MakeRID(uint64(bi), uint16(s))
				var ok bool
				if data != nil {
					row := data[s*width : s*width+width]
					ok = fn(rid, row[target], row[host], row[key])
				} else if x {
					row, fast := b.packed(s)
					ok = fn(rid, b.cell(s, target, row, fast), b.cell(s, host, row, fast), b.cell(s, key, row, fast))
				} else if row, fast := b.packed(s); fast {
					m := ft.get(row)
					n := m
					if host != target {
						n = fh.get(row)
					}
					k := m
					switch key {
					case target:
					case host:
						k = n
					default:
						k = fk.get(row)
					}
					ok = fn(rid, m, n, k)
				} else {
					ok = fn(rid, ft.getTail(row), fh.getTail(row), fk.getTail(row))
				}
				if !ok {
					return
				}
			}
		}
	}
}

// ColumnBounds returns the min and max of a column over live rows.
// It returns ok=false for an empty table.
func (t *Table) ColumnBounds(col int) (lo, hi float64, ok bool) {
	if col < 0 || col >= t.width {
		return 0, 0, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	lo, hi = math.Inf(1), math.Inf(-1)
	t.scanColumn(col, func(_ RID, v float64) bool {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		ok = true
		return true
	})
	if !ok {
		return 0, 0, false
	}
	return lo, hi, true
}

// SizeBytes is the heap the table holds, as the allocator hands it out:
// every block's header, deletion bitmap (which is the free-slot set) and
// rows — float64s or codes, frames and exceptions, each array by its
// capacity; a wholly free block has none — the
// spare float64 array, and the arrays of blocks and of blocks with a free
// slot. Used by the memory-consumption experiments (Figs. 5, 7, 18–20).
func (t *Table) SizeBytes() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := heapsize.Of(cap(t.holes)*4, false) + heapsize.Of(cap(t.blocks)*8, true) + heapsize.Of(cap(t.spare)*8, false)
	for _, b := range t.blocks {
		s += heapsize.Of(int(unsafe.Sizeof(*b)), true) + heapsize.Of(len(b.dead)*8, false) +
			heapsize.Of(cap(b.data)*8, false) + heapsize.Of(cap(b.codes), false) +
			heapsize.Of(cap(b.frames)*int(unsafe.Sizeof(frame{})), false)
		if b.x != nil {
			s += b.x.heap(0)
		}
	}
	return s
}
