// Package storage implements the in-memory base-table substrate used by the
// main-memory engine (the paper's DBMS-X stand-in). A table's rows are
// tuples of float64 columns, kept in blocks of BlockRows rows; rows are
// addressed by record identifiers (RIDs) in the paper's "blockID+offset"
// physical-pointer format (§5.1).
//
// A block that is filling holds its rows as float64s. The insert that fills
// its last slot packs it frame-of-reference (Goldstein, Ramakrishnan and
// Shaft, ICDE 1998), column by column: each column has a frame — the grid
// its values' ranks sit on (shift), the bytes the span of their codes
// needs (w), and the rank code 0 stands for (base), far enough below the
// smallest that the unused codes split evenly below and above them — and
// a row is the concatenation of its codes, (rank(v) − base) >> shift in w
// bytes each, stride bytes in all. The rank is the float's bits with the
// order of the reals (rank), so a column of whole numbers, of values on a
// grid or of one value costs a byte or two, not eight, and every float64
// reads back bit for bit: −0, NaN payloads, ±Inf and subnormals included.
// An insert into a packed block writes the row's codes when they fit the
// frames and packs the block anew when one does not.
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
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"unsafe"

	"hermit/internal/heapsize"
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

// rank maps a float64 to a uint64 in the order of the reals: negative
// values below −0, −0 below +0, NaNs of either sign beyond the infinities.
// Unlike keyorder.Rank it keeps −0 apart from +0, so that it is one to one
// and unrank gives every value back bit for bit.
func rank(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// unrank inverts rank.
func unrank(r uint64) float64 {
	return math.Float64frombits(r ^ (^uint64(int64(r)>>63) | 1<<63))
}

// frame is how a packed block codes one column.
type frame struct {
	base uint64 // the rank code 0 stands for, at or below the column's smallest
	mask uint64 // the low w bytes: what a code may hold
	// Where every rank the codes stand for is on one side of +0, the
	// float's bits are linear in the code: zero + code*step, step 1<<shift
	// from +0 up and its negation below. Where they straddle +0 (mixed),
	// a code decodes through unrank.
	zero, step uint64
	off        uint32 // the code's byte offset in a row
	w          uint8  // the code's bytes, 0 to 8; 0 when the column holds one value
	shift      uint8  // every rank − base is a multiple of 1<<shift
	mixed      bool
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
	f.zero = math.Float64bits(unrank(base))
	if base>>63 == 0 {
		f.step = -f.step
	}
}

// value decodes code x.
func (f *frame) value(x uint64) float64 {
	if f.mixed {
		return unrank(f.base + x<<(f.shift&63))
	}
	return math.Float64frombits(f.zero + x*f.step)
}

// get decodes the column's code from row, a packed row with 8 bytes from
// the code on: one load.
func (f *frame) get(row []byte) float64 {
	return f.value(binary.LittleEndian.Uint64(row[f.off:]) & f.mask)
}

// getTail is get for a row at the end of its block, where the 8 bytes may
// run past the array: it reads the code's w bytes one by one.
func (f *frame) getTail(row []byte) float64 {
	var x uint64
	for i := int(f.off) + int(f.w) - 1; i >= int(f.off); i-- {
		x = x<<8 | uint64(row[i])
	}
	return f.value(x)
}

// fits reports whether rank r has a code in the frame.
func (f *frame) fits(r uint64) bool {
	d := r - f.base
	return r >= f.base && d&(1<<(f.shift&63)-1) == 0 && d>>(f.shift&63) <= f.mask
}

// put writes r's code into row, its w bytes alone: the bytes beyond them
// are another column's or another row's. Where 8 bytes follow the code it
// is one 8-byte load and store.
func (f *frame) put(row []byte, r uint64) {
	x := (r - f.base) >> (f.shift & 63)
	if q := int(f.off); q+8 <= len(row) {
		binary.LittleEndian.PutUint64(row[q:], binary.LittleEndian.Uint64(row[q:])&^f.mask|x)
		return
	}
	for i := int(f.off); i < int(f.off)+int(f.w); i++ {
		row[i] = byte(x)
		x >>= 8
	}
}

// block is one fixed-capacity arena of rows plus a deletion bitmap, which
// doubles as the block's free-slot set. Its rows are in data while it fills
// and in codes, under frames, once it is packed; a block whose every used
// slot is free has neither.
type block struct {
	data   []float64 // BlockRows * width values; nil when packed or wholly free
	codes  []byte    // BlockRows * stride bytes, and what the allocator rounds that up to
	frames []frame   // one per column; nil unless packed
	dead   []uint64  // bitmap, BlockRows bits: the free slots below used
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
	if fast {
		return b.frames[col].get(row)
	}
	return b.frames[col].getTail(row)
}

// pack codes data, the block's rows, under the narrowest frames that hold
// them. Every slot of data holds a row: a free slot, a copy of a live one.
func (b *block) pack(data []float64, width int) {
	// Each column's frame, from one pass down it: its smallest and largest
	// rank, and the bits in which some rank differs from the first row's,
	// the lowest of which is the grid.
	frames := make([]frame, width)
	stride := 0
	for c := range frames {
		ref := rank(data[c])
		lo, hi, diff := ref, ref, uint64(0)
		for i := c; i < len(data); i += width {
			r := rank(data[i])
			lo, hi, diff = min(lo, r), max(hi, r), diff|(r^ref)
		}
		f := &frames[c]
		f.off = uint32(stride)
		if diff != 0 {
			f.shift = uint8(bits.TrailingZeros64(diff))
		}
		f.w = uint8((bits.Len64((hi-lo)>>f.shift) + 7) / 8)
		f.mask = math.MaxUint64 >> (64 - 8*uint(f.w)) // 0 when w is 0
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
		stride += int(f.w)
	}
	// The array is as long as the allocator makes it: the rounding is spare
	// bytes the last rows' 8-byte loads may reach into.
	codes := make([]byte, heapsize.Of(BlockRows*stride, false))
	// A column at a time: each code is ORed into the zeroed array with one
	// 8-byte load and store, whose bytes beyond the code's w are zeros —
	// but in the last rows, which have no 8 bytes after the code, where it
	// is written byte by byte.
	for c := range frames {
		f := frames[c]
		if f.w == 0 {
			continue
		}
		base, shift := f.base, f.shift&63
		i, q := c, int(f.off)
		for ; i < len(data) && q+8 <= len(codes); i, q = i+width, q+stride {
			x := (rank(data[i]) - base) >> shift
			binary.LittleEndian.PutUint64(codes[q:], binary.LittleEndian.Uint64(codes[q:])|x)
		}
		for ; i < len(data); i, q = i+width, q+stride {
			f.put(codes[q-int(f.off):], rank(data[i]))
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
		for c := range b.frames {
			if !b.frames[c].fits(rank(row[c])) {
				// Pack the block anew, over its live rows and this one,
				// which stands in for the free slots too.
				data := make([]float64, BlockRows*w)
				for l := 0; l < BlockRows; l++ {
					if l == s || b.isDead(uint16(l)) {
						copy(data[l*w:], row)
					} else {
						b.decode(l, data[l*w:l*w+w])
					}
				}
				b.pack(data, w)
				return
			}
		}
		codes := b.codes[s*b.stride:]
		for c := range b.frames {
			b.frames[c].put(codes, rank(row[c]))
		}
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

// Value returns a single column of the row at rid. This is the hot path of
// Hermit's base-table validation step (§5.2 step 4), so it avoids copying
// the whole row.
func (t *Table) Value(rid RID, col int) (float64, error) {
	if col < 0 || col >= t.width {
		return 0, ErrBadColumn
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	b, slot, err := t.row(rid)
	if err != nil {
		return 0, err
	}
	return b.at(int(slot), col, t.width), nil
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
		b.data, b.codes, b.frames, b.stride = nil, nil, nil, 0
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
// key must take it from here: fn must not call Value or another latching
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
		data := b.data
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
// rows — float64s or codes and frames; a wholly free block has none — the
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
	}
	return s
}
