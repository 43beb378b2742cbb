// Package storage implements the in-memory base-table substrate used by the
// main-memory engine (the paper's DBMS-X stand-in). Tables are fixed-width
// rows of float64 columns stored in block-allocated arenas; rows are
// addressed by record identifiers (RIDs) in the paper's "blockID+offset"
// physical-pointer format (§5.1).
//
// A row never moves, so its RID is stable for as long as the row exists. A
// deleted row's slot is free, and the next insert fills a free slot before
// it appends: the arenas hold as many slots as the table has had rows at
// once, not as many as it has ever been given — and a block whose every slot
// is free gives its row array back until an insert needs it again. A RID
// therefore names a row
// only until that row is deleted — afterwards it reads ErrTombstoned, and
// after the slot's next insert it reads the new row. Whoever keeps RIDs
// across deletes (the engine's indexes and version chains) drops them
// before it deletes the row.
package storage

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
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

// block is one fixed-capacity arena of rows plus a deletion bitmap, which
// doubles as the block's free-slot set.
type block struct {
	data []float64 // BlockRows * width values; nil while every used slot is free
	dead []uint64  // bitmap, BlockRows bits: the free slots below used
	used int       // slots handed out so far (live or free)
	free int       // bits set in dead
}

func newBlock(width int) *block {
	return &block{
		data: make([]float64, BlockRows*width),
		dead: make([]uint64, BlockRows/64),
	}
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
	holes   []uint32
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
	if n := len(t.holes); n > 0 {
		bi := t.holes[n-1]
		b := t.blocks[bi]
		slot := b.takeFree()
		if b.free == 0 {
			t.holes = t.holes[:n-1]
		}
		t.deleted--
		if b.data == nil {
			b.data = make([]float64, BlockRows*t.width)
		}
		copy(b.data[int(slot)*t.width:], row)
		return MakeRID(uint64(bi), slot), nil
	}
	if len(t.blocks) == 0 || t.blocks[len(t.blocks)-1].used == BlockRows {
		t.blocks = append(t.blocks, newBlock(t.width))
	}
	b := t.blocks[len(t.blocks)-1]
	slot := uint16(b.used)
	if b.data == nil {
		b.data = make([]float64, BlockRows*t.width)
	}
	copy(b.data[int(slot)*t.width:], row)
	b.used++
	return MakeRID(uint64(len(t.blocks)-1), slot), nil
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
	copy(dst, b.data[int(slot)*t.width:int(slot+1)*t.width])
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
	for i, rid := range rids {
		b, slot, err := t.row(rid)
		if err != nil {
			return nil, fmt.Errorf("storage: row %v: %w", rid, err)
		}
		copy(dst[i*t.width:], b.data[int(slot)*t.width:int(slot+1)*t.width])
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
	return b.data[int(slot)*t.width+col], nil
}

// Set overwrites a single column of the row at rid.
func (t *Table) Set(rid RID, col int, v float64) error {
	if col < 0 || col >= t.width {
		return ErrBadColumn
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, slot, err := t.row(rid)
	if err != nil {
		return err
	}
	b.data[int(slot)*t.width+col] = v
	return nil
}

// Delete removes the row at rid and frees its slot for a later insert; the
// block's row array goes with the last of its rows (the slot bookkeeping
// stays, so the next insert into the block finds the same slots in the same
// order and makes the array anew). Deleting an already-deleted row is an error
// so that index maintenance bugs surface instead of silently passing.
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
		b.data = nil
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
		for s := 0; s < b.used; s++ {
			slot := uint16(s)
			if b.isDead(slot) {
				continue
			}
			copy(buf, b.data[s*t.width:(s+1)*t.width])
			if !fn(MakeRID(uint64(bi), slot), buf) {
				return
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
	return t.scanColumn(col, fn)
}

// scanColumn is ScanColumn without latching; the caller holds t.mu.
func (t *Table) scanColumn(col int, fn func(rid RID, v float64) bool) error {
	for bi, b := range t.blocks {
		for s := 0; s < b.used; s++ {
			slot := uint16(s)
			if b.isDead(slot) {
				continue
			}
			if !fn(MakeRID(uint64(bi), slot), b.data[s*t.width+col]) {
				return nil
			}
		}
	}
	return nil
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
	for bi, b := range t.blocks {
		for s := 0; s < b.used; s++ {
			slot := uint16(s)
			if b.isDead(slot) {
				continue
			}
			base := s * t.width
			if !fn(MakeRID(uint64(bi), slot), b.data[base+target], b.data[base+host], b.data[base+key]) {
				return nil
			}
		}
	}
	return nil
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
	err := t.scanColumn(col, func(_ RID, v float64) bool {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		ok = true
		return true
	})
	if err != nil || !ok {
		return 0, 0, false
	}
	return lo, hi, true
}

// SizeBytes estimates the heap footprint of the table: data arenas (a wholly
// free block has none), deletion bitmaps (which are the free-slot sets) and
// the stack of blocks with a free slot. Used by the memory-consumption
// experiments (Figs. 5, 7, 18–20).
func (t *Table) SizeBytes() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := uint64(cap(t.holes)) * 4
	for _, b := range t.blocks {
		s += uint64(len(b.data))*8 + uint64(len(b.dead))*8 + 16
	}
	return s
}
