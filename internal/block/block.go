// Package block is the tiered block-storage layer under the durable
// engine: immutable, sorted, checksummed block files, each described by the
// entry (Desc) the engine's manifest keeps for it.
//
// A block is one flush (or compaction merge) of row changes: upserts
// carrying a full row and tombstones marking a deleted key, sorted by
// primary key. Replaying a table's block stack oldest-to-newest — later
// entries winning per key — reconstructs exactly the rows live at the flush
// cut; the WAL tail past the manifest's cut finishes recovery.
//
// A block file is paged (the layout is drawn at Writer): the entries sit in
// pages of about 2 KiB, each page whole entries under its own checksum; a
// sparse index (first key and offset of every page), a bloom filter over the
// keys and a fixed-size footer follow them. An open Handle keeps the footer
// and, from its first point read on, the index and the bloom — about 1.6
// bytes an entry — and nothing of the entries: a point read is one ReadAt of
// one page, checked and searched in a pooled buffer, and Merge walks any
// number of blocks in file order, 64 KiB of each at a time, without index or
// bloom. The process keeps no page cache of its own; a page read twice comes
// from the operating system's.
//
// Layering: this package knows nothing about the engine, the WAL or
// MVCC timestamps — it only turns sorted entry streams into durable files
// and back, and keeps one table's open blocks as a Stack: the size-tiered
// run policy (which run merges next, how many are due), the newest-first
// point read and the totals. internal/engine's durable layer decides what
// goes into a block and when a checkpoint or compaction runs, and names
// the files: block IDs, paths and the order tables are walked in.
//
// The decoders (footer, index and pages) never read past the bytes they
// were given, validate every count and offset against the bytes present
// before allocating, and reject trailing garbage, so arbitrary or truncated
// input can never panic or over-allocate (see fuzz_test.go).
package block

import (
	"errors"
	"hash/crc32"
	"math"
)

// Decoding errors.
var (
	// ErrBadFormat is returned for bytes that are not a block of this
	// format version (wrong magic, or another version's).
	ErrBadFormat = errors.New("block: not a block format this version reads")
	// ErrCorrupt is returned for structurally invalid or checksum-failing
	// contents under a valid header.
	ErrCorrupt = errors.New("block: corrupt contents")
)

// blockMagic heads every block file: "HBLK" plus a big-endian format
// version (2, the paged layout; version 1 was one checksum over one file and
// is not read).
var blockMagic = []byte{'H', 'B', 'L', 'K', 0, 0, 0, 2}

// maxWidth bounds the row width a writer or reader accepts — far above any
// real schema, far below anything that could make count*width overflow.
const maxWidth = 1 << 16

// Desc describes one block of a stack: identity, compaction level, shape
// and key-range fence. The engine's manifest records one per block, so the
// durable layer plans merges and reports sizes without touching a file.
type Desc struct {
	// ID is the block's file identity, unique per database directory.
	ID uint64
	// Level is the compaction tier: 0 for a fresh flush, +1 per merge.
	Level uint32
	// Count is the entry count (upserts + tombstones).
	Count uint64
	// Bytes is the encoded file size.
	Bytes int64
	// MinKey/MaxKey fence the keys present (by keyorder.Rank; both inclusive).
	MinKey, MaxKey float64
}

// cursor is a sticky-error bounds-checked reader: after the first failure
// every accessor returns zero values and the error survives in err.
type cursor struct {
	buf []byte
	off int
	err error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = ErrCorrupt
	}
}

// take returns the next n bytes, or nil after marking the cursor failed
// when fewer remain. It never reads past the buffer.
func (c *cursor) take(n int) []byte {
	if c.err != nil || n < 0 || n > len(c.buf)-c.off {
		c.fail()
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (c *cursor) u64() uint64 {
	lo := c.u32()
	hi := c.u32()
	return uint64(lo) | uint64(hi)<<32
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// checkCRC verifies that the last 4 bytes of the buffer checksum
// everything before them, and truncates the cursor's view so body parsing
// cannot run into the checksum.
func (c *cursor) checkCRC() {
	if c.err != nil {
		return
	}
	if len(c.buf) < 4 {
		c.fail()
		return
	}
	body := c.buf[:len(c.buf)-4]
	stored := uint32(c.buf[len(c.buf)-4]) | uint32(c.buf[len(c.buf)-3])<<8 |
		uint32(c.buf[len(c.buf)-2])<<16 | uint32(c.buf[len(c.buf)-1])<<24
	if crc32.ChecksumIEEE(body) != stored {
		c.fail()
		return
	}
	c.buf = c.buf[:len(c.buf)-4]
}
