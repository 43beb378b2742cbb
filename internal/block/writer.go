package block

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"hermit/internal/keyorder"
)

// The block file, all little-endian:
//
//	magic   "HBLK" + version 2
//	page*   u16 n | n x f64 key | n x u8 flag (1 = tombstone) |
//	        one width x f64 row per upsert, in entry order |
//	        u32 crc32 of the page before it
//	index   per page: f64 first key | u64 file offset of the page
//	bloom   the filter's bits, sized by the entry count
//	footer  u32 width | u32 pages | u64 count | f64 minKey | f64 maxKey |
//	        u64 index offset | u64 bloom offset | u32 crc32 of index+bloom |
//	        u32 crc32 of the footer before it
//
// A page takes entries while its encoding stays within pageSize, and always
// at least one, so where the pages break — and with it every byte of the
// file — is a function of the entries alone. Keys, flags and rows are
// columns within a page: a reader binary-searches the keys in place and
// finds entry i's row by counting the upserts before it.
//
// pageSize is what a point read pays for: the page is copied out of the
// operating system's cache and checksummed whole, and with the rest of the
// process's work between two reads those bytes come from memory, not from a
// processor cache. 2 KiB reads in about 0.4 us less than 4 KiB and costs
// 16 index bytes per fifty 4-column entries instead of per hundred.
const (
	pageSize    = 2048
	pageFixed   = 2 + 4 // entry count and checksum
	entryFixed  = 8 + 1 // key and flag
	indexEntry  = 8 + 8
	footerLen   = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 4
	writeBuffer = 64 << 10
)

// Writer streams entries, in key order, into a block file: pages go out as
// they fill, and the writer holds the page under construction, the index
// and one hash per key (the bloom's size follows from the final count) —
// never the entries.
type Writer struct {
	out   *bufio.Writer
	width int
	off   uint64 // bytes emitted so far
	err   error  // first write error; sticks

	// The page under construction, as its three columns.
	keys, flags, rows []byte

	index  []byte   // encoded index entries of the finished pages
	hashes []uint64 // bloom hash of every key added
	minKey float64
	last   float64 // the newest key, the fence's upper end
	lastR  uint64  // its rank

	// Set by Create: the temp file behind out and the path it is renamed to.
	f    *os.File
	path string
}

// newWriter starts a block of the given row width on out.
func newWriter(out io.Writer, width int) (*Writer, error) {
	if width <= 0 || width > maxWidth {
		return nil, fmt.Errorf("block: width %d out of range", width)
	}
	w := &Writer{out: bufio.NewWriterSize(out, writeBuffer), width: width}
	w.write(blockMagic)
	return w, nil
}

// Create starts a block file at path: the entries stream into path.tmp,
// which Finish makes durable and renames into place.
func Create(path string, width int) (*Writer, error) {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	w, err := newWriter(f, width)
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	w.f, w.path = f, path
	return w, nil
}

func (w *Writer) write(b []byte) {
	if w.err == nil {
		_, w.err = w.out.Write(b)
	}
	w.off += uint64(len(b))
}

// Add appends one entry: an upsert carrying row, or — row nil — a tombstone
// for pk. Keys must arrive strictly ascending under the package's key order.
// row is copied before Add returns.
func (w *Writer) Add(pk float64, row []float64) error {
	if row != nil && len(row) != w.width {
		return fmt.Errorf("block: entry %d row width %d, want %d", len(w.hashes), len(row), w.width)
	}
	r := keyorder.Rank(pk)
	if len(w.hashes) > 0 && r <= w.lastR {
		return fmt.Errorf("block: entries unsorted or duplicated at %d", len(w.hashes))
	}
	if len(w.hashes) == 0 {
		w.minKey = pk
	}
	size := entryFixed + 8*len(row)
	if len(w.keys) > 0 && pageFixed+len(w.keys)+len(w.flags)+len(w.rows)+size > pageSize {
		w.flushPage()
	}
	w.keys = binary.LittleEndian.AppendUint64(w.keys, math.Float64bits(pk))
	if row == nil {
		w.flags = append(w.flags, 1)
	} else {
		w.flags = append(w.flags, 0)
		for _, v := range row {
			w.rows = binary.LittleEndian.AppendUint64(w.rows, math.Float64bits(v))
		}
	}
	w.hashes = append(w.hashes, bloomHash(pk))
	w.last, w.lastR = pk, r
	return w.err
}

// flushPage emits the page under construction and its index entry.
func (w *Writer) flushPage() {
	w.index = append(w.index, w.keys[:8]...)
	w.index = binary.LittleEndian.AppendUint64(w.index, w.off)
	var head [2]byte
	binary.LittleEndian.PutUint16(head[:], uint16(len(w.flags)))
	crc := crc32.ChecksumIEEE(head[:])
	w.write(head[:])
	for _, col := range [][]byte{w.keys, w.flags, w.rows} {
		crc = crc32.Update(crc, crc32.IEEETable, col)
		w.write(col)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc)
	w.write(sum[:])
	w.keys, w.flags, w.rows = w.keys[:0], w.flags[:0], w.rows[:0]
}

// Finish completes the block — last page, index, bloom, footer — and, for a
// writer from Create, makes the file durable under its final name (fsync,
// close, atomic rename). It returns the block's descriptor, ID and Level
// zero: identity and tier are the caller's.
func (w *Writer) Finish() (Desc, error) {
	if len(w.flags) > 0 {
		w.flushPage()
	}
	indexOff := w.off
	bl := newBloom(len(w.hashes))
	for _, h := range w.hashes {
		bl.addHash(h)
	}
	w.write(w.index)
	bloomOff := w.off
	w.write(bl.bits)

	foot := make([]byte, 0, footerLen)
	foot = appendU32(foot, uint32(w.width))
	foot = appendU32(foot, uint32(len(w.index)/indexEntry))
	foot = appendU64(foot, uint64(len(w.hashes)))
	foot = appendF64(foot, w.minKey)
	foot = appendF64(foot, w.last)
	foot = appendU64(foot, indexOff)
	foot = appendU64(foot, bloomOff)
	foot = appendU32(foot, crc32.Update(crc32.ChecksumIEEE(w.index), crc32.IEEETable, bl.bits))
	foot = appendU32(foot, crc32.ChecksumIEEE(foot))
	w.write(foot)
	if w.err == nil {
		w.err = w.out.Flush()
	}
	if w.f != nil {
		if w.err == nil {
			w.err = w.f.Sync()
		}
		if cerr := w.f.Close(); w.err == nil {
			w.err = cerr
		}
		if w.err == nil {
			w.err = os.Rename(w.f.Name(), w.path)
		}
		if w.err != nil {
			os.Remove(w.f.Name())
		}
		w.f = nil
	}
	if w.err != nil {
		return Desc{}, w.err
	}
	return Desc{Count: uint64(len(w.hashes)), Bytes: int64(w.off), MinKey: w.minKey, MaxKey: w.last}, nil
}

// Abort abandons a block Create started, removing its temp file. It is a
// no-op after Finish.
func (w *Writer) Abort() {
	if w.f != nil {
		w.f.Close()
		os.Remove(w.f.Name())
		w.f = nil
	}
}
