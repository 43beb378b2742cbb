package block

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
	"unsafe"

	"hermit/internal/keyorder"
)

// Handle is an open block: its file and its footer, and — from the first
// point read on — its sparse index and bloom filter; the entries stay in the
// file. A handle that is only ever merged or recovered from never loads the
// index and bloom: Merge walks the pages in file order. MaybeContains
// answers from memory; Get reads the one page the index names. Safe for
// concurrent use, Close included: a read in flight when the handle is
// closed finishes, a later one fails with os.ErrClosed.
type Handle struct {
	name string
	// desc is the block as its footer gives it (count, size, fence) and, once
	// Open has held it to the manifest, the manifest's entry, ID and level.
	desc    Desc
	src     io.ReaderAt // the block's *os.File; a bytes.Reader in tests
	width   int
	pages   int
	minR    uint64 // ranks of the fence
	maxR    uint64
	end     uint64 // where the pages end and the index begins
	metaLen int    // bytes of index and bloom between end and the footer
	metaCRC uint32

	// The index and bloom, read by the first call that needs them; loaded
	// publishes them to every later one. corrupt is the one failure that is
	// remembered: the bytes will not get better. A failed read is not — the
	// next caller tries again.
	loaded  atomic.Bool
	loadMu  sync.Mutex
	corrupt error
	index   []byte // per page: f64 first key | u64 offset
	bloom   bloom
}

// Open opens the block file at path, checks its footer and holds the file
// to desc, the manifest's entry for it, which the handle keeps (Desc). Bytes
// that are not a version-2 block are ErrBadFormat; a torn, checksum-failing
// or self-contradicting footer is ErrCorrupt, and so is a file whose size,
// entry count or key fence is not the one desc records — the manifest is
// read from disk too.
func Open(path string, desc Desc) (*Handle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err == nil {
		var h *Handle
		if h, err = newHandle(f, st.Size(), path); err == nil {
			if got := h.desc; got.Bytes == desc.Bytes && got.Count == desc.Count &&
				h.minR == keyorder.Rank(desc.MinKey) && h.maxR == keyorder.Rank(desc.MaxKey) {
				h.desc = desc
				return h, nil
			}
			err = fmt.Errorf("block: %s: %d entries in %d bytes, the manifest says %d in %d, or another key fence: %w",
				path, h.desc.Count, h.desc.Bytes, desc.Count, desc.Bytes, ErrCorrupt)
		}
	}
	f.Close()
	return nil, err
}

// newHandle parses the footer of the size-byte block image behind src.
func newHandle(src io.ReaderAt, size int64, name string) (*Handle, error) {
	h := &Handle{name: name, src: src}
	if err := h.readFooter(size); err != nil {
		return nil, fmt.Errorf("block: %s: %w", name, err)
	}
	return h, nil
}

func (h *Handle) readFooter(size int64) error {
	if size < int64(len(blockMagic)) {
		return ErrBadFormat
	}
	magic := make([]byte, len(blockMagic))
	if _, err := h.src.ReadAt(magic, 0); err != nil {
		return err
	}
	if !bytes.Equal(magic, blockMagic) {
		return ErrBadFormat
	}
	if size < int64(len(blockMagic)+footerLen) {
		return ErrCorrupt
	}
	foot := make([]byte, footerLen)
	if _, err := h.src.ReadAt(foot, size-footerLen); err != nil {
		return err
	}
	c := &cursor{buf: foot}
	c.checkCRC()
	h.width = int(c.u32())
	pages := uint64(c.u32())
	h.desc = Desc{Count: c.u64(), Bytes: size, MinKey: c.f64(), MaxKey: c.f64()}
	h.end = c.u64()
	bloomOff := c.u64()
	h.metaCRC = c.u32()
	if c.err != nil {
		return c.err
	}
	// Every field is checked against the file's own length before anything
	// is sized by it: the index and bloom must fill exactly the bytes
	// between the pages and the footer, every page holds an entry, every
	// entry takes at least nine bytes of some page.
	metaEnd := uint64(size) - footerLen
	h.minR, h.maxR = keyorder.Rank(h.desc.MinKey), keyorder.Rank(h.desc.MaxKey)
	switch {
	case h.width <= 0 || h.width > maxWidth,
		h.end < uint64(len(blockMagic)) || h.end > metaEnd,
		bloomOff != h.end+pages*indexEntry || bloomOff > metaEnd,
		pages > h.desc.Count || (pages == 0) != (h.desc.Count == 0),
		h.desc.Count > (h.end-uint64(len(blockMagic)))/entryFixed,
		metaEnd-bloomOff != bloomBytes(h.desc.Count),
		h.desc.Count > 0 && h.minR > h.maxR:
		return ErrCorrupt
	}
	h.pages, h.metaLen = int(pages), int(metaEnd-h.end)
	return nil
}

// load makes the index and bloom resident: one atomic load once they are.
func (h *Handle) load() error {
	if h.loaded.Load() {
		return nil
	}
	return h.loadSlow()
}

func (h *Handle) loadSlow() error {
	h.loadMu.Lock()
	defer h.loadMu.Unlock()
	if h.loaded.Load() || h.corrupt != nil {
		return h.corrupt
	}
	if err := h.readMeta(); err != nil {
		err = fmt.Errorf("block: %s: %w", h.name, err)
		if errors.Is(err, ErrCorrupt) {
			h.corrupt = err
		}
		return err
	}
	h.loaded.Store(true)
	return nil
}

func (h *Handle) readMeta() error {
	meta := make([]byte, h.metaLen) // the file is that long: readFooter
	if _, err := h.src.ReadAt(meta, int64(h.end)); err != nil {
		return err
	}
	if crc32.ChecksumIEEE(meta) != h.metaCRC {
		return ErrCorrupt
	}
	h.index, h.bloom.bits = meta[:h.pages*indexEntry], meta[h.pages*indexEntry:]
	// The index: pages back to back from the magic to the index, first keys
	// ascending inside the fence.
	for i := 0; i < h.pages; i++ {
		first, off, next := h.pageSpan(i)
		switch {
		case i == 0 && (off != uint64(len(blockMagic)) || first != h.minR),
			i > 0 && first <= h.pageFirst(i-1),
			first > h.maxR,
			next <= off || next > h.end || next-off < pageFixed+entryFixed:
			return ErrCorrupt
		}
	}
	return nil
}

// pageSpan returns page i's first key, as a rank, and the file offsets it
// lies between: its own and the next page's (the index's, for the last).
func (h *Handle) pageSpan(i int) (first, off, next uint64) {
	e := h.index[i*indexEntry:]
	next = h.end
	if len(e) > indexEntry {
		next = binary.LittleEndian.Uint64(e[indexEntry+8:])
	}
	return h.pageFirst(i), binary.LittleEndian.Uint64(e[8:]), next
}

func (h *Handle) pageFirst(i int) uint64 {
	return keyorder.Rank(math.Float64frombits(binary.LittleEndian.Uint64(h.index[i*indexEntry:])))
}

// Close releases the block's file. A loaded index and bloom stay valid:
// MaybeContains keeps answering, reads fail with os.ErrClosed.
func (h *Handle) Close() error {
	if c, ok := h.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Width is the row width of the block's upserts.
func (h *Handle) Width() int { return h.width }

// Desc is the manifest entry the block was opened with: the footer's
// count, size and fence, and the ID and level Open was given.
func (h *Handle) Desc() Desc { return h.desc }

// ResidentBytes is the memory the open handle holds: the struct, and the
// index and bloom once a point read has loaded them.
func (h *Handle) ResidentBytes() int64 {
	n := int64(unsafe.Sizeof(*h)) + int64(len(h.name))
	if h.loaded.Load() {
		n += int64(h.metaLen)
	}
	return n
}

// MaybeContains reports whether pk could be present: the key fence, then
// the bloom filter. It reads no page. When the index and bloom cannot be
// loaded it reports true — the caller's Get surfaces the error rather than
// the block being silently skipped.
func (h *Handle) MaybeContains(pk float64) bool {
	if r := keyorder.Rank(pk); h.desc.Count == 0 || r < h.minR || r > h.maxR {
		return false
	}
	if h.load() != nil {
		return true
	}
	return h.bloom.maybeContains(pk)
}

// pagePool holds the buffers point reads decode a page in.
var pagePool = sync.Pool{New: func() any { return new([]byte) }}

// Get looks pk up in the one page that can hold it: found reports whether
// the block has an entry for the key, and a found entry with a nil row is a
// tombstone. The row is the caller's. A checksum or structure failure of
// the page read is ErrCorrupt; no other page is looked at.
func (h *Handle) Get(pk float64) (row []float64, found bool, err error) {
	if err := h.load(); err != nil {
		return nil, false, err
	}
	r := keyorder.Rank(pk)
	// The last page whose first key is at or below pk.
	lo, hi := 0, h.pages
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); h.pageFirst(mid) <= r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil, false, nil
	}
	buf := pagePool.Get().(*[]byte)
	defer pagePool.Put(buf)
	pg, err := h.readPage(lo-1, buf)
	if err != nil {
		return nil, false, err
	}
	i, n := 0, pg.n
	for i < n {
		if mid := int(uint(i+n) >> 1); pg.rank(mid) < r {
			i = mid + 1
		} else {
			n = mid
		}
	}
	if i == pg.n || pg.rank(i) != r {
		return nil, false, nil
	}
	if pg.flags[i] != 0 {
		return nil, true, nil
	}
	at, _ := upserts(pg.flags[:i])
	row = make([]float64, h.width)
	pg.row(at, row)
	return row, true, nil
}

// upserts counts the zero flags — the entries that carry a row — eight at a
// time; ok is false when a flag is neither 0 nor 1.
func upserts(flags []byte) (n int, ok bool) {
	n = len(flags)
	var other uint64
	for ; len(flags) >= 8; flags = flags[8:] {
		w := binary.LittleEndian.Uint64(flags)
		other |= w
		n -= bits.OnesCount64(w)
	}
	for _, f := range flags {
		other |= uint64(f)
		n -= int(f & 1)
	}
	return n, other&^0x0101010101010101 == 0
}

// page is one decoded page: views of its three columns in the read buffer.
type page struct {
	n     int
	keys  []byte
	flags []byte
	rows  []byte
}

func (p page) key(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(p.keys[8*i:]))
}

func (p page) rank(i int) uint64 { return keyorder.Rank(p.key(i)) }

// row decodes the page's at-th row into dst (len width).
func (p page) row(at int, dst []float64) {
	src := p.rows[at*8*len(dst):]
	for j := range dst {
		dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*j:]))
	}
}

// readPage reads page i into *buf (grown as needed) and decodes it; it must
// start with the key the index says it does.
func (h *Handle) readPage(i int, buf *[]byte) (page, error) {
	first, off, next := h.pageSpan(i)
	size := int(next - off)
	if cap(*buf) < size {
		*buf = make([]byte, max(size, pageSize))
	}
	b := (*buf)[:size]
	if _, err := h.src.ReadAt(b, int64(off)); err != nil {
		return page{}, fmt.Errorf("block: %s: page at %d: %w", h.name, off, err)
	}
	pg, ok := decodePage(b, h.width)
	if !ok || pg.rank(0) != first {
		return page{}, h.corruptPage(off)
	}
	return pg, nil
}

func (h *Handle) corruptPage(off uint64) error {
	return fmt.Errorf("block: %s: page at %d: %w", h.name, off, ErrCorrupt)
}

// pageLen is the encoded length of the page b begins with, as the page's
// own entry count and flags give it; when b is too short to tell, size is 0
// and need the length that would. ok is false for bytes no page begins with.
func pageLen(b []byte, width int) (size, need int, ok bool) {
	if len(b) < 2 {
		return 0, 2, true
	}
	n := int(binary.LittleEndian.Uint16(b))
	head := 2 + n*entryFixed
	if n == 0 {
		return 0, 0, false
	}
	if len(b) < head {
		return 0, head, true
	}
	rows, ok := upserts(b[2+8*n : head])
	return head + rows*8*width + 4, 0, ok
}

// decodePage checks a page's bytes — the checksum; the entry count, the
// flags and the rows must account for every byte — and returns its columns.
func decodePage(b []byte, width int) (page, bool) {
	if size, _, ok := pageLen(b, width); !ok || size != len(b) ||
		crc32.ChecksumIEEE(b[:size-4]) != binary.LittleEndian.Uint32(b[size-4:]) {
		return page{}, false
	}
	n := int(binary.LittleEndian.Uint16(b))
	return page{n: n, keys: b[2 : 2+8*n], flags: b[2+8*n : 2+9*n], rows: b[2+9*n : len(b)-4]}, true
}

// readAhead is how much of a block an iterator asks the file for at a time.
const readAhead = 64 << 10

// iter walks a block's entries in key order: the pages in file order, found
// by their own lengths (no index), read readAhead bytes at a time.
type iter struct {
	h     *Handle
	back  []byte // the read-ahead buffer
	buf   []byte // its unconsumed part: the file from pos on
	pos   uint64
	pg    page
	pages int
	i     int // the current entry in pg
	at    int // rows of pg consumed before the current entry
	seen  uint64

	live bool // an entry is current
	rank uint64
	err  error
}

// fill extends buf to at least need bytes of the file, or to the end of the
// pages if that comes first (buf is then shorter than need).
func (it *iter) fill(need int) error {
	want := min(uint64(max(need, readAhead)), it.h.end-it.pos)
	if uint64(cap(it.back)) < want {
		it.back = make([]byte, want)
	}
	have := copy(it.back[:want], it.buf)
	if _, err := it.h.src.ReadAt(it.back[have:want], int64(it.pos)+int64(have)); err != nil {
		return fmt.Errorf("block: %s: pages at %d: %w", it.h.name, it.pos, err)
	}
	it.buf = it.back[:want]
	return nil
}

// nextPage decodes the page at pos into pg and steps over it; done reports
// the end of the pages instead.
func (it *iter) nextPage() (done bool, err error) {
	if it.pos == it.h.end {
		return true, nil
	}
	// The page's length is in its own first bytes: its entry count, then
	// its flags. Read on until the whole page is in buf.
	size, need := 0, 2
	for size == 0 || len(it.buf) < size {
		if need = max(need, size); len(it.buf) < need {
			if err := it.fill(need); err != nil {
				return false, err
			}
			if len(it.buf) < need {
				return false, it.h.corruptPage(it.pos) // it would run past the pages' end
			}
		}
		var ok bool
		if size, need, ok = pageLen(it.buf, it.h.width); !ok {
			return false, it.h.corruptPage(it.pos)
		}
	}
	var ok bool
	if it.pg, ok = decodePage(it.buf[:size], it.h.width); !ok {
		return false, it.h.corruptPage(it.pos)
	}
	it.buf, it.pos = it.buf[size:], it.pos+uint64(size)
	it.pages++
	return false, nil
}

// advance moves to the next entry; live reports whether there is one. The
// keys must ascend across the whole block from one end of the footer's
// fence to the other, and entries and pages number what the footer says.
func (it *iter) advance() {
	prev, had := it.rank, it.live
	if had {
		it.at += int(it.pg.flags[it.i] ^ 1)
		it.i++
	}
	it.live = false
	if it.i == it.pg.n {
		var done bool
		if done, it.err = it.nextPage(); it.err != nil {
			return
		}
		if done {
			if it.seen != it.h.desc.Count || it.pages != it.h.pages || had && prev != it.h.maxR {
				it.err = fmt.Errorf("block: %s: %d entries in %d pages, footer says %d in %d, or another last key: %w",
					it.h.name, it.seen, it.pages, it.h.desc.Count, it.h.pages, ErrCorrupt)
			}
			return
		}
		it.i, it.at = 0, 0
	}
	it.rank = it.pg.rank(it.i)
	if had && it.rank <= prev || !had && it.rank != it.h.minR {
		it.err = fmt.Errorf("block: %s: keys out of order or outside the fence: %w", it.h.name, ErrCorrupt)
		return
	}
	it.seen++
	it.live = true
}

// Merge walks the union of the blocks' entries in key order and calls fn
// once per key: with the row of the newest block that has the key (blocks
// are given oldest first, as a stack orders them), or a nil row when
// that entry is a tombstone. The row is fn's only for the call. Merge holds
// readAhead bytes of each block, whatever the blocks' sizes; fn's first
// error, or the first unreadable page, ends it.
func Merge(blocks []*Handle, fn func(pk float64, row []float64) error) error {
	if len(blocks) == 0 {
		return nil
	}
	width := blocks[0].width
	its := make([]iter, len(blocks))
	for i, h := range blocks {
		if h.width != width {
			return fmt.Errorf("block: %s: width %d != %s's %d", h.name, h.width, blocks[0].name, width)
		}
		its[i] = iter{h: h, pos: uint64(len(blockMagic))}
		its[i].advance()
	}
	row := make([]float64, width)
	for {
		win := -1
		for i := range its {
			if its[i].err != nil {
				return its[i].err
			}
			// At equal keys the later, newer block wins.
			if its[i].live && (win < 0 || its[i].rank <= its[win].rank) {
				win = i
			}
		}
		if win < 0 {
			return nil
		}
		w := &its[win]
		pk, r := w.pg.key(w.i), w.rank
		var out []float64
		if w.pg.flags[w.i] == 0 {
			w.pg.row(w.at, row)
			out = row
		}
		if err := fn(pk, out); err != nil {
			return err
		}
		for i := range its {
			if its[i].live && its[i].rank == r {
				its[i].advance()
			}
		}
	}
}
