// Package block is the tiered block-storage layer under the durable
// engine: immutable, sorted, checksummed block files plus the versioned
// blocklist manifest that orders them.
//
// A block is one flush (or compaction merge) of row changes: upserts
// carrying a full row and tombstones marking a deleted key, sorted by
// primary key. Each block records a key-range fence (min/max key) and a
// bloom filter over its keys, so a point read can skip a cold block from
// its descriptor and file prefix alone. Replaying a table's blocklist
// oldest-to-newest — later entries winning per key — reconstructs exactly
// the rows live at the flush cut; the WAL tail past the manifest's cut
// finishes recovery.
//
// Layering: this package knows nothing about the engine, the WAL or
// MVCC timestamps — it only turns sorted entry sets into durable files
// and back. internal/engine's durable layer decides what goes into a
// block and when blocks merge.
//
// Both decoders (block files and the blocklist manifest) are sticky-error
// cursor parsers in the style of internal/server/proto: they never read
// past the buffer, validate every count against the bytes remaining
// before allocating, and reject trailing garbage, so arbitrary or
// truncated input can never panic or over-allocate (see fuzz_test.go).
package block

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"sort"
	"sync"

	"hermit/internal/keyorder"
)

// Decoding errors.
var (
	// ErrBadFormat is returned for bytes that are not a block or blocklist
	// of this format version (wrong magic, or a later version's).
	ErrBadFormat = errors.New("block: not a block format this version reads")
	// ErrCorrupt is returned for structurally invalid or checksum-failing
	// contents under a valid header.
	ErrCorrupt = errors.New("block: corrupt contents")
)

// blockMagic heads every block file: "HBLK" plus a big-endian format
// version. blocklistMagic heads the blocklist manifest the same way.
var (
	blockMagic     = []byte{'H', 'B', 'L', 'K', 0, 0, 0, 1}
	blocklistMagic = []byte{'H', 'B', 'L', 'L', 0, 0, 0, 1}
)

// maxWidth bounds the row width a decoder accepts — far above any real
// schema, far below anything that could make count*width overflow.
const maxWidth = 1 << 16

// Entry is one key's change in a block: a full-row upsert, or a tombstone
// recording that the key was deleted (Row nil).
type Entry struct {
	// PK is the primary key the entry applies to.
	PK float64
	// Row is the full row for an upsert; nil for a tombstone.
	Row []float64
	// Tombstone marks a deletion.
	Tombstone bool
}

// Desc describes one block in a blocklist: identity, compaction level,
// shape and key-range fence. Descs live in the blocklist manifest so a
// reader can skip a block without opening its file.
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

// covers reports whether pk falls inside the descriptor's key fence.
func (d Desc) covers(pk float64) bool {
	k := keyorder.Rank(pk)
	return k >= keyorder.Rank(d.MinKey) && k <= keyorder.Rank(d.MaxKey)
}

// SortEntries sorts entries by primary key under the package's total key
// order (the order Write requires).
func SortEntries(entries []Entry) {
	keys := make([]float64, len(entries))
	from := make([]uint64, len(entries))
	for i, e := range entries {
		keys[i], from[i] = e.PK, uint64(i)
	}
	keyorder.SortPairs(keys, from)
	sorted := make([]Entry, len(entries))
	for i, j := range from {
		sorted[i] = entries[j]
	}
	copy(entries, sorted)
}

// Encode serialises a block of entries (sorted by key; width is the row
// width every upsert must have). The layout, all little-endian:
//
//	magic "HBLK" + version
//	u32 width | u64 count | f64 minKey | f64 maxKey
//	u32 bloomLen | bloom bytes
//	count x ( f64 pk | u8 tombstone | width x f64 row if not tombstone )
//	u32 crc32 over everything after the magic
func Encode(width int, entries []Entry) ([]byte, error) {
	if width <= 0 || width > maxWidth {
		return nil, fmt.Errorf("block: width %d out of range", width)
	}
	bl := newBloom(len(entries))
	var minKey, maxKey float64
	for i, e := range entries {
		if !e.Tombstone && len(e.Row) != width {
			return nil, fmt.Errorf("block: entry %d row width %d, want %d", i, len(e.Row), width)
		}
		if i > 0 && keyorder.Rank(entries[i-1].PK) >= keyorder.Rank(e.PK) {
			return nil, fmt.Errorf("block: entries unsorted or duplicated at %d", i)
		}
		bl.add(e.PK)
	}
	if len(entries) > 0 {
		minKey, maxKey = entries[0].PK, entries[len(entries)-1].PK
	}
	out := append([]byte(nil), blockMagic...)
	out = appendU32(out, uint32(width))
	out = appendU64(out, uint64(len(entries)))
	out = appendF64(out, minKey)
	out = appendF64(out, maxKey)
	out = appendU32(out, uint32(len(bl.bits)))
	out = append(out, bl.bits...)
	for _, e := range entries {
		out = appendF64(out, e.PK)
		if e.Tombstone {
			out = append(out, 1)
			continue
		}
		out = append(out, 0)
		for _, v := range e.Row {
			out = appendF64(out, v)
		}
	}
	return appendU32(out, crc32.ChecksumIEEE(out[len(blockMagic):])), nil
}

// cursor is a sticky-error bounds-checked reader: after the first failure
// every accessor returns zero values and the error survives to done().
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

func (c *cursor) u8() uint8 {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
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

// remaining reports the bytes not yet consumed.
func (c *cursor) remaining() int { return len(c.buf) - c.off }

// checkMagic consumes and verifies a file magic; a mismatch is
// ErrBadFormat (a different format, not corruption of this one).
func (c *cursor) checkMagic(magic []byte) {
	b := c.take(len(magic))
	if c.err != nil {
		c.err = ErrBadFormat
		return
	}
	for i := range magic {
		if b[i] != magic[i] {
			c.err = ErrBadFormat
			return
		}
	}
}

// checkCRC verifies that the last 4 bytes of the buffer checksum
// everything between the magic and them, and truncates the cursor's view
// so body parsing cannot run into the checksum.
func (c *cursor) checkCRC(magicLen int) {
	if c.err != nil {
		return
	}
	if len(c.buf) < magicLen+4 {
		c.fail()
		return
	}
	body := c.buf[magicLen : len(c.buf)-4]
	stored := uint32(c.buf[len(c.buf)-4]) | uint32(c.buf[len(c.buf)-3])<<8 |
		uint32(c.buf[len(c.buf)-2])<<16 | uint32(c.buf[len(c.buf)-1])<<24
	if crc32.ChecksumIEEE(body) != stored {
		c.fail()
		return
	}
	c.buf = c.buf[:len(c.buf)-4]
}

// header is a decoded block-file prefix: everything needed to answer
// MaybeContains without touching the entries.
type header struct {
	width  int
	count  uint64
	minKey float64
	maxKey float64
	filter *bloom
	// body is the entry region (after the bloom, before the crc).
	body []byte
}

// decodeHeader parses the fixed header + bloom from a full block image.
func decodeHeader(raw []byte) (header, error) {
	c := &cursor{buf: raw}
	c.checkMagic(blockMagic)
	if c.err != nil {
		return header{}, c.err
	}
	c.checkCRC(len(blockMagic))
	var h header
	h.width = int(c.u32())
	h.count = c.u64()
	h.minKey = c.f64()
	h.maxKey = c.f64()
	bloomLen := int(c.u32())
	if c.err == nil && (h.width <= 0 || h.width > maxWidth) {
		c.fail()
	}
	if c.err == nil && bloomLen > c.remaining() {
		c.fail()
	}
	h.filter = bloomFromBytes(c.take(bloomLen))
	if c.err != nil {
		return header{}, c.err
	}
	// Every entry is at least 9 bytes (pk + flag): reject a count the
	// remaining bytes cannot possibly hold before any allocation.
	if h.count > uint64(c.remaining())/9 {
		return header{}, ErrCorrupt
	}
	h.body = c.buf[c.off:]
	return h, nil
}

// upserts returns the number of entries that carry a row. The body's
// length fixes it — every entry has nine bytes of key and flag, an upsert
// its row besides — so a reader can size what it decodes into before it
// has seen a single flag, by what the file holds and not by what it claims.
func (h header) upserts() (int, error) {
	rowBytes := len(h.body) - 9*int(h.count) // not negative: decodeHeader
	if rowBytes%(8*h.width) != 0 {
		return 0, ErrCorrupt
	}
	return rowBytes / (8 * h.width), nil
}

// decodeEntries runs the entry loop over a decoded header's body: for each
// entry it calls add, which stores the key and returns where the row is to
// be decoded (nil for a tombstone). Both readers of a block image — Decode
// and a Handle's cache — are this loop with their own add; add sees a row
// at most h.upserts() times.
func decodeEntries(h header, add func(pk float64, tombstone bool) []float64) error {
	left, err := h.upserts()
	if err != nil {
		return err
	}
	c := &cursor{buf: h.body}
	var prev uint64
	for i := uint64(0); i < h.count; i++ {
		pk := c.f64()
		flag := c.u8()
		if flag > 1 || flag == 0 && left == 0 {
			c.fail()
		}
		if c.err != nil {
			return c.err
		}
		k := keyorder.Rank(pk)
		if i > 0 && k <= prev {
			return ErrCorrupt
		}
		prev = k
		if flag == 0 {
			left--
		}
		for j, row := 0, add(pk, flag == 1); j < len(row); j++ {
			row[j] = c.f64()
		}
	}
	if c.remaining() != 0 {
		return ErrCorrupt
	}
	return nil
}

// Decode parses a full block image back into its entries.
func Decode(raw []byte) ([]Entry, int, error) {
	h, err := decodeHeader(raw)
	if err != nil {
		return nil, 0, err
	}
	entries := make([]Entry, 0, h.count)
	err = decodeEntries(h, func(pk float64, tombstone bool) []float64 {
		e := Entry{PK: pk, Tombstone: tombstone}
		if !tombstone {
			e.Row = make([]float64, h.width)
		}
		entries = append(entries, e)
		return e.Row
	})
	if err != nil {
		return nil, 0, err
	}
	return entries, h.width, nil
}

// Write encodes entries (sorted by key) and writes them as an immutable
// block file at path — temp file, fsync, atomic rename — returning the
// block's descriptor (ID zero; the caller owns identity and level).
func Write(path string, width int, level uint32, entries []Entry) (Desc, error) {
	raw, err := Encode(width, entries)
	if err != nil {
		return Desc{}, err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return Desc{}, err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return Desc{}, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return Desc{}, err
	}
	if err := f.Close(); err != nil {
		return Desc{}, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return Desc{}, err
	}
	d := Desc{Level: level, Count: uint64(len(entries)), Bytes: int64(len(raw))}
	if len(entries) > 0 {
		d.MinKey, d.MaxKey = entries[0].PK, entries[len(entries)-1].PK
	}
	return d, nil
}

// ReadAll loads and decodes the block file at path.
func ReadAll(path string) ([]Entry, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	entries, width, err := Decode(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("block: %s: %w", path, err)
	}
	return entries, width, nil
}

// flat is a decoded block laid out for point reads: the sorted keys, one
// arena holding the upserts' rows back to back, and a tombstone bitmap with,
// per 64-entry word, the number of rows before it, which is what places
// entry i's row in the arena. Five allocations a block and 8 x (1 + width)
// bytes an upsert, where a slice of Entry values pays a slice header and an
// allocation for each row.
type flat struct {
	filter *bloom
	width  int
	keys   []float64
	rows   []float64
	tombs  []uint64
	before []int // rows of the entries before tombs[w]'s
}

// decodeFlat parses a full block image into the flat form. Nothing of raw
// is retained.
func decodeFlat(raw []byte) (*flat, error) {
	h, err := decodeHeader(raw)
	if err != nil {
		return nil, err
	}
	upserts, err := h.upserts()
	if err != nil {
		return nil, err
	}
	w := h.width
	f := &flat{
		filter: bloomFromBytes(append([]byte(nil), h.filter.bits...)),
		width:  w,
		keys:   make([]float64, 0, h.count),
		rows:   make([]float64, 0, upserts*w),
		tombs:  make([]uint64, (h.count+63)/64),
	}
	f.before = make([]int, len(f.tombs))
	err = decodeEntries(h, func(pk float64, tombstone bool) []float64 {
		i, n := len(f.keys), len(f.rows)
		f.keys = append(f.keys, pk)
		if i%64 == 0 {
			f.before[i/64] = n / w
		}
		if tombstone {
			f.tombs[i/64] |= 1 << (i % 64)
			return nil
		}
		f.rows = f.rows[:n+w]
		return f.rows[n:]
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// get binary-searches the keys for pk. An upsert's Row is a view into the
// arena.
func (f *flat) get(pk float64) (Entry, bool) {
	k := keyorder.Rank(pk)
	i := sort.Search(len(f.keys), func(i int) bool {
		return keyorder.Rank(f.keys[i]) >= k
	})
	if i == len(f.keys) || keyorder.Rank(f.keys[i]) != k {
		return Entry{}, false
	}
	word, bit := f.tombs[i/64], uint64(1)<<(i%64)
	if word&bit != 0 {
		return Entry{PK: f.keys[i], Tombstone: true}, true
	}
	r := (f.before[i/64] + i%64 - bits.OnesCount64(word&(bit-1))) * f.width
	return Entry{PK: f.keys[i], Row: f.rows[r : r+f.width : r+f.width]}, true
}

// Handle is a lazily-loaded open block: the descriptor's fence answers
// the cheapest exclusion, the file's bloom the next, and only a surviving
// probe loads and caches the entries (in the flat form) for binary search.
// Safe for concurrent use.
type Handle struct {
	path string
	desc Desc

	once    sync.Once
	loadErr error
	cache   *flat
}

// NewHandle wraps the block file at path described by desc.
func NewHandle(path string, desc Desc) *Handle {
	return &Handle{path: path, desc: desc}
}

// Desc returns the handle's descriptor.
func (h *Handle) Desc() Desc { return h.desc }

// load reads the file once, caching bloom + entries.
func (h *Handle) load() error {
	h.once.Do(func() {
		raw, err := os.ReadFile(h.path)
		if err != nil {
			h.loadErr = err
			return
		}
		if h.cache, err = decodeFlat(raw); err != nil {
			h.loadErr = fmt.Errorf("block: %s: %w", h.path, err)
		}
	})
	return h.loadErr
}

// MaybeContains reports whether pk could be present: the key fence from
// the descriptor, then the bloom filter (loading the file on first use).
// An I/O or decode failure reports true — the caller's Get surfaces the
// real error rather than silently skipping a block.
func (h *Handle) MaybeContains(pk float64) bool {
	if h.desc.Count == 0 || !h.desc.covers(pk) {
		return false
	}
	if err := h.load(); err != nil {
		return true
	}
	return h.cache.filter.maybeContains(pk)
}

// Get binary-searches the block for pk. found reports whether the block
// has an entry for the key (the entry may be a tombstone). The entry's Row
// is a view into the handle's cache: read it, do not write it.
func (h *Handle) Get(pk float64) (e Entry, found bool, err error) {
	if err := h.load(); err != nil {
		return Entry{}, false, err
	}
	e, found = h.cache.get(pk)
	return e, found, nil
}
