package block

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"hermit/internal/keyorder"
)

// entry is one key's change as the tests hold it: an upsert's row, or nil
// for a tombstone.
type entry struct {
	pk  float64
	row []float64
}

func sortEntries(entries []entry) {
	sort.Slice(entries, func(i, j int) bool {
		return keyorder.Rank(entries[i].pk) < keyorder.Rank(entries[j].pk)
	})
}

func mkEntries(n, width int, seed int64) []entry {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]entry, 0, n)
	seen := map[uint64]bool{}
	for len(entries) < n {
		pk := float64(rng.Intn(n * 4))
		if seen[KeyBits(pk)] {
			continue
		}
		seen[KeyBits(pk)] = true
		e := entry{pk: pk}
		if rng.Intn(4) != 0 {
			e.row = make([]float64, width)
			for j := range e.row {
				e.row[j] = rng.NormFloat64()
			}
			e.row[0] = pk
		}
		entries = append(entries, e)
	}
	sortEntries(entries)
	return entries
}

// encode is the block image of entries, as a Writer produces it.
func encode(width int, entries []entry) ([]byte, error) {
	var out bytes.Buffer
	w, err := newWriter(&out, width)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if err := w.Add(e.pk, e.row); err != nil {
			return nil, err
		}
	}
	if _, err := w.Finish(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

func mustEncode(t testing.TB, width int, entries []entry) []byte {
	t.Helper()
	raw, err := encode(width, entries)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func openImage(raw []byte) (*Handle, error) {
	return newHandle(bytes.NewReader(raw), int64(len(raw)), "image")
}

// readAll iterates every entry of the block.
func readAll(h *Handle) ([]entry, error) {
	var entries []entry
	err := Merge([]*Handle{h}, func(pk float64, row []float64) error {
		entries = append(entries, entry{pk, slices.Clone(row)})
		return nil
	})
	return entries, err
}

// decode opens a block image and iterates it.
func decode(raw []byte) ([]entry, int, error) {
	h, err := openImage(raw)
	if err != nil {
		return nil, 0, err
	}
	entries, err := readAll(h)
	return entries, h.Width(), err
}

func sameEntry(a, b entry) bool {
	if KeyBits(a.pk) != KeyBits(b.pk) || (a.row == nil) != (b.row == nil) || len(a.row) != len(b.row) {
		return false
	}
	for j := range a.row {
		if math.Float64bits(a.row[j]) != math.Float64bits(b.row[j]) {
			return false
		}
	}
	return true
}

// checkImage fails unless raw opens, iterates to exactly entries, and
// answers every key of entries, and the keys around them, as entries has
// them.
func checkImage(t *testing.T, raw []byte, width int, entries []entry) *Handle {
	t.Helper()
	h, err := openImage(raw)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if h.Width() != width || h.Desc().Count != uint64(len(entries)) {
		t.Fatalf("handle says width %d, %d entries; want %d, %d", h.Width(), h.Desc().Count, width, len(entries))
	}
	got, err := readAll(h)
	if err != nil {
		t.Fatalf("iterate: %v", err)
	}
	if len(got) != len(entries) {
		t.Fatalf("iterated %d entries, want %d", len(got), len(entries))
	}
	for i, e := range entries {
		if !sameEntry(got[i], e) {
			t.Fatalf("iterated entry %d: got %+v, want %+v", i, got[i], e)
		}
		if !h.MaybeContains(e.pk) {
			t.Fatalf("entry %d: bloom or fence false negative", i)
		}
		row, found, err := h.Get(e.pk)
		if err != nil || !found || !sameEntry(entry{e.pk, row}, e) {
			t.Fatalf("Get(%v) = %v found=%v err=%v, want %+v", e.pk, row, found, err, e)
		}
		// The key just above is absent unless it is the next entry's.
		next := math.Float64frombits(math.Float64bits(e.pk) + 1)
		if _, found, err := h.Get(next); err != nil || found && (i+1 == len(entries) || KeyBits(entries[i+1].pk) != KeyBits(next)) {
			t.Fatalf("Get finds absent key %v (err %v)", next, err)
		}
	}
	return h
}

func TestBlockRoundTrip(t *testing.T) {
	// From no page at all to dozens of them.
	for _, n := range []int{0, 1, 7, 63, 64, 65, 129, 500, 5000} {
		entries := mkEntries(n, 3, int64(n)+1)
		h := checkImage(t, mustEncode(t, 3, entries), 3, entries)
		if n == 5000 && h.pages < 30 {
			t.Fatalf("5000 entries in %d pages", h.pages)
		}
	}
	// Nothing but tombstones.
	tombs := []entry{{pk: 1}, {pk: 2}}
	checkImage(t, mustEncode(t, 1000, tombs), 1000, tombs)
	// Rows wider than a page: a page still holds a whole entry.
	wide := mkEntries(20, 1000, 5)
	h := checkImage(t, mustEncode(t, 1000, wide), 1000, wide)
	if h.pages < 10 {
		t.Fatalf("20 8 KB rows in %d pages", h.pages)
	}
	// The keys the order is total over.
	odd := []entry{{pk: math.Inf(-1), row: []float64{1}}, {pk: 0}, {pk: math.Inf(1), row: []float64{2}},
		{pk: math.NaN(), row: []float64{3}}, {pk: math.Float64frombits(0x7ff8000000000002)}}
	checkImage(t, mustEncode(t, 1, odd), 1, odd)
}

// The footer of raw, for tests that rewrite it.
func footerOf(raw []byte) []byte { return raw[len(raw)-footerLen:] }

// Offsets of footer fields.
const (
	footWidth = 0
	footPages = 4
	footCount = 8
	footMin   = 16
	footIndex = 32
	footBloom = 40
	footMeta  = 48
)

// resealFooter recomputes the footer's own checksum: an image that is
// inconsistent under a valid crc, as a hostile writer would produce it.
func resealFooter(raw []byte) {
	foot := footerOf(raw)
	binary.LittleEndian.PutUint32(foot[footerLen-4:], crc32.ChecksumIEEE(foot[:footerLen-4]))
}

// pageBounds returns where page i of the image starts and ends.
func pageBounds(t *testing.T, raw []byte, i int) (from, to int) {
	t.Helper()
	h, err := openImage(raw)
	if err == nil {
		err = h.load()
	}
	if err != nil {
		t.Fatal(err)
	}
	_, off, next := h.pageSpan(i)
	return int(off), int(next)
}

// resealPage recomputes page i's checksum.
func resealPage(t *testing.T, raw []byte, i int) {
	from, to := pageBounds(t, raw, i)
	binary.LittleEndian.PutUint32(raw[to-4:], crc32.ChecksumIEEE(raw[from:to-4]))
}

// What the footer claims is checked against the bytes present before
// anything is sized by it, and what a page claims against the page's own
// length: every inconsistency under a valid checksum is ErrCorrupt, at open
// for the footer and index, at the read for a page.
func TestDecodeRejectsInconsistentCounts(t *testing.T) {
	entries := []entry{{pk: 1}, {pk: 2}, {pk: 3, row: []float64{3}}}
	raw := mustEncode(t, 1, entries)
	footer := map[string]func(foot []byte){
		"no entries but a page":                func(f []byte) { f[footCount] = 0 },
		"more entries than the pages can hold": func(f []byte) { f[footCount+4] = 1 },
		"a page more than the index has":       func(f []byte) { f[footPages]++ },
		"no pages":                             func(f []byte) { f[footPages] = 0 },
		"width zero":                           func(f []byte) { f[footWidth] = 0 },
		"a width past the limit":               func(f []byte) { f[footWidth+2] = 2 },
		"an index that starts a byte late":     func(f []byte) { f[footIndex]++ },
		"an index past the file":               func(f []byte) { f[footIndex+4] = 1 },
		"a bloom that starts a byte late":      func(f []byte) { f[footBloom]++ },
		"a fence that ends before page 0":      func(f []byte) { binary.LittleEndian.PutUint64(f[footMin+8:], math.Float64bits(0.5)) },
	}
	for name, mutate := range footer {
		bad := slices.Clone(raw)
		mutate(footerOf(bad))
		resealFooter(bad)
		if _, err := openImage(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: open: %v", name, err)
		}
	}
	// A count that the sizes of the file's parts cannot refute (three keys or
	// four, the bloom is its minimum) is refuted by the iteration.
	for name, by := range map[string]byte{"one entry more than the pages hold": 1, "one entry fewer": 0xff} {
		bad := slices.Clone(raw)
		footerOf(bad)[footCount] += by
		resealFooter(bad)
		h, err := openImage(bad)
		if err != nil {
			t.Errorf("%s: open: %v", name, err)
		} else if _, err := readAll(h); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: iterate: %v", name, err)
		}
	}
	// A fence the sizes cannot refute is refuted by whichever reader comes.
	for name, at := range map[string]int{"a fence that starts after the first key": footMin, "a fence that ends after the last": footMin + 8} {
		bad := slices.Clone(raw)
		binary.LittleEndian.PutUint64(footerOf(bad)[at:], math.Float64bits(1.5+float64(at-footMin)/4))
		resealFooter(bad)
		h, err := openImage(bad)
		if err != nil {
			t.Errorf("%s: open: %v", name, err)
			continue
		}
		if _, err := readAll(h); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: iterate: %v", name, err)
		}
		if _, _, err := h.Get(3); at == footMin && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Get: %v", name, err)
		}
	}
	// The index and bloom are read by the first point read, and checked
	// then: another checksum in the footer, or — resealed — a page offset
	// off by one, a first key out of place. The iteration does not use them.
	h, err := openImage(raw)
	if err != nil {
		t.Fatal(err)
	}
	index := int(h.end)
	for name, at := range map[string]int{"another checksum for index and bloom": -1,
		"a page offset off by one": index + 8, "a first key that is not the fence's": index + 6} {
		bad := slices.Clone(raw)
		if at < 0 {
			footerOf(bad)[footMeta]++
		} else {
			bad[at]++
			meta := bad[index : len(bad)-footerLen]
			binary.LittleEndian.PutUint32(footerOf(bad)[footMeta:], crc32.ChecksumIEEE(meta))
		}
		resealFooter(bad)
		h, err := openImage(bad)
		if err != nil {
			t.Errorf("%s: open: %v", name, err)
			continue
		}
		if _, _, err := h.Get(3); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Get: %v", name, err)
		}
		if !h.MaybeContains(3) {
			t.Errorf("%s: a block whose bloom cannot be loaded was skipped", name)
		}
		if got, err := readAll(h); err != nil || len(got) != len(entries) {
			t.Errorf("%s: iterate: %d entries, %v", name, len(got), err)
		}
	}
	// The page: u16 n | 3 keys | 3 flags | 1 row | crc.
	const keys, flags = 8 + 2, 8 + 2 + 3*8
	page := map[string]func(b []byte){
		"one entry more than the page holds": func(b []byte) { b[8]++ },
		"one entry fewer":                    func(b []byte) { b[8]-- },
		"no entries":                         func(b []byte) { b[8] = 0 },
		"more entries than the page's bytes": func(b []byte) { b[9] = 1 },
		"a tombstone flagged as an upsert":   func(b []byte) { b[flags] = 0 },
		"an upsert flagged as a tombstone":   func(b []byte) { b[flags+2] = 1 },
		"a flag that is neither":             func(b []byte) { b[flags] = 2 },
		"a first key the index does not have": func(b []byte) {
			binary.LittleEndian.PutUint64(b[keys:], math.Float64bits(0.5))
		},
	}
	for name, mutate := range page {
		bad := slices.Clone(raw)
		mutate(bad)
		resealPage(t, bad, 0)
		h, err := openImage(bad)
		if err != nil {
			t.Errorf("%s: open: %v", name, err)
			continue
		}
		if _, _, err := h.Get(3); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Get: %v", name, err)
		}
		if _, err := readAll(h); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: iterate: %v", name, err)
		}
	}
	// Keys out of order under valid checksums: a point read may miss, the
	// iteration a merge or a recovery runs on must refuse.
	bad := slices.Clone(raw)
	binary.LittleEndian.PutUint64(bad[keys+8:], math.Float64bits(4))
	resealPage(t, bad, 0)
	if h, err := openImage(bad); err != nil {
		t.Errorf("unordered keys: open: %v", err)
	} else if _, err := readAll(h); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unordered keys: iterate: %v", err)
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	if _, err := encode(0, nil); err == nil {
		t.Fatal("width 0 accepted")
	}
	if _, err := encode(maxWidth+1, nil); err == nil {
		t.Fatal("width past the limit accepted")
	}
	if _, err := encode(2, []entry{{pk: 1, row: []float64{1}}}); err == nil {
		t.Fatal("wrong-width row accepted")
	}
	if _, err := encode(1, []entry{{pk: 2, row: []float64{2}}, {pk: 1, row: []float64{1}}}); err == nil {
		t.Fatal("unsorted entries accepted")
	}
	if _, err := encode(1, []entry{{pk: 1, row: []float64{1}}, {pk: 1}}); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if _, err := encode(1, []entry{{pk: 0, row: []float64{1}}, {pk: math.Copysign(0, -1)}}); err == nil {
		t.Fatal("-0 after +0 accepted as another key")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	entries := mkEntries(1000, 2, 9)
	raw := mustEncode(t, 2, entries)
	if _, err := openImage(raw[:4]); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("short magic: got %v", err)
	}
	wrong := slices.Clone(raw)
	wrong[0] = 'X'
	if _, err := openImage(wrong); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("wrong magic: got %v", err)
	}
	// A version-1 file: one checksum over header, bloom and entries. There is
	// no second reader.
	v1 := []byte{'H', 'B', 'L', 'K', 0, 0, 0, 1}
	v1 = appendU32(v1, 2)
	v1 = appendU64(v1, 0)
	v1 = appendF64(appendF64(v1, 0), 0)
	v1 = append(appendU32(v1, 8), make([]byte, 8)...)
	v1 = appendU32(v1, crc32.ChecksumIEEE(v1[8:]))
	if _, err := openImage(v1); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("version-1 image: got %v", err)
	}
	long := append(slices.Clone(v1), make([]byte, 100)...)
	if _, err := openImage(long); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("version-1 image longer than a footer: got %v", err)
	}

	h, err := openImage(raw)
	if err != nil {
		t.Fatal(err)
	}
	pages := h.pages
	if pages < 5 {
		t.Fatalf("only %d pages", pages)
	}
	// A flipped byte in the footer fails open; one in the index or the bloom
	// fails the point reads, which need them, and not the iteration.
	for _, off := range []int{len(raw) - footerLen + 9, len(raw) - 1} {
		bad := slices.Clone(raw)
		bad[off] ^= 0x40
		if _, err := openImage(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: open: %v", off, err)
		}
	}
	for _, off := range []int{int(h.end) + 3, len(raw) - footerLen - 5} {
		bad := slices.Clone(raw)
		bad[off] ^= 0x40
		h, err := openImage(bad)
		if err != nil {
			t.Fatalf("flip at %d: open: %v", off, err)
		}
		if _, _, err := h.Get(entries[0].pk); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: Get: %v", off, err)
		}
		if got, err := readAll(h); err != nil || len(got) != len(entries) {
			t.Fatalf("flip at %d: iterate: %d entries, %v", off, len(got), err)
		}
	}
	// A flipped byte in page k fails the reads that touch page k, and only
	// those: every other page still answers.
	for _, k := range []int{0, pages / 2, pages - 1} {
		from, to := pageBounds(t, raw, k)
		for _, off := range []int{from, (from + to) / 2, to - 1} {
			bad := slices.Clone(raw)
			bad[off] ^= 0x40
			h, err := openImage(bad)
			if err == nil {
				err = h.load()
			}
			if err != nil {
				t.Fatalf("page %d flip at %d: open: %v", k, off, err)
			}
			lo, hi := h.pageFirst(k), uint64(math.MaxUint64)
			if k+1 < pages {
				hi = h.pageFirst(k + 1)
			}
			for _, e := range entries {
				row, found, err := h.Get(e.pk)
				if r := keyorder.Rank(e.pk); r >= lo && r < hi {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("page %d flip at %d: Get(%v) in the page: %v", k, off, e.pk, err)
					}
				} else if err != nil || !found || !sameEntry(entry{e.pk, row}, e) {
					t.Fatalf("page %d flip at %d: Get(%v) in another page = %v found=%v err=%v", k, off, e.pk, row, found, err)
				}
			}
			got, err := readAll(h)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("page %d flip at %d: iteration: %v", k, off, err)
			}
			// The iteration delivered the pages before k intact.
			for i, e := range got {
				if !sameEntry(e, entries[i]) || keyorder.Rank(e.pk) >= lo {
					t.Fatalf("page %d flip: iteration delivered %+v at %d", k, e, i)
				}
			}
		}
	}
}

func TestDecodeTruncationSweep(t *testing.T) {
	raw := mustEncode(t, 2, mkEntries(400, 2, 4))
	for n := 0; n < len(raw); n++ {
		_, err := openImage(raw[:n])
		if want := ErrCorrupt; n < len(blockMagic) {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("truncation to %d/%d bytes: %v, want ErrBadFormat", n, len(raw), err)
			}
		} else if !errors.Is(err, want) {
			t.Fatalf("truncation to %d/%d bytes: %v, want %v", n, len(raw), err, want)
		}
	}
	// A file torn inside its footer, on disk.
	path := filepath.Join(t.TempDir(), "torn.blk")
	if err := os.WriteFile(path, raw[:len(raw)-footerLen/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Desc{Bytes: int64(len(raw) - footerLen/2)}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn footer: %v", err)
	}
}

func writeFile(t *testing.T, path string, width int, entries []entry) Desc {
	t.Helper()
	w, err := Create(path, width)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := w.Add(e.pk, e.row); err != nil {
			t.Fatal(err)
		}
	}
	desc, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return desc
}

func TestWriteReadHandle(t *testing.T) {
	dir := t.TempDir()
	entries := mkEntries(3000, 4, 11)
	path := filepath.Join(dir, "b.blk")
	desc := writeFile(t, path, 4, entries)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Count != uint64(len(entries)) || desc.Bytes != int64(len(raw)) {
		t.Fatalf("bad desc %+v for a %d-byte file", desc, len(raw))
	}
	if desc.MinKey != entries[0].pk || desc.MaxKey != entries[len(entries)-1].pk {
		t.Fatalf("fence %v..%v vs %v..%v", desc.MinKey, desc.MaxKey, entries[0].pk, entries[len(entries)-1].pk)
	}
	if !bytes.Equal(raw, mustEncode(t, 4, entries)) {
		t.Fatal("the file differs from the image of the same entries")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("temp file after Finish: %v", err)
	}

	h, err := Open(path, desc)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Desc() != desc {
		t.Fatalf("handle keeps %+v, opened with %+v", h.Desc(), desc)
	}
	if h.Width() != 4 || h.Desc().Count != desc.Count {
		t.Fatalf("handle: width %d, %d entries", h.Width(), h.Desc().Count)
	}
	for _, e := range entries {
		if !h.MaybeContains(e.pk) {
			t.Fatalf("false negative for pk %v", e.pk)
		}
		row, found, err := h.Get(e.pk)
		if err != nil || !found || !sameEntry(entry{e.pk, row}, e) {
			t.Fatalf("Get(%v) = %v found=%v err=%v, want %+v", e.pk, row, found, err, e)
		}
	}
	if h.MaybeContains(desc.MaxKey+1) || h.MaybeContains(desc.MinKey-1) {
		t.Fatal("fence did not exclude a key outside it")
	}
	for _, pk := range []float64{desc.MaxKey + 1, desc.MinKey - 1} {
		if _, found, err := h.Get(pk); err != nil || found {
			t.Fatalf("Get(%v) past the fence: %v found=%v", pk, err, found)
		}
	}
	// What stays in memory is the index and the bloom, not the entries —
	// and not even those for a block that is only merged.
	if per := float64(h.ResidentBytes()) / float64(len(entries)); per > 1.6 {
		t.Fatalf("handle holds %.2f B per entry", per)
	}
	merged, err := Open(path, desc)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	if got, err := readAll(merged); err != nil || len(got) != len(entries) {
		t.Fatalf("iterate: %d entries, %v", len(got), err)
	}
	if held := merged.ResidentBytes(); held > 512 {
		t.Fatalf("a handle that was only iterated holds %d B", held)
	}

	// An abandoned writer leaves nothing behind.
	gone := filepath.Join(dir, "gone.blk")
	w, err := Create(gone, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(1, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if names, _ := filepath.Glob(gone + "*"); len(names) != 0 {
		t.Fatalf("Abort left %v", names)
	}
}

func TestBloomSkipRate(t *testing.T) {
	entries := mkEntries(1000, 1, 3)
	present := map[uint64]bool{}
	for _, e := range entries {
		present[KeyBits(e.pk)] = true
	}
	bl := newBloom(len(entries))
	for _, e := range entries {
		bl.addHash(bloomHash(e.pk))
	}
	falsePos, probes := 0, 0
	for pk := float64(100000); pk < 110000; pk++ {
		if present[KeyBits(pk)] {
			continue
		}
		probes++
		if bl.maybeContains(pk) {
			falsePos++
		}
	}
	if rate := float64(falsePos) / float64(probes); rate > 0.05 {
		t.Fatalf("bloom false-positive rate %.3f > 5%%", rate)
	}
}

func TestHandleSurfacesIOErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gone.blk")
	desc := writeFile(t, path, 1, []entry{{pk: 1, row: []float64{1}}})
	h, err := Open(path, desc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	// An open handle outlives its file's name...
	if row, found, err := h.Get(1); err != nil || !found || row[0] != 1 {
		t.Fatalf("Get on an unlinked block = %v found=%v err=%v", row, found, err)
	}
	if _, err := Open(path, desc); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open of a missing file: %v", err)
	}
	// ...and a closed one must not silently skip: MaybeContains stays true
	// and Get reports the error.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if !h.MaybeContains(1) {
		t.Fatal("closed handle excluded a covered key")
	}
	if _, _, err := h.Get(1); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Get on a closed handle: %v", err)
	}
}

// failingReader fails its next `failures` reads at or beyond `from`, then
// reads through.
type failingReader struct {
	*bytes.Reader
	from     int64
	failures int
}

func (r *failingReader) ReadAt(p []byte, off int64) (int, error) {
	if off >= r.from && r.failures > 0 {
		r.failures--
		return 0, errors.New("injected read failure")
	}
	return r.Reader.ReadAt(p, off)
}

// lockedFailingReader is a failingReader several goroutines may read.
type lockedFailingReader struct {
	mu sync.Mutex
	failingReader
}

func (r *lockedFailingReader) ReadAt(p []byte, off int64) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failingReader.ReadAt(p, off)
}

// A read of the index and bloom that fails is tried again by the next
// caller; only corruption is remembered.
func TestHandleRetriesFailedLoad(t *testing.T) {
	raw := mustEncode(t, 1, []entry{{pk: 1, row: []float64{10}}, {pk: 2, row: []float64{20}}})
	src := &failingReader{Reader: bytes.NewReader(raw)}
	h, err := newHandle(src, int64(len(raw)), "flaky")
	if err != nil {
		t.Fatal(err)
	}
	src.from, src.failures = int64(h.end), 1
	if _, _, err := h.Get(2); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get through a failed meta read: err=%v", err)
	}
	if h.loaded.Load() {
		t.Fatal("a failed load published the index and bloom")
	}
	if row, found, err := h.Get(2); err != nil || !found || row[0] != 20 {
		t.Fatalf("Get after the read recovered = %v found=%v err=%v", row, found, err)
	}
	if h.MaybeContains(1.5) && !h.bloom.maybeContains(1.5) {
		t.Fatal("MaybeContains still answers true for a key the loaded bloom excludes")
	}

	// Several readers meeting a flaky load: each retries its own failure, and
	// they all end up reading through the one copy that loaded.
	flaky := &lockedFailingReader{failingReader: failingReader{Reader: bytes.NewReader(raw)}}
	if h, err = newHandle(flaky, int64(len(raw)), "contended"); err != nil {
		t.Fatal(err)
	}
	flaky.from, flaky.failures = int64(h.end), 3
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for try := 0; ; try++ {
				row, found, err := h.Get(1)
				if err == nil && found && row[0] == 10 {
					return
				}
				if err == nil || try == 4 {
					t.Errorf("contended Get = %v found=%v err=%v after %d tries", row, found, err, try)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Corrupt metadata stays corrupt without being read again.
	bad := slices.Clone(raw)
	bad[h.end] ^= 0xff
	src = &failingReader{Reader: bytes.NewReader(bad)}
	if h, err = newHandle(src, int64(len(bad)), "corrupt"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Get(2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on corrupt metadata: %v", err)
	}
	src.from, src.failures = int64(h.end), 1
	if _, _, err := h.Get(2); !errors.Is(err, ErrCorrupt) || src.failures != 1 {
		t.Fatalf("second Get on corrupt metadata: err=%v, metadata re-read=%v", err, src.failures != 1)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	entries := mkEntries(1000, 2, 8)
	a, b := mustEncode(t, 2, entries), mustEncode(t, 2, entries)
	if !bytes.Equal(a, b) {
		t.Fatal("the image of the same entries differs between two writers")
	}
	// Decoding and encoding again is the identity: the bytes are a function
	// of the entries alone.
	got, width, err := decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, mustEncode(t, width, got)) {
		t.Fatal("decode/encode is not the identity")
	}
}

// Merge is the newest-wins fold of its blocks, in key order, whatever the
// number of blocks and however their pages interleave.
func TestMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 30; round++ {
		k := 1 + rng.Intn(6)
		var blocks []*Handle
		fold := map[uint64]entry{}
		for b := 0; b < k; b++ {
			entries := mkEntries(rng.Intn(800), 2, rng.Int63())
			h, err := openImage(mustEncode(t, 2, entries))
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, h)
			for _, e := range entries {
				fold[KeyBits(e.pk)] = e
			}
		}
		want := make([]entry, 0, len(fold))
		for _, e := range fold {
			want = append(want, e)
		}
		sortEntries(want)
		var got []entry
		if err := Merge(blocks, func(pk float64, row []float64) error {
			got = append(got, entry{pk, slices.Clone(row)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: merged %d entries, fold has %d", round, len(got), len(want))
		}
		for i := range got {
			if !sameEntry(got[i], want[i]) {
				t.Fatalf("round %d entry %d: got %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
	if err := Merge(nil, nil); err != nil {
		t.Fatalf("Merge of nothing: %v", err)
	}
	a, _ := openImage(mustEncode(t, 1, []entry{{pk: 1}}))
	b, _ := openImage(mustEncode(t, 2, []entry{{pk: 1}}))
	if err := Merge([]*Handle{a, b}, func(float64, []float64) error { return nil }); err == nil {
		t.Fatal("Merge of blocks of two widths succeeded")
	}
	stop := errors.New("stop")
	if err := Merge([]*Handle{a}, func(float64, []float64) error { return stop }); !errors.Is(err, stop) {
		t.Fatalf("Merge did not return fn's error: %v", err)
	}
}

// BenchmarkGet is one warm point read: index search, one page from the
// operating system's cache, its checksum, the search inside it, the row.
func BenchmarkGet(b *testing.B) {
	entries := mkEntries(200_000, 4, 3)
	path := filepath.Join(b.TempDir(), "b.blk")
	w, err := Create(path, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		if err := w.Add(e.pk, e.row); err != nil {
			b.Fatal(err)
		}
	}
	desc, err := w.Finish()
	if err != nil {
		b.Fatal(err)
	}
	h, err := Open(path, desc)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[(i*7919)%len(entries)]
		if _, found, err := h.Get(e.pk); err != nil || !found {
			b.Fatalf("Get(%v): found=%v err=%v", e.pk, found, err)
		}
	}
}
