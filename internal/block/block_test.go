package block

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func mkEntries(n, width int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Entry, 0, n)
	seen := map[uint64]bool{}
	for len(entries) < n {
		pk := float64(rng.Intn(n * 4))
		if seen[KeyBits(pk)] {
			continue
		}
		seen[KeyBits(pk)] = true
		e := Entry{PK: pk}
		if rng.Intn(4) == 0 {
			e.Tombstone = true
		} else {
			e.Row = make([]float64, width)
			for j := range e.Row {
				e.Row[j] = rng.NormFloat64()
			}
			e.Row[0] = pk
		}
		entries = append(entries, e)
	}
	SortEntries(entries)
	return entries
}

// checkFlat fails unless raw decodes into the flat form and answers every
// key of entries, and the keys around them, as entries has them.
func checkFlat(t *testing.T, raw []byte, entries []Entry) {
	t.Helper()
	f, err := decodeFlat(raw)
	if err != nil {
		t.Fatalf("decodeFlat: %v", err)
	}
	for i, e := range entries {
		got, found := f.get(e.PK)
		if !found || KeyBits(got.PK) != KeyBits(e.PK) || got.Tombstone != e.Tombstone || len(got.Row) != len(e.Row) {
			t.Fatalf("flat entry %d: got %+v (found %v), want %+v", i, got, found, e)
		}
		for j := range e.Row {
			if math.Float64bits(got.Row[j]) != math.Float64bits(e.Row[j]) {
				t.Fatalf("flat entry %d col %d: got %v, want %v", i, j, got.Row[j], e.Row[j])
			}
		}
		if !f.filter.maybeContains(e.PK) {
			t.Fatalf("flat entry %d: bloom false negative", i)
		}
		// The key just above is absent unless it is the next entry's.
		next := math.Float64frombits(math.Float64bits(e.PK) + 1)
		if _, found := f.get(next); found && (i+1 == len(entries) || KeyBits(entries[i+1].PK) != KeyBits(next)) {
			t.Fatalf("flat form finds absent key %v", next)
		}
	}
	if rows := len(f.rows); cap(f.rows) != rows {
		t.Fatalf("flat arena holds %d values in an array of %d", rows, cap(f.rows))
	}
}

func TestBlockRoundTrip(t *testing.T) {
	// The sizes straddle the words of the flat form's tombstone bitmap.
	for _, n := range []int{0, 1, 7, 63, 64, 65, 129, 500} {
		entries := mkEntries(n, 3, int64(n)+1)
		raw, err := Encode(3, entries)
		if err != nil {
			t.Fatalf("Encode(n=%d): %v", n, err)
		}
		got, width, err := Decode(raw)
		if err != nil {
			t.Fatalf("Decode(n=%d): %v", n, err)
		}
		if width != 3 || len(got) != len(entries) {
			t.Fatalf("n=%d: got width %d, %d entries", n, width, len(got))
		}
		for i := range got {
			if got[i].PK != entries[i].PK || got[i].Tombstone != entries[i].Tombstone {
				t.Fatalf("entry %d mismatch: %+v vs %+v", i, got[i], entries[i])
			}
			if !got[i].Tombstone {
				for j := range got[i].Row {
					if got[i].Row[j] != entries[i].Row[j] {
						t.Fatalf("entry %d col %d mismatch", i, j)
					}
				}
			}
		}
		checkFlat(t, raw, entries)
	}
	// Nothing but tombstones: no arena at all.
	tombs := []Entry{{PK: 1, Tombstone: true}, {PK: 2, Tombstone: true}}
	raw, err := Encode(1000, tombs)
	if err != nil {
		t.Fatal(err)
	}
	checkFlat(t, raw, tombs)
}

// resealed returns raw with its checksum recomputed: an image that is
// corrupt under a valid crc, as a hostile writer would produce it.
func resealed(raw []byte) []byte {
	out := append([]byte(nil), raw[:len(raw)-4]...)
	return appendU32(out, crc32.ChecksumIEEE(out[len(blockMagic):]))
}

// The two decoders size what they allocate by the bytes present, whatever
// the header and the flags claim, and agree on what is corrupt.
func TestDecodeRejectsInconsistentCounts(t *testing.T) {
	entries := []Entry{{PK: 1, Tombstone: true}, {PK: 2, Tombstone: true}, {PK: 3, Row: []float64{3}}}
	raw, err := Encode(1, entries)
	if err != nil {
		t.Fatal(err)
	}
	const countAt, widthAt = 8 + 4, 8
	body := len(raw) - 4 - (9 + 9 + 17) // where the entries start
	mutations := map[string]func(b []byte){
		"one entry more than the bytes hold":  func(b []byte) { b[countAt]++ },
		"one entry fewer":                     func(b []byte) { b[countAt]-- },
		"a wider row than the bytes hold":     func(b []byte) { b[widthAt] = 2 },
		"a width only a huge arena could fit": func(b []byte) { b[widthAt+1] = 0xff },
		"a tombstone flagged as an upsert":    func(b []byte) { b[body+8] = 0 },
		"an upsert flagged as a tombstone":    func(b []byte) { b[body+18+8] = 1 },
		"a flag that is neither":              func(b []byte) { b[body+8] = 2 },
	}
	for name, mutate := range mutations {
		bad := append([]byte(nil), raw...)
		mutate(bad)
		bad = resealed(bad)
		if _, _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode: %v", name, err)
		}
		if _, err := decodeFlat(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decodeFlat: %v", name, err)
		}
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	if _, err := Encode(0, nil); err == nil {
		t.Fatal("width 0 accepted")
	}
	if _, err := Encode(2, []Entry{{PK: 1, Row: []float64{1}}}); err == nil {
		t.Fatal("wrong-width row accepted")
	}
	if _, err := Encode(1, []Entry{{PK: 2, Row: []float64{2}}, {PK: 1, Row: []float64{1}}}); err == nil {
		t.Fatal("unsorted entries accepted")
	}
	if _, err := Encode(1, []Entry{{PK: 1, Row: []float64{1}}, {PK: 1, Tombstone: true}}); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	raw, err := Encode(2, mkEntries(50, 2, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(raw[:4]); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("short magic: got %v", err)
	}
	wrong := append([]byte(nil), raw...)
	wrong[0] = 'X'
	if _, _, err := Decode(wrong); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("wrong magic: got %v", err)
	}
	// Flip one byte anywhere after the magic: crc must catch it.
	for _, off := range []int{8, 20, len(raw) / 2, len(raw) - 5} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if _, _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v", off, err)
		}
	}
}

func TestDecodeTruncationSweep(t *testing.T) {
	raw, err := Encode(2, mkEntries(40, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(raw); n++ {
		if _, _, err := Decode(raw[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", n, len(raw))
		}
	}
}

func TestWriteReadHandle(t *testing.T) {
	dir := t.TempDir()
	entries := mkEntries(300, 4, 11)
	path := filepath.Join(dir, "b.blk")
	desc, err := Write(path, 4, 2, entries)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Level != 2 || desc.Count != uint64(len(entries)) {
		t.Fatalf("bad desc %+v", desc)
	}
	if desc.MinKey != entries[0].PK || desc.MaxKey != entries[len(entries)-1].PK {
		t.Fatalf("fence %v..%v vs %v..%v", desc.MinKey, desc.MaxKey, entries[0].PK, entries[len(entries)-1].PK)
	}
	got, width, err := ReadAll(path)
	if err != nil || width != 4 || len(got) != len(entries) {
		t.Fatalf("ReadAll: %v width=%d n=%d", err, width, len(got))
	}

	h := NewHandle(path, desc)
	for _, e := range entries {
		if !h.MaybeContains(e.PK) {
			t.Fatalf("false negative for pk %v", e.PK)
		}
		got, found, err := h.Get(e.PK)
		if err != nil || !found {
			t.Fatalf("Get(%v): %v found=%v", e.PK, err, found)
		}
		if got.Tombstone != e.Tombstone || !slices.Equal(got.Row, e.Row) {
			t.Fatalf("Get(%v) = %+v, want %+v", e.PK, got, e)
		}
	}
	// Fenced-out keys are excluded without I/O.
	out := NewHandle(path, desc)
	if out.MaybeContains(desc.MaxKey + 1) {
		t.Fatal("fence did not exclude key past max")
	}
	if out.cache != nil {
		t.Fatal("fence probe loaded entries")
	}
	if _, found, err := h.Get(desc.MaxKey + 1); err != nil || found {
		t.Fatalf("Get past fence: %v found=%v", err, found)
	}
}

func TestBloomSkipRate(t *testing.T) {
	entries := mkEntries(1000, 1, 3)
	present := map[uint64]bool{}
	for _, e := range entries {
		present[KeyBits(e.PK)] = true
	}
	bl := newBloom(len(entries))
	for _, e := range entries {
		bl.add(e.PK)
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

func TestBlocklistRoundTrip(t *testing.T) {
	lists := []List{
		{Table: "users", Blocks: []Desc{
			{ID: 1, Level: 0, Count: 10, Bytes: 512, MinKey: 0, MaxKey: 99},
			{ID: 7, Level: 1, Count: 40, Bytes: 2048, MinKey: -5, MaxKey: 120},
		}},
		{Table: "orders__p03", Blocks: nil},
	}
	raw, err := EncodeBlocklist(lists)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBlocklist(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Table != "users" || got[1].Table != "orders__p03" {
		t.Fatalf("bad tables: %+v", got)
	}
	if len(got[0].Blocks) != 2 || got[0].Blocks[1] != lists[0].Blocks[1] {
		t.Fatalf("bad blocks: %+v", got[0].Blocks)
	}
	if len(got[1].Blocks) != 0 {
		t.Fatalf("expected empty list, got %+v", got[1].Blocks)
	}
}

func TestBlocklistTruncationSweep(t *testing.T) {
	raw, err := EncodeBlocklist([]List{{Table: "t", Blocks: []Desc{{ID: 3, Count: 5, Bytes: 77, MinKey: 1, MaxKey: 9}}}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(raw); n++ {
		if _, err := DecodeBlocklist(raw[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", n, len(raw))
		}
	}
	// Block-file magic on a blocklist decoder (and vice versa) is a
	// format error, not corruption.
	blk, _ := Encode(1, nil)
	if _, err := DecodeBlocklist(blk); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("block magic fed to blocklist decoder: %v", err)
	}
	if _, _, err := Decode(raw); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("blocklist magic fed to block decoder: %v", err)
	}
}

func TestHandleSurfacesIOErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gone.blk")
	desc, err := Write(path, 1, 0, []Entry{{PK: 1, Row: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	h := NewHandle(path, desc)
	// A handle that cannot load must not silently skip: MaybeContains
	// stays true and Get reports the error.
	if !h.MaybeContains(1) {
		t.Fatal("unloadable handle excluded a covered key")
	}
	if _, _, err := h.Get(1); err == nil {
		t.Fatal("Get on missing file succeeded")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	entries := mkEntries(100, 2, 8)
	a, _ := Encode(2, entries)
	b, _ := Encode(2, entries)
	if !bytes.Equal(a, b) {
		t.Fatal("Encode is not deterministic")
	}
}
