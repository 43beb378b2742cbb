package block

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"hermit/internal/keyorder"
)

// The decoder fuzzers mirror the WAL and proto fuzzers: arbitrary bytes
// must never panic, over-allocate, or decode into something that fails
// to re-encode to an equivalent image.

func FuzzDecodeBlock(f *testing.F) {
	seed, _ := encode(2, mkEntries(20, 2, 1))
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Add(blockMagic)
	// Several pages, an index worth searching.
	paged, _ := encode(1, mkEntries(1500, 1, 2))
	f.Add(paged)
	// Rows wider than a page, and nothing but tombstones.
	wide, _ := encode(600, mkEntries(6, 600, 3))
	f.Add(wide)
	tombs, _ := encode(3, []entry{{pk: -1}, {pk: 0}, {pk: 1}})
	f.Add(tombs)
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkFuzzedBlock(t, raw, true)
		// The same bytes under valid checksums: what the structure checks
		// alone stand between and a panic. (An index that names other first
		// keys than the pages have — checksums and all — makes a point read
		// miss what the iteration finds; only a writer could produce one.)
		checkFuzzedBlock(t, resealed(raw), false)
	})
}

// resealed returns raw with every checksum its footer and index lead to
// recomputed, as far as they lead anywhere inside raw.
func resealed(raw []byte) []byte {
	if len(raw) < len(blockMagic)+footerLen {
		return raw
	}
	out := bytes.Clone(raw)
	foot := footerOf(out)
	metaEnd := uint64(len(out) - footerLen)
	pages := uint64(binary.LittleEndian.Uint32(foot[footPages:]))
	index := binary.LittleEndian.Uint64(foot[footIndex:])
	if index <= metaEnd {
		binary.LittleEndian.PutUint32(foot[footMeta:], crc32.ChecksumIEEE(out[index:metaEnd]))
		for i := uint64(0); i < pages && index+(i+1)*indexEntry <= metaEnd; i++ {
			from, to := binary.LittleEndian.Uint64(out[index+i*indexEntry+8:]), index
			if next := index + (i+1)*indexEntry; i+1 < pages && next+indexEntry <= metaEnd {
				to = binary.LittleEndian.Uint64(out[next+8:])
			}
			if from < to && to <= index && to-from >= 4 {
				binary.LittleEndian.PutUint32(out[to-4:], crc32.ChecksumIEEE(out[from:to-4]))
			}
		}
	}
	resealFooter(out)
	return out
}

func checkFuzzedBlock(t *testing.T, raw []byte, indexAgrees bool) {
	h, err := openImage(raw)
	if err != nil {
		return
	}
	entries, err := readAll(h)
	if err != nil {
		return // a page the footer could not vouch for
	}
	// A clean iteration is sorted, counts what the footer says, and — when
	// the index and bloom load too — agrees with the point reads.
	if uint64(len(entries)) != h.Desc().Count {
		t.Fatalf("iterated %d entries of %d", len(entries), h.Desc().Count)
	}
	indexed := h.load() == nil
	for i, e := range entries {
		if i > 0 && keyorder.Rank(entries[i-1].pk) >= keyorder.Rank(e.pk) {
			t.Fatalf("entry %d out of order", i)
		}
		if !indexed {
			continue
		}
		row, found, err := h.Get(e.pk)
		if !indexAgrees && (errors.Is(err, ErrCorrupt) || err == nil && !found) {
			continue
		}
		if err != nil || !found || !sameEntry(entry{e.pk, row}, e) {
			t.Fatalf("Get(%v) = %v found=%v err=%v, iteration has %+v", e.pk, row, found, err, e)
		}
	}
	// What decodes cleanly encodes, and the image of it decodes to the
	// same entries (raw itself may break its pages elsewhere).
	out, err := encode(h.Width(), entries)
	if err != nil {
		t.Fatalf("re-encode of decoded block failed: %v", err)
	}
	again, _, err := decode(out)
	if err != nil || len(again) != len(entries) {
		t.Fatalf("decode of the re-encoded block: %d entries, %v", len(again), err)
	}
	for i := range again {
		if !sameEntry(again[i], entries[i]) {
			t.Fatalf("entry %d changed across encode/decode", i)
		}
	}
	if again, _ := encode(h.Width(), entries); !bytes.Equal(out, again) {
		t.Fatal("encode is not deterministic")
	}
}
