package block

import "testing"

// The decoder fuzzers mirror the WAL and proto fuzzers: arbitrary bytes
// must never panic, over-allocate, or decode into something that fails
// to re-encode to an equivalent image.

func FuzzDecodeBlock(f *testing.F) {
	seed, _ := Encode(2, mkEntries(20, 2, 1))
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Add(blockMagic)
	// More than one word of the flat form's tombstone bitmap.
	wide, _ := Encode(1, mkEntries(150, 1, 2))
	f.Add(wide)
	f.Fuzz(func(t *testing.T, raw []byte) {
		entries, width, err := Decode(raw)
		if err != nil {
			// What Decode rejects the flat form rejects.
			if _, ferr := decodeFlat(raw); ferr == nil {
				t.Fatalf("decodeFlat accepted an image Decode rejects with %v", err)
			}
			return
		}
		checkFlat(t, raw, entries)
		// A clean decode must round-trip byte-identically.
		out, err := Encode(width, entries)
		if err != nil {
			t.Fatalf("re-encode of decoded block failed: %v", err)
		}
		if string(out) != string(raw) {
			t.Fatalf("decode/encode not identity: %d vs %d bytes", len(out), len(raw))
		}
	})
}

func FuzzDecodeBlocklist(f *testing.F) {
	seed, _ := EncodeBlocklist([]List{
		{Table: "users", Blocks: []Desc{{ID: 1, Count: 3, Bytes: 128, MinKey: 1, MaxKey: 5}}},
		{Table: "t2"},
	})
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	f.Add([]byte{})
	f.Add(blocklistMagic)
	f.Fuzz(func(t *testing.T, raw []byte) {
		lists, err := DecodeBlocklist(raw)
		if err != nil {
			return
		}
		out, err := EncodeBlocklist(lists)
		if err != nil {
			t.Fatalf("re-encode of decoded blocklist failed: %v", err)
		}
		if string(out) != string(raw) {
			t.Fatalf("decode/encode not identity: %d vs %d bytes", len(out), len(raw))
		}
	})
}
