package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// This file is the tail-repair fuzz suite: wal.Open and Replay are driven
// against logs whose tails were randomly truncated or bit-flipped, the two
// physical corruption shapes a crash (or a dying disk) produces. The
// invariant under test is that replay yields an exact prefix of the
// originally appended records — never a partial or garbled record — and
// that Open repairs the file so post-recovery appends are replayable.

// fuzzPayload derives a self-describing payload for record i: replay
// checks can verify content integrity without any side channel.
func fuzzPayload(i int) []byte {
	p := make([]byte, 5+i%32)
	for j := range p {
		p[j] = byte(i*31 + j*7)
	}
	return p
}

// writeFuzzLog appends n records and returns the log's raw bytes.
func writeFuzzLog(t *testing.T, path string, n int) []byte {
	t.Helper()
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := Record{
			Op:      Op(1 + i%6),
			Part:    uint32(i % 7),
			Table:   "t",
			Payload: fuzzPayload(i),
		}
		mustAppend(t, l, rec)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkPrefix asserts the replayed records of the file at path are an
// exact, uncorrupted prefix of the n originals, returning the prefix
// length.
func checkPrefix(t *testing.T, path string, n int) int {
	t.Helper()
	i := 0
	err := Replay(path, func(r Record) error {
		if i >= n {
			t.Fatalf("replayed %d records from a %d-record log", i+1, n)
		}
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d: LSN %d — replay yielded a non-prefix record", i, r.LSN)
		}
		if r.Op != Op(1+i%6) || r.Part != uint32(i%7) || r.Table != "t" {
			t.Fatalf("record %d garbled: op=%d part=%d table=%q", i, r.Op, r.Part, r.Table)
		}
		if !bytes.Equal(r.Payload, fuzzPayload(i)) {
			t.Fatalf("record %d: partial or corrupt payload survived replay", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return i
}

// wholeFrames counts the frames of the intact log raw that end at or
// before byte offset cut.
func wholeFrames(raw []byte, cut int) int {
	n := 0
	for off := headerLen; off+frameHdrLen <= len(raw); n++ {
		off += frameHdrLen + int(binary.LittleEndian.Uint32(raw[off:]))
		if off > cut {
			break
		}
	}
	return n
}

// TestOpenTailTruncationFuzz truncates the log at every possible byte
// length and asserts replay always yields an intact record prefix, and
// that Open both repairs the tail and accepts new appends afterwards.
func TestOpenTailTruncationFuzz(t *testing.T) {
	const n = 12
	raw := writeFuzzLog(t, logPath(t), n)
	dir := t.TempDir()
	// Every byte length: a writer puts a collected batch of frames in
	// one copy, so a crash can tear the file inside any frame of the
	// batch, not only inside the last record appended.
	cuts := make([]int, 0, len(raw)+1)
	for c := 0; c <= len(raw); c++ {
		cuts = append(cuts, c)
	}
	for _, cut := range cuts {
		path := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		before := checkPrefix(t, path, n)
		if whole := wholeFrames(raw, cut); before != whole {
			t.Fatalf("cut %d: replay yields %d records, the cut leaves %d whole frames", cut, before, whole)
		}
		// Open must truncate the torn bytes and leave the log appendable.
		l, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		lsn, err := l.Append(Record{Op: OpInsert, Table: "post", Payload: []byte{1}})
		if err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		if lsn != uint64(before+1) {
			t.Fatalf("cut %d: post-repair LSN %d, want %d", cut, lsn, before+1)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		total := 0
		err = Replay(path, func(r Record) error {
			total++
			if total == before+1 && r.Table != "post" {
				t.Fatalf("cut %d: appended record shadowed by torn tail", cut)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if total != before+1 {
			t.Fatalf("cut %d: %d records after repair+append, want %d", cut, total, before+1)
		}
	}
}

// TestOpenTailBitFlipFuzz flips random bits (and random single bytes) and
// asserts replay never yields a partial or garbled record: corruption in
// frame i ends replay with a clean prefix of at most i records.
func TestOpenTailBitFlipFuzz(t *testing.T) {
	const n = 12
	raw := writeFuzzLog(t, logPath(t), n)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), raw...)
		flips := 1 + rng.Intn(3)
		for f := 0; f < flips; f++ {
			pos := rng.Intn(len(mut))
			if rng.Intn(2) == 0 {
				mut[pos] ^= 1 << rng.Intn(8) // single bit
			} else {
				mut[pos] = byte(rng.Intn(256)) // whole byte
			}
		}
		path := filepath.Join(dir, "flip.log")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mut[:headerLen], walMagic) {
			// A flip in the file header reads as a foreign format: both
			// Replay and Open must reject loudly, never misparse.
			if err := Replay(path, func(Record) error { return nil }); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("trial %d: corrupt header replayed without ErrBadFormat: %v", trial, err)
			}
			if _, err := Open(path); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("trial %d: corrupt header opened without ErrBadFormat: %v", trial, err)
			}
			continue
		}
		before := checkPrefix(t, path, n)
		// Open repairs to that same prefix and stays appendable.
		l, err := Open(path)
		if err != nil {
			t.Fatalf("trial %d: Open: %v", trial, err)
		}
		if _, err := l.Append(Record{Op: OpInsert, Table: "post", Payload: []byte{2}}); err != nil {
			t.Fatalf("trial %d: append after repair: %v", trial, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		total := 0
		if err := Replay(path, func(Record) error { total++; return nil }); err != nil {
			t.Fatal(err)
		}
		if total != before+1 {
			t.Fatalf("trial %d: %d records after repair+append, want %d", trial, total, before+1)
		}
	}
}

// FuzzReplayArbitraryBytes feeds arbitrary bytes to Replay and Open: no
// input may panic, yield a structurally invalid record, or leave the file
// unappendable. `go test` runs the seed corpus; `go test -fuzz=.` explores.
func FuzzReplayArbitraryBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	// A valid two-record log as a seed, plus its truncations.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.log")
	l, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	l.Append(Record{Op: OpInsert, Part: 3, Table: "t", Payload: []byte{1, 2, 3}})
	l.Append(Record{Op: OpDelete, Table: "u", Payload: []byte{4}})
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-3])
	f.Add(append(append([]byte(nil), raw...), 0xde, 0xad))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Bytes that do not carry this format's header (and are not a
		// crash-torn prefix of it) must be rejected loudly by both Replay
		// and Open — never misparsed, never silently truncated.
		hdr := data
		if len(hdr) > headerLen {
			hdr = hdr[:headerLen]
		}
		if !bytes.Equal(hdr, walMagic[:len(hdr)]) {
			if err := Replay(p, func(Record) error { return nil }); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("foreign bytes replayed without ErrBadFormat: %v", err)
			}
			if _, err := Open(p); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("foreign bytes opened without ErrBadFormat: %v", err)
			}
			return
		}
		var lastLSN uint64
		err := Replay(p, func(r Record) error {
			if r.LSN <= lastLSN {
				t.Fatalf("replay yielded non-increasing LSN %d after %d", r.LSN, lastLSN)
			}
			lastLSN = r.LSN
			// The op byte is opaque to the log (the engine defines the
			// semantics), so any checksum-valid frame is acceptable here;
			// the invariants are no panic, increasing LSNs, and a
			// repairable file.
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := Open(p)
		if err != nil {
			t.Fatalf("Open on arbitrary bytes: %v", err)
		}
		if _, err := l.Append(Record{Op: OpInsert, Table: "post"}); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := Replay(p, func(Record) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n < 1 {
			t.Fatal("appended record unreachable after repair")
		}
	})
}
