package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeV3Log writes a file carrying the version-3 magic plus arbitrary
// frame bytes — the shape of a log left behind by the previous release.
func writeV3Log(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.00000000.log")
	v3 := []byte{'H', 'W', 'A', 'L', 0, 0, 0, 3}
	// A few junk bytes standing in for v3 frames: v4 code must never try
	// to parse them (the frame layout changed under the magic).
	body := append(append([]byte{}, v3...), 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestV3LogRejectedLoudly: a version-3 log opened by version-4 code must
// fail with ErrBadFormat on every entry point — never misparse, never
// silently truncate to an empty log.
func TestV3LogRejectedLoudly(t *testing.T) {
	path := writeV3Log(t)
	if _, err := Open(path); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Open: %v, want ErrBadFormat", err)
	}
	if err := Replay(path, func(Record) error { return nil }); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Replay: %v, want ErrBadFormat", err)
	}
	// The file is untouched: rejection must not "repair" another format.
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) != headerLen+12 {
		t.Fatalf("v3 log modified by rejection: len=%d err=%v", len(raw), err)
	}
}

// TestTxnRecordRoundTrip: the v4 frame carries the transaction id and the
// txn-begin/commit opcodes through a write/replay cycle bit-exactly.
func TestTxnRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Op: OpTxnBegin, Txn: 42},
		{Op: OpInsert, Txn: 42, Part: 3, Table: "t", Payload: []byte{1, 2}},
		{Op: OpUpdate, Txn: 42, Table: "t", Payload: []byte{3}},
		{Op: OpTxnCommit, Txn: 42},
		{Op: OpInsert, Table: "t", Payload: []byte{9}}, // auto-commit: Txn 0
	}
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := Replay(path, func(r Record) error {
		r.Payload = append([]byte(nil), r.Payload...)
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, want := range recs {
		g := got[i]
		if g.Op != want.Op || g.Txn != want.Txn || g.Part != want.Part || g.Table != want.Table {
			t.Fatalf("record %d: got %+v, want %+v", i, g, want)
		}
		if string(g.Payload) != string(want.Payload) {
			t.Fatalf("record %d payload garbled", i)
		}
	}
	if got[0].LSN >= got[4].LSN {
		t.Fatal("LSNs not increasing")
	}
}

// goldenLogSHA256 is the SHA-256 of the file writeGoldenLog produces, taken
// from the last release whose log had an appender goroutine (PR 17): the
// frame bytes, the LSN sequence and the header are that release's, whether a
// record went out alone or in a batch.
const goldenLogSHA256 = "ef819d10cc6cc03ca961f70d09e732cf87184336489d5a4fe34bb6c079a1bf1c"

func writeGoldenLog(t *testing.T, path string) {
	t.Helper()
	l, err := OpenWith(path, Options{BaseLSN: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // batches of one
		mustAppend(t, l, Record{Op: OpInsert, Part: uint32(i), Table: "golden", Payload: []byte{byte(i), 2, 3, 4, 5, 6, 7, 8}})
	}
	last, err := l.Submit(Record{Op: OpTxnBegin, Txn: 9}) // a run that goes out in one write
	for i := 0; i < 40 && err == nil; i++ {
		last, err = l.Submit(Record{Op: OpUpdate, Txn: 9, Table: "golden", Payload: []byte{byte(i)}})
	}
	if err == nil {
		last, err = l.Submit(Record{Op: OpTxnCommit, Txn: 9})
	}
	if err != nil {
		t.Fatal(err)
	}
	if lsn, err := last.Wait(); err != nil || lsn != 7+3+42 {
		t.Fatalf("run acknowledged at LSN %d, %v", lsn, err)
	}
	raw, err := l.SubmitRaw(Record{LSN: 100, Op: OpDelete, Table: "", Payload: nil}) // a mirrored frame keeps its LSN
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Wait(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, Record{Op: OpCreateTable, Table: "t2", Payload: []byte(`{"cols":["a"]}`)})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLogBytesGolden: the file format did not move with the commit protocol.
func TestLogBytesGolden(t *testing.T) {
	path := logPath(t)
	writeGoldenLog(t, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != goldenLogSHA256 {
		t.Fatalf("log bytes hash %s, want %s (%d bytes)", got, goldenLogSHA256, len(raw))
	}
}
