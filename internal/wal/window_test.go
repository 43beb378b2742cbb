package wal

import (
	"bytes"
	"math/rand"
	"os"
	"strings"
	"syscall"
	"testing"
)

// Tests of the mapped window SyncNever copies into: the reserved zero tail an
// open log's file carries, frames that span windows, and what Close and a
// crash leave.

// fillWindow appends one record that ends exactly where the current window
// does, so the next frame needs a new window (and its reservation).
func fillWindow(t *testing.T, l *Log) {
	t.Helper()
	const least = frameHdrLen + minBodyLen + 1 // a frame on table "t" with no payload
	for {
		rest := windowLen - l.Size()%windowLen
		switch {
		case rest == windowLen: // already at a window's end
			return
		case rest >= least:
			mustAppend(t, l, Record{Op: OpInsert, Table: "t", Payload: make([]byte, rest-least)})
			return
		}
		mustAppend(t, l, Record{Op: OpInsert, Table: "t"}) // too little room: cross into the next window
	}
}

// mappingsOf counts the process's memory mappings of the file at path.
func mappingsOf(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	return strings.Count(string(raw), " "+path+"\n")
}

// lenOnDisk is the byte length of the file at path.
func lenOnDisk(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// replayAll replays the log at path and returns its records, payloads copied.
func replayAll(t *testing.T, path string) []Record {
	t.Helper()
	var got []Record
	if err := Replay(path, func(r Record) error {
		r.Payload = bytes.Clone(r.Payload)
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestAbandonedLogReopens is a process crash after a window was reserved: the
// log is dropped without Close, its file ending in reserved zeros and a
// submitted record nobody waited on still pending. Reopening finds exactly
// the acknowledged frames, appends continue after them, and Close leaves the
// file exactly Size bytes long.
func TestAbandonedLogReopens(t *testing.T) {
	path := logPath(t)
	crashed, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const acked = 20
	for i := 0; i < acked; i++ {
		mustAppend(t, crashed, Record{Op: OpInsert, Table: "t", Payload: []byte{byte(i)}})
	}
	if _, err := crashed.Submit(Record{Op: OpDelete, Table: "t"}); err != nil {
		t.Fatal(err)
	}
	size := crashed.Size()
	if n := lenOnDisk(t, path); n != windowLen {
		t.Fatalf("open log's file is %d bytes, want the reserved window's %d", n, windowLen)
	}
	// The crashed process's mapping and descriptor die with it; it writes
	// nothing more.
	defer func() {
		syscall.Munmap(crashed.win)
		crashed.f.Close()
	}()

	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != size || l.LastLSN() != acked {
		t.Fatalf("reopened at (%d B, LSN %d), want (%d B, LSN %d)", l.Size(), l.LastLSN(), size, acked)
	}
	if n := lenOnDisk(t, path); n != size {
		t.Fatalf("reopened file is %d bytes, want the repaired %d", n, size)
	}
	for i := 0; i < 5; i++ {
		if lsn := mustAppend(t, l, Record{Op: OpUpdate, Table: "t", Payload: []byte{byte(i)}}); lsn != acked+1+uint64(i) {
			t.Fatalf("append after reopen got LSN %d, want %d", lsn, acked+1+i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := lenOnDisk(t, path); n != l.Size() {
		t.Fatalf("closed log's file is %d bytes, Size is %d", n, l.Size())
	}
	got := replayAll(t, path)
	if len(got) != acked+5 {
		t.Fatalf("replayed %d records, want %d", len(got), acked+5)
	}
	for i, r := range got {
		want := OpInsert
		if i >= acked {
			want = OpUpdate
		}
		if r.LSN != uint64(i+1) || r.Op != want {
			t.Fatalf("record %d: LSN %d op %d, want LSN %d op %d", i, r.LSN, r.Op, i+1, want)
		}
	}
}

// TestLargeFrameSpansWindows: a 3 MiB payload is copied across four
// windows, replays intact while the log is open and after Close, and the
// records around it keep their places.
func TestLargeFrameSpansWindows(t *testing.T) {
	path := logPath(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 3<<20)
	rand.New(rand.NewSource(1)).Read(big)
	want := []Record{
		{Op: OpInsert, Table: "t", Payload: []byte("before")},
		{Op: OpInsert, Table: "big", Payload: big},
		{Op: OpInsert, Table: "t", Payload: []byte("after")},
	}
	for _, r := range want {
		mustAppend(t, l, r)
	}
	check := func(when string) {
		got := replayAll(t, path)
		if len(got) != len(want) {
			t.Fatalf("%s: replayed %d records, want %d", when, len(got), len(want))
		}
		for i := range want {
			if got[i].Table != want[i].Table || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("%s: record %d (%s, %d B) differs from the one appended", when, i, got[i].Table, len(got[i].Payload))
			}
		}
	}
	check("open")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := lenOnDisk(t, path); n != l.Size() {
		t.Fatalf("closed log's file is %d bytes, Size is %d", n, l.Size())
	}
	check("closed")
}

// TestTailerParksOnZeroTail: a Tailer that has read every frame stops at
// the reserved zeros as at the end of the log, and reads the next frame once
// it is copied in.
func TestTailerParksOnZeroTail(t *testing.T) {
	path := logPath(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	wake := make(chan struct{}, 1)
	l.Watch(wake)
	mustAppend(t, l, Record{Op: OpInsert, Table: "t", Payload: []byte{1}})
	tl, err := OpenTailer(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if rec, ok, err := tl.Next(); err != nil || !ok || rec.LSN != 1 {
		t.Fatalf("first frame: %+v %v %v", rec, ok, err)
	}
	if lenOnDisk(t, path) <= tl.Offset() {
		t.Fatal("no reserved tail behind the last frame")
	}
	for i := 0; i < 2; i++ {
		if rec, ok, err := tl.Next(); err != nil || ok {
			t.Fatalf("read past the last frame into the zero tail: %+v %v %v", rec, ok, err)
		}
	}
	<-wake
	mustAppend(t, l, Record{Op: OpDelete, Table: "t", Payload: []byte{2}})
	<-wake
	rec, ok, err := tl.Next()
	if err != nil || !ok || rec.LSN != 2 || rec.Op != OpDelete || rec.Payload[0] != 2 {
		t.Fatalf("frame after the park: %+v %v %v", rec, ok, err)
	}
	if tl.Offset() != l.Size() {
		t.Fatalf("tailer at %d, log ends at %d", tl.Offset(), l.Size())
	}
}
