package wal

import (
	"path/filepath"
	"runtime/debug"
	"testing"
)

// TestAppendSteadyStateAllocs pins the append path's allocation budget:
// with value tickets and the log's two reused frame buffers, a steady-state
// uncontended Append (encode, swap, write, acknowledge — all on the caller)
// performs no heap allocations. SyncNever keeps the commit interval out of
// the measurement; the fsync policies share the same path.
func TestAppendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector bookkeeping under -race")
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenWith(path, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 64)
	rec := Record{Op: OpInsert, Table: "t", Payload: payload}
	// Grow both frame buffers.
	for i := 0; i < 64; i++ {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Append allocates %.2f/op, want 0", allocs)
	}
}
