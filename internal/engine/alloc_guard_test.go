package engine

import (
	"runtime/debug"
	"testing"

	"hermit/internal/hermit"
)

// Allocation regression guards for the hot paths. The zero-alloc contract
// is part of the engine's performance surface (see ARCHITECTURE.md "Hot
// paths & allocation discipline"): an Exec of a PK point or an exact-path
// range into a reused row buffer, a warm snapshot read, an auto-commit
// update and a delete must not allocate at steady state. testing.AllocsPerRun
// under the race detector counts the detector's own bookkeeping, so the
// guards skip under -race.

// guardTable builds a small two-column table; its queries go through the
// planner, which picks the primary index for the key column.
func guardTable(t testing.TB, n int) *Table {
	t.Helper()
	db := NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("guard", []string{"pk", "val"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 2)
	for i := 0; i < n; i++ {
		row[0], row[1] = float64(i), float64(i%97)
		if _, err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// measureAllocs runs fn under AllocsPerRun with GC pinned off so the
// collector cannot recycle pooled scratch mid-measurement.
func measureAllocs(t *testing.T, runs int, fn func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector bookkeeping under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn() // warm pools and result buffers outside the measured window
	return testing.AllocsPerRun(runs, fn)
}

func TestPointReadZeroAllocs(t *testing.T) {
	tb := guardTable(t, 4096)
	dst := make([]float64, 0, 8)
	i := 0
	allocs := measureAllocs(t, 200, func() {
		i = (i*31 + 17) % 4096
		v := float64(i)
		var err error
		dst, _, err = tb.Exec(Query{Col: 0, Lo: v, Hi: v}, dst[:0])
		if err != nil || len(dst) != 2 || dst[0] != v {
			t.Fatalf("point read: %v row=%v", err, dst)
		}
	})
	if allocs != 0 {
		t.Fatalf("PK point Exec allocates %.2f/op, want 0", allocs)
	}
}

func TestWarmSnapshotReadZeroAllocs(t *testing.T) {
	tb := guardTable(t, 4096)
	snap := tb.clock.Snapshot()
	defer snap.Release()
	dst := make([]float64, 0, 8)
	i := 0
	allocs := measureAllocs(t, 200, func() {
		i = (i*31 + 17) % 4096
		v := float64(i)
		var err error
		dst, _, err = tb.Exec(Query{Col: 0, Lo: v, Hi: v, Snap: snap}, dst[:0])
		if err != nil || len(dst) != 2 || dst[0] != v {
			t.Fatalf("snapshot read: %v row=%v", err, dst)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Exec at a held snapshot allocates %.2f/op, want 0", allocs)
	}
}

// TestRangeReadIntoSteadyState pins the range path's steady state: with a
// carried dst the only tolerated allocations are the planner/runtime
// incidentals, and today there are none.
func TestRangeReadIntoSteadyState(t *testing.T) {
	tb := guardTable(t, 4096)
	dst := make([]float64, 0, 64)
	lo := 0.0
	allocs := measureAllocs(t, 200, func() {
		lo += 13
		if lo > 4000 {
			lo = 0
		}
		var st QueryStats
		var err error
		dst, st, err = tb.Exec(Query{Col: 0, Lo: lo, Hi: lo + 31}, dst[:0])
		if err != nil || st.Path != PathPrimary || len(dst) != 2*32 {
			t.Fatalf("range read: err=%v path=%v values=%d", err, st.Path, len(dst))
		}
	})
	if allocs != 0 {
		t.Fatalf("warm range Exec allocates %.2f/op, want 0", allocs)
	}
}

// TestHermitRangeReadIntoSteadyState pins the paper's headline path: a
// Hermit range query harvests TRS-Tree ranges, host-index identifiers and
// candidate RIDs into pooled scratch and copies the rows into the carried
// dst, so it allocates nothing — under either pointer scheme.
func TestHermitRangeReadIntoSteadyState(t *testing.T) {
	for _, scheme := range []hermit.PointerScheme{hermit.PhysicalPointers, hermit.LogicalPointers} {
		db := NewDB(scheme)
		tb, err := db.CreateTable("guard", []string{"pk", "host", "target"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4096; i++ {
			host := 2*float64(i) + 100
			if i%100 == 0 {
				host = float64(i * 7 % 4096) // outliers
			}
			if _, err := tb.Insert([]float64{float64(i), host, float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tb.CreateBTreeIndex(1, false); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.CreateHermitIndex(2, 1); err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, 0, 3*64)
		lo := 0.0
		allocs := measureAllocs(t, 200, func() {
			lo += 13
			if lo > 4000 {
				lo = 0
			}
			var st QueryStats
			var err error
			dst, st, err = tb.Exec(Query{Col: 2, Lo: lo, Hi: lo + 31, Path: PathHermit}, dst[:0])
			if err != nil || st.Rows != 32 || len(dst) != 3*32 {
				t.Fatalf("%v: hermit range read: err=%v rows=%d values=%d", scheme, err, st.Rows, len(dst))
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: warm Hermit range Exec allocates %.2f/op, want 0", scheme, allocs)
		}
	}
}

// TestUpdateColumnZeroAllocs pins the auto-commit update, reclamation of the
// superseded version included: the current row is copied into pooled
// scratch, the primary entry is swapped in place, the version header lands
// in its block's chunk, and the version the update ended is reclaimed from
// the same scratch row, its slot the next update's.
func TestUpdateColumnZeroAllocs(t *testing.T) {
	tb := guardTable(t, 4096)
	i, gen := 0, 0.0
	allocs := measureAllocs(t, 2000, func() {
		i = (i*31 + 17) % 4096
		gen++
		if err := tb.UpdateColumn(float64(i), 1, 1000+gen); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("UpdateColumn allocates %.2f/op, want 0", allocs)
	}
}

// TestDeleteZeroAllocs pins the auto-commit delete: one primary-index
// lookup and one header write, then the dead chain reclaimed — its row read
// into a stack buffer, its index entries and primary entry removed.
func TestDeleteZeroAllocs(t *testing.T) {
	const n = 4096
	tb := guardTable(t, n)
	next := 0
	allocs := measureAllocs(t, 2000, func() {
		if found, err := tb.Delete(float64(next)); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", next, found, err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("Delete allocates %.2f/op, want 0", allocs)
	}
}

// TestDurableInsertZeroAllocs pins the durable auto-commit insert end to
// end: the row is applied, its record payload is encoded in submit's stack
// frame (wal.Submit copies it into the log's pending buffer before it
// returns), the ticket is a value, and the wait that writes the log runs on
// the caller — no goroutine hand-off, no channel, no per-record slice. What
// remains is the table's amortised growth, which AllocsPerRun's integer
// average reads as 0.
func TestDurableInsertZeroAllocs(t *testing.T) {
	d, err := OpenDurableOptions(t.TempDir(), hermit.PhysicalPointers, DurableOptions{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.CreateTable("guard", []string{"pk", "b", "c", "d"}, 0); err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 4)
	next := 0.0
	insert := func() {
		row[0], row[1], row[2], row[3] = next, 2*next+100, next, 0.5
		next++
		if _, err := d.Insert("guard", row); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4096; i++ { // past the first block, the log's buffers grown
		insert()
	}
	if allocs := measureAllocs(t, 2000, insert); allocs != 0 {
		t.Fatalf("durable Insert allocates %.2f/op, want 0", allocs)
	}
}
