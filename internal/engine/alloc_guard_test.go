package engine

import (
	"math"
	"runtime"
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
// dst, so it allocates nothing — under either pointer scheme, over a linear
// host column (one TRS-Tree leaf) and over a sigmoid one, whose tree splits
// so that every query visits two leaves or more and unions their ranges.
func TestHermitRangeReadIntoSteadyState(t *testing.T) {
	hosts := []struct {
		name string
		fn   func(i int) float64
	}{
		{"linear", func(i int) float64 { return 2*float64(i) + 100 }},
		{"sigmoid", func(i int) float64 { return 10000 / (1 + math.Exp(-float64(i-2048)/200)) }},
	}
	for _, scheme := range []hermit.PointerScheme{hermit.PhysicalPointers, hermit.LogicalPointers} {
		for _, h := range hosts {
			db := NewDB(scheme)
			tb, err := db.CreateTable("guard", []string{"pk", "host", "target"}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4096; i++ {
				host := h.fn(i)
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
			x, err := tb.CreateHermitIndex(2, 1)
			if err != nil {
				t.Fatal(err)
			}
			width := 31.0
			if h.name == "sigmoid" {
				width = 127 // wider than any leaf of the tree
				for lo := 0.0; lo <= 4000; lo += 13 {
					if res := x.Tree().Lookup(lo, lo+width); res.LeavesVisited < 2 {
						t.Fatalf("%v: [%v, %v] visits %d TRS-Tree leaf", scheme, lo, lo+width, res.LeavesVisited)
					}
				}
			}
			rows := int(width) + 1
			dst := make([]float64, 0, 3*rows)
			lo := 0.0
			allocs := measureAllocs(t, 200, func() {
				lo += 13
				if lo > 4000 {
					lo = 0
				}
				var st QueryStats
				var err error
				dst, st, err = tb.Exec(Query{Col: 2, Lo: lo, Hi: lo + width, Path: PathHermit}, dst[:0])
				if err != nil || st.Rows != rows || len(dst) != 3*rows {
					t.Fatalf("%v/%s: hermit range read: err=%v rows=%d values=%d", scheme, h.name, err, st.Rows, len(dst))
				}
			})
			if allocs != 0 {
				t.Fatalf("%v/%s: warm Hermit range Exec allocates %.2f/op, want 0", scheme, h.name, allocs)
			}
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

// TestInsertAllocsAmortized pins the auto-commit insert of ascending keys:
// the head lookup and the primary entry's append go to the rightmost leaf
// without a descent, the version is stamped and frozen in one hold of the
// MVCC latch, and a table with no secondary index walks no maintenance
// list. What it allocates is the amortised growth of the store's blocks,
// the version table and the primary index's new leaves — a fraction of an
// allocation per insert, which AllocsPerRun's integer average cannot show,
// so the count is taken from the runtime's own.
func TestInsertAllocsAmortized(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const n = 20000
	tb := guardTable(t, 4096)
	row := []float64{4096, 0}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		row[0]++
		row[1] = float64(i % 97)
		if _, err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / n
	t.Logf("ascending Insert: %.4f allocs/op", allocs)
	if allocs >= 0.05 {
		t.Fatalf("ascending Insert allocates %.3f/op, want below 0.05", allocs)
	}
}

// TestGatherAllocs: a read of a 4-partition table on one worker runs its
// legs one after another on the caller, through pooled scratch: a range
// read allocates little beyond its per-partition stats, and a routed pk
// point nothing else.
func TestGatherAllocs(t *testing.T) {
	db := NewDB(hermit.PhysicalPointers)
	if err := db.CreatePartitionedTable("g", []string{"pk", "val"}, 0, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		if _, err := db.Insert("g", []float64{float64(i), float64(i % 97)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateIndex("g", IndexDef{Kind: "btree", Col: 1}); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 0, 1024)
	allocs := measureAllocs(t, 200, func() {
		var err error
		dst, _, err = db.Exec("g", Query{Col: 1, Lo: 10, Hi: 11}, 1, dst[:0])
		if err != nil || len(dst) != 2*86 { // 43 rows each of val 10 and 11
			t.Fatalf("range read: %v, %d values", err, len(dst))
		}
	})
	if allocs > 5 {
		t.Fatalf("4-partition range read on one worker allocates %.2f/op, want <= 5", allocs)
	}
	i := 0
	allocs = measureAllocs(t, 200, func() {
		i = (i*31 + 17) % 4096
		v := float64(i)
		var err error
		dst, _, err = db.Exec("g", Query{Col: 0, Lo: v, Hi: v}, 1, dst[:0])
		if err != nil || len(dst) != 2 || dst[0] != v {
			t.Fatalf("point read: %v row=%v", err, dst)
		}
	})
	if allocs > 1 {
		t.Fatalf("routed pk point allocates %.2f/op, want <= 1", allocs)
	}
}
