package storage

import (
	"math"
	"sync"
	"testing"
)

// TestTableConcurrentAccess runs parallel readers (Get, Value, Scan,
// ColumnBounds) against writers (Insert, Delete) on one table whose first
// block is packed. The table is the engine's innermost latch, so this is the
// substrate every concurrent query path bottoms out in. Must pass
// under -race.
func TestTableConcurrentAccess(t *testing.T) {
	const (
		width   = 3
		seedLen = BlockRows + 2000
		writers = 3
		readers = 5
		ops     = 500
	)
	tb := NewTable(width)
	var rids []RID
	for i := 0; i < seedLen; i++ {
		rid, err := tb.Insert([]float64{float64(i), float64(i * 2), 1})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				switch i % 3 {
				case 0:
					if _, err := tb.Insert([]float64{float64(seedLen + w*ops + i), 0, 0}); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				case 1:
					// A row of odd values, deleted again: it refills a
					// freed slot of a packed block when there is one and
					// packs that block anew, as none of its values fits.
					rid, err := tb.Insert([]float64{math.Inf(1), math.Copysign(0, -1), math.NaN()})
					if err == nil {
						err = tb.Delete(rid)
					}
					if err != nil {
						t.Errorf("insert and delete: %v", err)
						return
					}
				default:
					// Each writer tombstones its own disjoint band exactly
					// once (i/3 walks 0..ops/3-1), so no delete may fail.
					rid := rids[w*(ops/3)+i/3]
					if err := tb.Delete(rid); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]float64, 0, width)
			for i := 0; i < ops; i++ {
				switch i % 4 {
				case 0:
					rid := rids[(r*ops+i)%seedLen]
					if row, err := tb.Get(rid, buf); err == nil && row[0] < 0 {
						t.Errorf("negative key read back")
						return
					}
				case 1:
					if _, err := tb.Value(rids[i%seedLen], 1); err != nil && err != ErrTombstoned {
						t.Errorf("value: %v", err)
						return
					}
				case 2:
					n := 0
					tb.Scan(func(RID, []float64) bool {
						n++
						return n < 100
					})
				default:
					if _, _, ok := tb.ColumnBounds(0); !ok {
						t.Errorf("bounds on non-empty table")
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	// Exact bookkeeping: inserts and deletes are disjoint per writer, so
	// the live count is deterministic.
	inserted, deleted := 0, 0
	for i := 0; i < ops; i++ {
		switch i % 3 {
		case 0:
			inserted++
		case 2:
			deleted++
		}
	}
	want := seedLen + writers*(inserted-deleted)
	if got := tb.Len(); got != want {
		t.Fatalf("live rows %d, want %d (per-writer inserted %d deleted %d)", got, want, inserted, deleted)
	}
}
