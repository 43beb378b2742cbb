package engine

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"hermit/internal/hermit"
	"hermit/internal/workload"
)

// TestIntegrationWorkloadLifecycle drives a full lifecycle on the Sensor
// workload: bulk load, hermit + baseline indexing, mixed reads/writes,
// online reorganization in the background, and a final exactness audit.
func TestIntegrationWorkloadLifecycle(t *testing.T) {
	spec := workload.DefaultSensorSpec(15000)
	db := NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("sensor", spec.Columns(), spec.PKCol())
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Generate(func(row []float64) error {
		_, err := tb.Insert(row)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateBTreeIndex(spec.AvgCol(), false); err != nil {
		t.Fatal(err)
	}
	hx, err := tb.CreateHermitIndex(spec.ReadingCol(3), spec.AvgCol())
	if err != nil {
		t.Fatal(err)
	}

	// Background reorganizer fed by the live table.
	hx.Tree().StartReorg(hx.Source(), 20*time.Millisecond)
	defer hx.Tree().StopReorg()

	// Concurrent readers while a writer mutates.
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := rng.Float64() * 400
				if _, _, err := rowsOf(tb, Query{Col: spec.ReadingCol(3), Lo: lo, Hi: lo + 20}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}

	// Writer: inserts (some badly off-model), updates, deletes.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		row := make([]float64, len(spec.Columns()))
		row[0] = float64(100000 + i)
		var sum float64
		for s := 0; s < spec.Sensors; s++ {
			v := rng.Float64() * 300 // uncorrelated: lands in outlier buffers
			row[spec.ReadingCol(s)] = v
			sum += v
		}
		row[spec.AvgCol()] = sum / float64(spec.Sensors)
		if _, err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if _, err := tb.Delete(float64(100000 + i)); err != nil {
				t.Fatal(err)
			}
		} else if i%11 == 0 {
			if err := tb.UpdateColumn(float64(100000+i), spec.ReadingCol(3), rng.Float64()*300); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	readers.Wait()

	// Give the reorganizer a moment to drain, then audit exactness.
	deadline := time.Now().Add(2 * time.Second)
	for hx.Tree().PendingReorg() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	for trial := 0; trial < 20; trial++ {
		lo := rng.Float64() * 400
		hi := lo + rng.Float64()*50
		rids, _, err := rowsOf(tb, Query{Col: spec.ReadingCol(3), Lo: lo, Hi: hi})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(rids, expected(tb, spec.ReadingCol(3), lo, hi)) {
			t.Fatalf("inexact results after lifecycle for [%v,%v]", lo, hi)
		}
	}
}

// TestIntegrationMultiHermitSharedHost checks several Hermit indexes
// hosted on the same column (the Fig. 20/22 configuration) staying exact
// under updates to the shared host column.
func TestIntegrationMultiHermitSharedHost(t *testing.T) {
	db := NewDB(hermit.LogicalPointers)
	cols := []string{"pk", "host", "t0", "t1", "t2"}
	tb, err := db.CreateTable("multi", cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		h := rng.Float64() * 1000
		if _, err := tb.Insert([]float64{float64(i), h, 2 * h, 3*h + 5, h / 2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.CreateBTreeIndex(1, false); err != nil {
		t.Fatal(err)
	}
	for col := 2; col <= 4; col++ {
		if _, err := tb.CreateHermitIndex(col, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Mutate the shared host column for some rows.
	for pk := 0; pk < 500; pk++ {
		if err := tb.UpdateColumn(float64(pk), 1, rng.Float64()*1000); err != nil {
			t.Fatal(err)
		}
	}
	for col := 2; col <= 4; col++ {
		lo := rng.Float64() * 500
		hi := lo + 100
		rids, _, err := rowsOf(tb, Query{Col: col, Lo: lo, Hi: hi})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(rids, expected(tb, col, lo, hi)) {
			t.Fatalf("col %d inexact after host updates", col)
		}
	}
}
