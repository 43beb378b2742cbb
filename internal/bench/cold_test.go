package bench

import (
	"math/rand"
	"slices"
	"testing"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/workload"
)

// TestColdRangeNeverMisses is the paper's safety property on the path
// fig24 measures: a range answered with the indexes in memory and every
// row read back from the block tier returns exactly the rows a full scan
// does — through a Hermit index and through a complete one — while rounds
// of deletes, updates, checkpoints and compactions leave a key's history
// spread over tombstones and superseded entries in blocks of several
// levels.
func TestColdRangeNeverMisses(t *testing.T) {
	const rows, rounds, queries = 3000, 4, 200
	spec := workload.DefaultSensorSpec(rows)
	pkCol, host, viaHermit, viaTree := spec.PKCol(), spec.AvgCol(), spec.ReadingCol(0), spec.ReadingCol(1)
	d, err := engine.OpenDurableOptions(t.TempDir(), hermit.LogicalPointers,
		engine.DurableOptions{CompactFanIn: 2, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tb, err := d.CreateTable("sensor", spec.Columns(), pkCol)
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[float64][]float64, rows)
	if err := spec.Generate(func(row []float64) error {
		oracle[row[pkCol]] = slices.Clone(row)
		_, err := d.Insert("sensor", row)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for _, def := range []engine.IndexDef{
		{Kind: "btree", Col: host},
		{Kind: "hermit", Col: viaHermit, Host: host},
		{Kind: "btree", Col: viaTree, MarkNew: true},
	} {
		if err := d.CreateIndex("sensor", def); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]float64, 0, rows)
	for pk := range oracle {
		keys = append(keys, pk)
	}
	slices.Sort(keys)

	rng := rand.New(rand.NewSource(7))
	flush := func() {
		t.Helper()
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for {
			merged, err := d.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if !merged {
				return
			}
		}
	}
	check := func(round int) {
		t.Helper()
		for _, col := range []int{viaHermit, viaTree} {
			lo, hi, _ := tb.Store().ColumnBounds(col)
			gen := workload.QueryGen(lo, hi, 0.05, int64(round))
			for i := 0; i < queries; i++ {
				q := gen()
				a, err := coldTable{d, tb, col, host}.rangeQuery(q.Lo, q.Hi)
				if err != nil {
					t.Fatal(err)
				}
				var want []float64
				for _, pk := range keys {
					if row, live := oracle[pk]; live && row[col] >= q.Lo && row[col] <= q.Hi {
						want = append(want, pk)
					}
				}
				if !slices.Equal(a.pks, want) {
					t.Fatalf("round %d, col %d in [%g, %g]: cold answer has %d rows, full scan %d (%d candidates, %d page reads)",
						round, col, q.Lo, q.Hi, len(a.pks), len(want), a.candidates, a.pageReads)
				}
			}
		}
	}
	flush()
	check(0)
	// Each round ends a third of the keys that are left — half deleted, half
	// moved to another reading, so a stale entry would put the row on the
	// wrong side of a predicate — and flushes the delta on top of what the
	// earlier rounds left behind.
	for round := 1; round <= rounds; round++ {
		for _, pk := range keys {
			row, live := oracle[pk]
			if !live || rng.Intn(3) != 0 {
				continue
			}
			if rng.Intn(2) == 0 {
				if _, err := d.Delete("sensor", pk); err != nil {
					t.Fatal(err)
				}
				delete(oracle, pk)
				continue
			}
			col := []int{viaHermit, viaTree}[rng.Intn(2)]
			row[col] = row[col]/2 + rng.Float64() // row is the oracle's
			if err := d.UpdateColumn("sensor", pk, col, row[col]); err != nil {
				t.Fatal(err)
			}
		}
		flush()
		check(round)
	}
	if st := d.StorageStats(); st.MaxLevel == 0 || st.Blocks < 2 || st.BlockPageReads == 0 {
		t.Fatalf("the rounds left %d blocks, max level %d, %d page reads: nothing layered was read", st.Blocks, st.MaxLevel, st.BlockPageReads)
	}
	// A deleted key is gone from every level it ever had an entry in.
	for _, pk := range keys {
		row, found, _, err := d.BlockRead("sensor", pk)
		if want, live := oracle[pk]; err != nil || found != live || (live && !slices.Equal(row, want)) {
			t.Fatalf("BlockRead(%v) = %v found=%v err=%v, oracle %v", pk, row, found, err, want)
		}
	}
}
