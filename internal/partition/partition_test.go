package partition

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hermit/internal/advisor"
	"hermit/internal/correlation"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/trstree"
	"hermit/internal/workload"
)

// newSynthetic builds a partitioned Synthetic table with nrows rows, a
// complete index on the host column and a Hermit index on the target.
func newSynthetic(t *testing.T, parts, nrows int) *Table {
	t.Helper()
	spec := workload.SyntheticSpec{Rows: nrows, Fn: workload.Linear, Noise: 0.01, Seed: 7}
	pt, err := New(hermit.PhysicalPointers, "syn", spec.Columns(), spec.PKCol(),
		Options{Partitions: parts, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Generate(func(row []float64) error {
		_, err := pt.Insert(row)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := pt.CreateBTreeIndex(spec.HostCol(), false); err != nil {
		t.Fatal(err)
	}
	if err := pt.CreateHermitIndex(spec.TargetCol(), spec.HostCol(), trstree.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestRoutingSpreadsRows(t *testing.T) {
	pt := newSynthetic(t, 4, 4000)
	if pt.Len() != 4000 {
		t.Fatalf("Len = %d, want 4000", pt.Len())
	}
	for i := 0; i < pt.Partitions(); i++ {
		n := pt.Part(i).Len()
		// A uniform hash over 4000 keys should land near 1000 per partition.
		if n < 700 || n > 1300 {
			t.Fatalf("partition %d holds %d rows; hash is skewed", i, n)
		}
	}
}

func TestPointQueryRoutesToOwner(t *testing.T) {
	pt := newSynthetic(t, 4, 2000)
	for pk := float64(0); pk < 50; pk++ {
		rids, st, err := rowsOf(pt, engine.Query{Col: 0, Lo: pk, Hi: pk})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Routed || st.FanOut != 1 {
			t.Fatalf("pk point query: Routed=%v FanOut=%d, want routed single partition", st.Routed, st.FanOut)
		}
		if len(rids) != 1 || rids[0][0] != pk {
			t.Fatalf("pk %v: %v, want its one row", pk, rids)
		}
		owner, _, err := pt.PointQuery(0, pk)
		if want := engine.PartitionOf(pk, 4); err != nil || len(owner) != 1 || owner[0].Part != want {
			t.Fatalf("pk %v not served by its owner, partition %d: %+v err=%v", pk, want, owner, err)
		}
	}
}

// TestRangeQueryMatchesUnpartitioned checks the scatter-gather result set
// and order against a single-engine table over the same rows.
func TestRangeQueryMatchesUnpartitioned(t *testing.T) {
	spec := workload.SyntheticSpec{Rows: 3000, Fn: workload.Linear, Noise: 0.01, Seed: 7}
	pt := newSynthetic(t, 4, spec.Rows)

	db := engine.NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("flat", spec.Columns(), spec.PKCol())
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Generate(func(row []float64) error {
		_, err := tb.Insert(row)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		col := []int{0, 1, 2}[trial%3]
		lo := rng.Float64() * 900
		hi := lo + rng.Float64()*200
		if col == 1 { // host column values live in [100, 2100]
			lo, hi = 2*lo+100, 2*hi+100
		}
		prows, _, err := rowsOf(pt, engine.Query{Col: col, Lo: lo, Hi: hi})
		if err != nil {
			t.Fatal(err)
		}
		flat, _, err := tb.Exec(engine.Query{Col: col, Lo: lo, Hi: hi}, nil)
		if err != nil {
			t.Fatal(err)
		}
		frows := engine.SplitRows(flat, len(spec.Columns()), nil)
		if len(prows) != len(frows) {
			t.Fatalf("col %d [%v,%v]: partitioned %d rows, flat %d", col, lo, hi, len(prows), len(frows))
		}
		// Same multiset of rows: compare by primary key.
		ppks, fpks := pks(pt, prows), pks(pt, frows)
		for i := range fpks {
			if ppks[i] != fpks[i] {
				t.Fatalf("col %d [%v,%v]: result sets differ at %d", col, lo, hi, i)
			}
		}
		// Ordered merge: results must be sorted by the predicate column.
		prev := lo
		for _, row := range prows {
			if row[col] < prev {
				t.Fatalf("col %d: merge out of order (%v after %v)", col, row[col], prev)
			}
			prev = row[col]
		}
	}
}

func TestMutationsRouteAndMaintainIndexes(t *testing.T) {
	pt := newSynthetic(t, 3, 1000)
	if found, err := pt.Delete(17); err != nil || !found {
		t.Fatalf("Delete(17) = %v, %v", found, err)
	}
	if found, err := pt.Delete(17); err != nil || found {
		t.Fatalf("second Delete(17) = %v, %v; want absent", found, err)
	}
	if rids, _, err := rowsOf(pt, engine.Query{Col: 0, Lo: 17, Hi: 17}); err != nil || len(rids) != 0 {
		t.Fatalf("deleted key still visible: %v, %v", rids, err)
	}
	if err := pt.UpdateColumn(18, 2, 123.5); err != nil {
		t.Fatal(err)
	}
	rids, st, err := rowsOf(pt, engine.Query{Col: 2, Lo: 123.4, Hi: 123.6})
	if err != nil {
		t.Fatal(err)
	}
	if st.FanOut != 3 {
		t.Fatalf("range fan-out %d, want 3", st.FanOut)
	}
	foundPK := false
	for _, row := range rids {
		foundPK = foundPK || row[0] == 18
	}
	if !foundPK {
		t.Fatal("updated row not found through Hermit index after UpdateColumn")
	}
	// Updating the primary key is rejected on every partition.
	if err := pt.UpdateColumn(18, 0, 9999); err == nil {
		t.Fatal("UpdateColumn on pk column succeeded; want error")
	}
	// Duplicate insert is rejected by the owning partition.
	if _, err := pt.Insert([]float64{18, 1, 2, 3}); err == nil {
		t.Fatal("duplicate insert succeeded; want error")
	}
}

func TestExecuteBatchMixed(t *testing.T) {
	pt := newSynthetic(t, 4, 1000)
	ops := []engine.Op{
		{Table: "syn", Kind: engine.OpQuery, Query: engine.Query{Col: 2, Lo: 100, Hi: 200}},
		{Table: "syn", Kind: engine.OpInsert, Row: []float64{5000, 300, 100, 0.5}},
		{Table: "syn", Kind: engine.OpQuery, Query: engine.Query{Col: 0, Lo: 42, Hi: 42}},
		{Table: "syn", Kind: engine.OpDelete, PK: 43},
		{Table: "syn", Kind: engine.OpUpdate, PK: 44, Col: 3, Value: 0.25},
		{Table: "syn", Kind: engine.OpQuery, Query: engine.Query{Col: 2, Lo: 0, Hi: 500, And: &engine.Pred{Col: 3, Lo: 0, Hi: 1}}},
	}
	res := pt.db.ExecuteBatch(ops, 3)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d failed: %v", i, r.Err)
		}
	}
	if !res[2].Stats.Routed {
		t.Fatal("pk point op did not route")
	}
	if !res[3].Found {
		t.Fatal("delete op did not find its key")
	}
	if res[5].Stats.FanOut != 4 {
		t.Fatalf("range2 fan-out %d, want 4", res[5].Stats.FanOut)
	}
}

func TestExplainReportsFanOut(t *testing.T) {
	pt := newSynthetic(t, 4, 2000)
	plan, err := pt.Explain(2, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Routed || plan.FanOut != 4 {
		t.Fatalf("range Explain: Routed=%v FanOut=%d, want scatter over 4", plan.Routed, plan.FanOut)
	}
	if len(plan.PerPartition) != 4 {
		t.Fatalf("PerPartition has %d plans", len(plan.PerPartition))
	}
	if plan.TotalCostNS <= 0 || plan.CriticalCostNS <= 0 || plan.CriticalCostNS > plan.TotalCostNS {
		t.Fatalf("cost aggregation: total=%v critical=%v", plan.TotalCostNS, plan.CriticalCostNS)
	}
	point, err := pt.Explain(0, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !point.Routed || point.FanOut != 1 {
		t.Fatalf("pk point Explain: Routed=%v FanOut=%d, want routed", point.Routed, point.FanOut)
	}
	if point.Part != engine.PartitionOf(12, 4) {
		t.Fatalf("Explain routed to %d, owner is %d", point.Part, engine.PartitionOf(12, 4))
	}
}

func TestCreateIndexAutoUniform(t *testing.T) {
	spec := workload.SyntheticSpec{Rows: 3000, Fn: workload.Linear, Noise: 0.01, Seed: 7}
	pt, err := New(hermit.PhysicalPointers, "syn", spec.Columns(), spec.PKCol(),
		Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Generate(func(row []float64) error {
		_, err := pt.Insert(row)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := pt.CreateBTreeIndex(spec.HostCol(), false); err != nil {
		t.Fatal(err)
	}
	kind, err := pt.CreateIndexAuto(spec.TargetCol(), correlation.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if kind != engine.KindHermit {
		t.Fatalf("CreateIndexAuto built %v on a linearly correlated column, want hermit", kind)
	}
	for i := 0; i < pt.Partitions(); i++ {
		if got := pt.Part(i).IndexOn(spec.TargetCol()); got != engine.KindHermit {
			t.Fatalf("partition %d serves target with %v, want hermit (uniform DDL)", i, got)
		}
	}
	// Dropping removes it everywhere.
	if err := pt.DropIndex(spec.TargetCol(), engine.KindHermit); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pt.Partitions(); i++ {
		if got := pt.Part(i).IndexOn(spec.TargetCol()); got == engine.KindHermit {
			t.Fatalf("partition %d still serves hermit after DropIndex", i)
		}
	}
}

// TestAdvisorAggregatesAndTunesAllPartitions runs the database's advisor
// over a partitioned table of each kind of database: it sees one table,
// its query counters summed over the partitions, and builds the index on
// every partition alike — on the durable one through the log, so the
// index is back on every partition after a reopen.
func TestAdvisorAggregatesAndTunesAllPartitions(t *testing.T) {
	spec := workload.SyntheticSpec{Rows: 4000, Fn: workload.Linear, Noise: 0.01, Seed: 7}
	dir := t.TempDir()
	d, err := engine.OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	for name, db := range map[string]Database{"mem": engine.NewDB(hermit.PhysicalPointers), "durable": d} {
		t.Run(name, func(t *testing.T) {
			pt, err := CreateDurable(db, "syn", spec.Columns(), spec.PKCol(), Options{Partitions: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := spec.Generate(func(row []float64) error {
				_, err := pt.Insert(row)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if err := pt.CreateBTreeIndex(spec.HostCol(), false); err != nil {
				t.Fatal(err)
			}
			// Drive queries at the unindexed target column so the advisor
			// sees a hot column in the aggregated counters.
			for i := 0; i < 200; i++ {
				if _, _, err := rowsOf(pt, engine.Query{Col: spec.TargetCol(), Lo: float64(i % 900), Hi: float64(i%900) + 20}); err != nil {
					t.Fatal(err)
				}
			}
			opts := advisor.DefaultOptions()
			opts.Interval = 0 // manual: act only on RunOnce
			adv := db.EnableAdvisor(opts)
			defer adv.Stop()
			if _, err := adv.RunOnce(); err != nil {
				t.Fatal(err)
			}
			uniformIndex(t, pt, spec.TargetCol())
		})
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = engine.OpenDurable(dir, hermit.PhysicalPointers); err != nil {
		t.Fatal(err)
	}
	pt, err := OpenDurable(d, "syn", Options{})
	if err != nil {
		t.Fatal(err)
	}
	uniformIndex(t, pt, spec.TargetCol())
}

// uniformIndex fails unless every partition of pt serves col with one and
// the same index kind.
func uniformIndex(t *testing.T, pt *Table, col int) {
	t.Helper()
	want := pt.Part(0).IndexOn(col)
	if want == engine.KindNone {
		t.Fatal("partition 0 left unindexed on the hot column")
	}
	for i := 1; i < pt.Partitions(); i++ {
		if got := pt.Part(i).IndexOn(col); got != want {
			t.Fatalf("partition %d serves col %d with %v, partition 0 with %v", i, col, got, want)
		}
	}
}

// TestConcurrentScatterGather: four goroutines interleave range reads,
// routed pk reads and inserts on one 4-partition table, each read's legs
// run through engine.Parallel (meaningful under -race).
func TestConcurrentScatterGather(t *testing.T) {
	pt := newSynthetic(t, 4, 2000)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				switch i % 3 {
				case 0:
					lo := rng.Float64() * 900
					if _, _, err := rowsOf(pt, engine.Query{Col: 2, Lo: lo, Hi: lo + 30}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					pk := float64(10000 + w*1000 + i)
					if _, err := pt.Insert([]float64{pk, 300, 100, 0.5}); err != nil {
						t.Error(err)
						return
					}
				default:
					pk := float64(rng.Intn(2000))
					if _, _, err := rowsOf(pt, engine.Query{Col: 0, Lo: pk, Hi: pk}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestExecUnderReclaimingWriters: readers Exec scatter-gather and routed
// queries while two writers update, delete and re-insert the same keys, so
// every commit reclaims the versions it ends and the next write takes the
// freed slot. Exec copies the rows under the snapshot its legs read at:
// every returned row must satisfy the predicate, be one whole committed row
// (tag repeats the key, host follows target) and come back once, and the
// answer must be ordered by the predicate column. Run it under -race.
func TestExecUnderReclaimingWriters(t *testing.T) {
	const keys, domain = 256, 1000
	pt, err := New(hermit.PhysicalPointers, "t", []string{"pk", "host", "target", "tag"}, 0,
		Options{Partitions: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	newRow := func(rng *rand.Rand, pk float64) []float64 {
		c := float64(rng.Intn(domain))
		return []float64{pk, 2*c + 100, c, pk}
	}
	rng := rand.New(rand.NewSource(1))
	for pk := 0; pk < keys; pk++ {
		if _, err := pt.Insert(newRow(rng, float64(pk))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pt.CreateBTreeIndex(1, false); err != nil {
		t.Fatal(err)
	}
	if err := pt.CreateHermitIndex(2, 1, trstree.Params{}); err != nil {
		t.Fatal(err)
	}
	writes := 6000
	if testing.Short() {
		writes = 2000
	}
	var stop atomic.Bool
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			seen := make(map[float64]bool)
			for i := 0; !stop.Load(); i++ {
				col := i % 3 // by key (a point routes), by the B+-tree, by the Hermit index
				lo := float64(rng.Intn(keys))
				hi := lo + float64(rng.Intn(8)*(i%2))
				if col != 0 {
					lo = float64(rng.Intn(domain))
					hi = lo + float64(rng.Intn(40))
					if col == 1 {
						lo, hi = 2*lo+100, 2*hi+100
					}
				}
				rows, _, err := rowsOf(pt, engine.Query{Col: col, Lo: lo, Hi: hi})
				if err != nil {
					t.Errorf("reader: col %d [%v, %v]: %v", col, lo, hi, err)
					return
				}
				clear(seen)
				for j, row := range rows {
					if row[col] < lo || row[col] > hi || row[3] != row[0] || row[1] != 2*row[2]+100 || seen[row[0]] ||
						j > 0 && row[col] < rows[j-1][col] {
						t.Errorf("reader: col %d [%v, %v] returned %v at %d of %v", col, lo, hi, row, j, rows)
						return
					}
					seen[row[0]] = true
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < writes && !t.Failed(); i++ {
				// Both writers draw from the same keys, so an update or a
				// delete may find its key gone and an insert find it back.
				pk := float64(rng.Intn(keys))
				var err error
				switch rng.Intn(3) {
				case 0:
					// Move the row's target and host together, in one commit.
					c := float64(rng.Intn(domain))
					res := pt.db.ExecuteBatch([]engine.Op{
						{Table: pt.Name(), Kind: engine.OpUpdate, PK: pk, Col: 2, Value: c},
						{Table: pt.Name(), Kind: engine.OpUpdate, PK: pk, Col: 1, Value: 2*c + 100},
					}, 1)
					// The key may be gone, or the other writer may have
					// committed to it first.
					if err = res[0].Err; err != nil && (strings.Contains(err.Error(), "no row with pk") ||
						errors.Is(err, engine.ErrTxnAborted) || errors.Is(err, engine.ErrWriteConflict)) {
						err = nil
					}
				case 1:
					_, err = pt.Delete(pk)
				default:
					if _, err = pt.Insert(newRow(rng, pk)); errors.Is(err, engine.ErrDupKey) {
						err = nil
					}
				}
				if err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
}

func TestPartitionOfDeterministicAndInRange(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for pk := float64(-100); pk < 100; pk += 0.5 {
			p := engine.PartitionOf(pk, n)
			if p < 0 || p >= n {
				t.Fatalf("PartitionOf(%v, %d) = %d out of range", pk, n, p)
			}
			if p != engine.PartitionOf(pk, n) {
				t.Fatalf("PartitionOf(%v, %d) unstable", pk, n)
			}
		}
	}
	negZero := math_Copysign0()
	if engine.PartitionOf(negZero, 7) != engine.PartitionOf(0, 7) {
		t.Fatal("-0 and +0 route to different partitions")
	}
}

// math_Copysign0 returns -0 without tripping constant folding.
func math_Copysign0() float64 {
	z := 0.0
	return -z
}

// TestPartitionedVersionGC: update churn leaves dead versions in the
// per-partition stores; GC reclaims them once no snapshot needs them, and
// a held snapshot pins its versions.
func TestPartitionedVersionGC(t *testing.T) {
	pt, err := New(hermit.PhysicalPointers, "g", []string{"pk", "v"}, 0, Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := pt.Insert([]float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	snap := pt.Snapshot()
	for round := 1; round <= 4; round++ {
		for i := 0; i < 60; i++ {
			if err := pt.UpdateColumn(float64(i), 1, float64(round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	storeRows := func() int {
		n := 0
		for i := 0; i < pt.Partitions(); i++ {
			n += pt.Part(i).Store().Len()
		}
		return n
	}
	if storeRows() <= 60 {
		t.Fatalf("precondition: expected dead versions, store holds %d", storeRows())
	}
	// The held snapshot pins the pre-update versions.
	pt.GC()
	if rids, _, err := rowsOf(pt, engine.Query{Col: 1, Lo: 0, Hi: 0, Snap: snap}); err != nil || len(rids) != 60 {
		t.Fatalf("pinned snapshot broken by GC: %d rids err=%v", len(rids), err)
	}
	snap.Release()
	if n := pt.GC(); n == 0 {
		t.Fatal("GC reclaimed nothing after release")
	}
	if got := storeRows(); got != 60 {
		t.Fatalf("store holds %d rows after GC, want 60", got)
	}
	rids, _, err := rowsOf(pt, engine.Query{Col: 1, Lo: 4, Hi: 4})
	if err != nil || len(rids) != 60 {
		t.Fatalf("latest state after GC: %d rids err=%v", len(rids), err)
	}
}

// TestMemorySumsPartitions: the partitioned breakdown is the sum of the
// partitions', version table included.
func TestMemorySumsPartitions(t *testing.T) {
	pt := newSynthetic(t, 4, 4000)
	var want engine.MemoryStats
	for i := 0; i < pt.Partitions(); i++ {
		m := pt.Part(i).Memory()
		want.TableBytes += m.TableBytes
		want.PrimaryBytes += m.PrimaryBytes
		want.ExistingBytes += m.ExistingBytes
		want.NewBytes += m.NewBytes
		want.VersionBytes += m.VersionBytes
	}
	if got := pt.Memory(); got != want || got.VersionBytes == 0 || got.NewBytes == 0 {
		t.Fatalf("Memory() = %+v, partitions sum to %+v", got, want)
	}
}
