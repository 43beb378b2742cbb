package partition

import (
	"math/rand"
	"sort"
	"sync"
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
		rids, st, err := pt.PointQuery(0, pk)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Routed || st.FanOut != 1 {
			t.Fatalf("pk point query: Routed=%v FanOut=%d, want routed single partition", st.Routed, st.FanOut)
		}
		if len(rids) != 1 {
			t.Fatalf("pk %v: %d matches, want 1", pk, len(rids))
		}
		if want := engine.PartitionOf(pk, 4); rids[0].Part != want {
			t.Fatalf("pk %v served by partition %d, owner is %d", pk, rids[0].Part, want)
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
		prids, _, err := pt.RangeQuery(col, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		frids, _, err := tb.RangeQuery(col, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(prids) != len(frids) {
			t.Fatalf("col %d [%v,%v]: partitioned %d rows, flat %d", col, lo, hi, len(prids), len(frids))
		}
		// Same multiset of rows: compare by primary key.
		ppks := make([]float64, len(prids))
		for i, r := range prids {
			v, err := pt.Part(r.Part).Store().Value(r.RID, spec.PKCol())
			if err != nil {
				t.Fatal(err)
			}
			ppks[i] = v
		}
		fpks := make([]float64, len(frids))
		for i, r := range frids {
			v, err := tb.Store().Value(r, spec.PKCol())
			if err != nil {
				t.Fatal(err)
			}
			fpks[i] = v
		}
		sortedP := append([]float64(nil), ppks...)
		sort.Float64s(sortedP)
		sort.Float64s(fpks)
		for i := range fpks {
			if sortedP[i] != fpks[i] {
				t.Fatalf("col %d [%v,%v]: result sets differ at %d", col, lo, hi, i)
			}
		}
		// Ordered merge: results must be sorted by the predicate column.
		prev := lo
		for _, r := range prids {
			v, err := pt.Part(r.Part).Store().Value(r.RID, col)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev {
				t.Fatalf("col %d: merge out of order (%v after %v)", col, v, prev)
			}
			prev = v
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
	if rids, _, err := pt.PointQuery(0, 17); err != nil || len(rids) != 0 {
		t.Fatalf("deleted key still visible: %v, %v", rids, err)
	}
	if err := pt.UpdateColumn(18, 2, 123.5); err != nil {
		t.Fatal(err)
	}
	rids, st, err := pt.RangeQuery(2, 123.4, 123.6)
	if err != nil {
		t.Fatal(err)
	}
	if st.FanOut != 3 {
		t.Fatalf("range fan-out %d, want 3", st.FanOut)
	}
	foundPK := false
	for _, r := range rids {
		pk, err := pt.Part(r.Part).Store().Value(r.RID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pk == 18 {
			foundPK = true
		}
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
		{Kind: engine.OpRange, Col: 2, Lo: 100, Hi: 200},
		{Kind: engine.OpInsert, Row: []float64{5000, 300, 100, 0.5}},
		{Kind: engine.OpPoint, Col: 0, Lo: 42},
		{Kind: engine.OpDelete, PK: 43},
		{Kind: engine.OpUpdate, PK: 44, Col: 3, Value: 0.25},
		{Kind: engine.OpRange2, Col: 2, Lo: 0, Hi: 500, BCol: 3, BLo: 0, BHi: 1},
	}
	res := pt.ExecuteBatch(ops, 3)
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

func TestAdvisorAggregatesAndTunesAllPartitions(t *testing.T) {
	spec := workload.SyntheticSpec{Rows: 4000, Fn: workload.Linear, Noise: 0.01, Seed: 7}
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
	// Drive queries at the unindexed target column so the advisor sees a
	// hot column in the aggregated counters.
	for i := 0; i < 200; i++ {
		if _, _, err := pt.RangeQuery(spec.TargetCol(), float64(i%900), float64(i%900)+20); err != nil {
			t.Fatal(err)
		}
	}
	opts := advisor.DefaultOptions()
	opts.Interval = 0 // manual: act only on RunOnce
	adv := pt.EnableAdvisor(opts)
	defer adv.Stop()
	if _, err := adv.RunOnce(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pt.Partitions(); i++ {
		if got := pt.Part(i).IndexOn(spec.TargetCol()); got == engine.KindNone {
			t.Fatalf("advisor left partition %d unindexed on the hot column", i)
		}
	}
	// All partitions must agree on the mechanism (uniform DDL).
	want := pt.Part(0).IndexOn(spec.TargetCol())
	for i := 1; i < pt.Partitions(); i++ {
		if got := pt.Part(i).IndexOn(spec.TargetCol()); got != want {
			t.Fatalf("partition %d built %v, partition 0 built %v", i, got, want)
		}
	}
}

// TestConcurrentScatterGather exercises the bounded pool under concurrent
// readers and writers (meaningful under -race).
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
					if _, _, err := pt.RangeQuery(2, lo, lo+30); err != nil {
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
					if _, _, err := pt.PointQuery(0, float64(rng.Intn(2000))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
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
	if rids, _, err := pt.RangeQueryAt(snap, 1, 0, 0); err != nil || len(rids) != 60 {
		t.Fatalf("pinned snapshot broken by GC: %d rids err=%v", len(rids), err)
	}
	snap.Release()
	if n := pt.GC(); n == 0 {
		t.Fatal("GC reclaimed nothing after release")
	}
	if got := storeRows(); got != 60 {
		t.Fatalf("store holds %d rows after GC, want 60", got)
	}
	rids, _, err := pt.RangeQuery(1, 4, 4)
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
