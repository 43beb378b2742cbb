package hermit

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hermit/internal/btree"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// fixture is a synthetic table in the paper's Appendix A layout:
// col0 = colA (primary key), col1 = colB (host, correlated with colC),
// col2 = colC (target), col3 = colD (payload).
type fixture struct {
	table   *storage.Table
	host    *btree.Tree // colB -> id
	primary *btree.Tree // colA -> rid
	rows    [][4]float64
	rids    []storage.RID
}

// testOrder is the node capacity of the fixtures' host trees: small, so that
// a few thousand rows give the scans this package runs a tree of several
// levels to cross rather than a handful of leaves.
const testOrder = 16

func newFixture(t testing.TB, n int, fn func(c float64) float64, noise float64, scheme PointerScheme, seed int64) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := &fixture{
		table:   storage.NewTable(4),
		host:    btree.New(testOrder),
		primary: btree.New(testOrder),
	}
	for i := 0; i < n; i++ {
		c := rng.Float64() * 1000
		b := fn(c)
		if rng.Float64() < noise {
			b = rng.Float64() * 3000
		}
		row := [4]float64{float64(i), b, c, rng.Float64()}
		rid, err := f.table.Insert(row[:])
		if err != nil {
			t.Fatal(err)
		}
		f.rows = append(f.rows, row)
		f.rids = append(f.rids, rid)
		f.primary.Insert(row[0], uint64(rid))
		if scheme == PhysicalPointers {
			f.host.Insert(row[1], uint64(rid))
		} else {
			f.host.Insert(row[1], LogicalID(row[0]))
		}
	}
	return f
}

func linearFn(c float64) float64 { return 2*c + 100 }

func sigmoidFn(c float64) float64 {
	return 10000 / (1 + math.Exp(-(c-500)/80))
}

func newIndex(t testing.TB, f *fixture, scheme PointerScheme, profile bool) *Index {
	t.Helper()
	cfg := Config{
		TargetCol: 2, HostCol: 1, PKCol: 0,
		Scheme:  scheme,
		Params:  trstree.DefaultParams(),
		Profile: profile,
	}
	idx, err := New(f.table, f.host, f.primary, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// expected returns the RIDs whose colC value lies in [lo, hi].
func (f *fixture) expected(lo, hi float64) []storage.RID {
	var out []storage.RID
	for i, row := range f.rows {
		if row[2] >= lo && row[2] <= hi {
			out = append(out, f.rids[i])
		}
	}
	return out
}

func sameRIDs(a, b []storage.RID) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]storage.RID(nil), a...)
	bs := append([]storage.RID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	f := newFixture(t, 100, linearFn, 0, PhysicalPointers, 1)
	if _, err := New(nil, f.host, nil, Config{}); err != ErrNilTable {
		t.Fatalf("want ErrNilTable, got %v", err)
	}
	if _, err := New(f.table, nil, nil, Config{}); err != ErrNilHostIndex {
		t.Fatalf("want ErrNilHostIndex, got %v", err)
	}
	if _, err := New(f.table, f.host, nil, Config{Scheme: LogicalPointers}); err != ErrNeedPrimary {
		t.Fatalf("want ErrNeedPrimary, got %v", err)
	}
}

func TestExactRangeResultsLinear(t *testing.T) {
	for _, scheme := range []PointerScheme{PhysicalPointers, LogicalPointers} {
		f := newFixture(t, 20000, linearFn, 0.02, scheme, 2)
		idx := newIndex(t, f, scheme, false)
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 30; trial++ {
			lo := rng.Float64() * 1000
			hi := lo + rng.Float64()*50
			res := idx.Lookup(lo, hi)
			if !sameRIDs(res.RIDs, f.expected(lo, hi)) {
				t.Fatalf("%v scheme: wrong result for [%v,%v]", scheme, lo, hi)
			}
			if res.Qualified != len(res.RIDs) {
				t.Fatalf("qualified=%d rids=%d", res.Qualified, len(res.RIDs))
			}
		}
	}
}

func TestExactRangeResultsSigmoid(t *testing.T) {
	f := newFixture(t, 20000, sigmoidFn, 0.05, PhysicalPointers, 4)
	idx := newIndex(t, f, PhysicalPointers, false)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		lo := rng.Float64() * 1000
		hi := lo + rng.Float64()*80
		res := idx.Lookup(lo, hi)
		if !sameRIDs(res.RIDs, f.expected(lo, hi)) {
			t.Fatalf("wrong result for [%v,%v]", lo, hi)
		}
	}
}

func TestPointLookup(t *testing.T) {
	f := newFixture(t, 10000, linearFn, 0.02, LogicalPointers, 6)
	idx := newIndex(t, f, LogicalPointers, false)
	for trial := 0; trial < 50; trial++ {
		i := trial * 131 % len(f.rows)
		v := f.rows[i][2]
		res := idx.LookupPoint(v)
		if !sameRIDs(res.RIDs, f.expected(v, v)) {
			t.Fatalf("point lookup %v wrong", v)
		}
	}
	// Missing key.
	res := idx.LookupPoint(-1234.5)
	if len(res.RIDs) != 0 {
		t.Fatalf("missing key returned %d rows", len(res.RIDs))
	}
}

func TestFalsePositiveCounters(t *testing.T) {
	f := newFixture(t, 20000, sigmoidFn, 0.05, PhysicalPointers, 7)
	idx := newIndex(t, f, PhysicalPointers, false)
	res := idx.Lookup(100, 200)
	if res.Candidates < res.Qualified {
		t.Fatalf("candidates=%d < qualified=%d", res.Candidates, res.Qualified)
	}
	fp := res.FalsePositiveRatio()
	if fp < 0 || fp >= 1 {
		t.Fatalf("fp ratio %v out of range", fp)
	}
	if idx.LifetimeFalsePositiveRatio() < 0 {
		t.Fatal("lifetime ratio negative")
	}
	idx.ResetCounters()
	if idx.LifetimeFalsePositiveRatio() != 0 {
		t.Fatal("reset failed")
	}
	var empty Result
	if empty.FalsePositiveRatio() != 0 {
		t.Fatal("empty result fp ratio")
	}
}

func TestLargeErrorBoundIncreasesFalsePositives(t *testing.T) {
	f := newFixture(t, 20000, linearFn, 0.01, PhysicalPointers, 8)
	small := trstree.DefaultParams()
	small.ErrorBound = 2
	large := trstree.DefaultParams()
	large.ErrorBound = 10000
	mk := func(p trstree.Params) *Index {
		idx, err := New(f.table, f.host, f.primary, Config{
			TargetCol: 2, HostCol: 1, Scheme: PhysicalPointers, Params: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	idxS, idxL := mk(small), mk(large)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		lo := rng.Float64() * 900
		hi := lo + 0.1 // near-point query exposes eps
		rs := idxS.Lookup(lo, hi)
		rl := idxL.Lookup(lo, hi)
		if !sameRIDs(rs.RIDs, rl.RIDs) {
			t.Fatal("results differ between error bounds")
		}
	}
	if idxL.LifetimeFalsePositiveRatio() < idxS.LifetimeFalsePositiveRatio() {
		t.Fatalf("fp(eb=10000)=%v < fp(eb=2)=%v, contradicts Fig. 17",
			idxL.LifetimeFalsePositiveRatio(), idxS.LifetimeFalsePositiveRatio())
	}
}

func TestProfileBreakdown(t *testing.T) {
	f := newFixture(t, 20000, sigmoidFn, 0.02, LogicalPointers, 10)
	idx := newIndex(t, f, LogicalPointers, true)
	var total Breakdown
	for trial := 0; trial < 10; trial++ {
		res := idx.Lookup(float64(trial*90), float64(trial*90+50))
		total.Add(res.Breakdown)
	}
	if total.Total() == 0 {
		t.Fatal("profiling captured no time")
	}
	fr := total.Fractions()
	var sum float64
	for _, v := range fr {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v", sum)
	}
	// Logical scheme must attribute time to the primary-index phase.
	if total[PhasePrimaryIndex] == 0 {
		t.Fatal("no primary-index time under logical pointers")
	}
	var zero Breakdown
	if f := zero.Fractions(); f[0] != 0 {
		t.Fatal("zero breakdown fractions")
	}
}

func TestInsertDeleteUpdateMaintenance(t *testing.T) {
	f := newFixture(t, 10000, linearFn, 0.01, PhysicalPointers, 11)
	idx := newIndex(t, f, PhysicalPointers, false)

	// Insert a new row (an outlier: host value off the line).
	row := []float64{999999, 2500, 321.5, 0}
	rid, err := f.table.Insert(row)
	if err != nil {
		t.Fatal(err)
	}
	f.host.Insert(row[1], uint64(rid))
	idx.Insert(rid, row[2], row[1])
	res := idx.Lookup(321.5, 321.5)
	found := false
	for _, r := range res.RIDs {
		if r == rid {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted row not visible")
	}

	// Update the host value: the tuple moves on the correlation plane.
	newB := linearFn(321.5)
	if err := f.table.Set(rid, 1, newB); err != nil {
		t.Fatal(err)
	}
	f.host.Delete(row[1], uint64(rid))
	f.host.Insert(newB, uint64(rid))
	idx.Update(rid, 321.5, row[1], newB)
	res = idx.Lookup(321.5, 321.5)
	found = false
	for _, r := range res.RIDs {
		if r == rid {
			found = true
		}
	}
	if !found {
		t.Fatal("updated row not visible")
	}

	// Delete it.
	idx.Delete(rid, 321.5, newB)
	f.host.Delete(newB, uint64(rid))
	if err := f.table.Delete(rid); err != nil {
		t.Fatal(err)
	}
	res = idx.Lookup(321.5, 321.5)
	for _, r := range res.RIDs {
		if r == rid {
			t.Fatal("deleted row still visible")
		}
	}
}

func TestDeletedTupleFilteredDuringValidation(t *testing.T) {
	// A tuple deleted from the table but stale in the host index must be
	// dropped by the validation step, not returned or crashed on.
	f := newFixture(t, 1000, linearFn, 0, PhysicalPointers, 12)
	idx := newIndex(t, f, PhysicalPointers, false)
	victim := f.rids[500]
	if err := f.table.Delete(victim); err != nil {
		t.Fatal(err)
	}
	res := idx.Lookup(0, 1000)
	for _, r := range res.RIDs {
		if r == victim {
			t.Fatal("tombstoned tuple returned")
		}
	}
}

func TestSizeBytesSuccinct(t *testing.T) {
	f := newFixture(t, 50000, linearFn, 0.01, PhysicalPointers, 13)
	idx := newIndex(t, f, PhysicalPointers, false)
	full := btree.New(testOrder)
	for i, row := range f.rows {
		full.Insert(row[2], uint64(f.rids[i]))
	}
	if idx.SizeBytes()*5 > full.SizeBytes() {
		t.Fatalf("hermit %d bytes not ≪ full index %d bytes (Fig. 19)",
			idx.SizeBytes(), full.SizeBytes())
	}
	if idx.Tree() == nil {
		t.Fatal("Tree() nil")
	}
}

func TestReorgThroughSource(t *testing.T) {
	f := newFixture(t, 10000, linearFn, 0, PhysicalPointers, 14)
	cfg := Config{TargetCol: 2, HostCol: 1, Scheme: PhysicalPointers, Params: trstree.DefaultParams()}
	cfg.Params.SampleRate = 0
	idx, err := New(f.table, f.host, f.primary, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Flood a narrow region with off-model rows.
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 3000; i++ {
		c := 400 + rng.Float64()*5
		b := 9*c + 50000
		row := []float64{float64(100000 + i), b, c, 0}
		rid, err := f.table.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		f.rows = append(f.rows, [4]float64{row[0], row[1], row[2], row[3]})
		f.rids = append(f.rids, rid)
		f.host.Insert(b, uint64(rid))
		idx.Insert(rid, c, b)
	}
	if idx.Tree().PendingReorg() == 0 {
		t.Fatal("no reorg candidates queued")
	}
	before := idx.SizeBytes()
	n, err := idx.Tree().ReorgOnce(idx.Source())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing rebuilt")
	}
	if idx.SizeBytes() >= before {
		t.Fatalf("reorg did not shrink index: %d -> %d", before, idx.SizeBytes())
	}
	res := idx.Lookup(400, 405)
	if !sameRIDs(res.RIDs, f.expected(400, 405)) {
		t.Fatal("results wrong after reorg")
	}
}

func TestBuildParallelWorkers(t *testing.T) {
	f := newFixture(t, 30000, sigmoidFn, 0.02, PhysicalPointers, 16)
	cfg := Config{
		TargetCol: 2, HostCol: 1, Scheme: PhysicalPointers,
		Params: trstree.DefaultParams(), BuildWorkers: 4,
	}
	idx, err := New(f.table, f.host, f.primary, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := idx.Lookup(200, 300)
	if !sameRIDs(res.RIDs, f.expected(200, 300)) {
		t.Fatal("parallel-built index returned wrong results")
	}
}

func TestEmptyTableIndex(t *testing.T) {
	tb := storage.NewTable(4)
	host := btree.New(testOrder)
	idx, err := New(tb, host, nil, Config{TargetCol: 2, HostCol: 1, Params: trstree.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if res := idx.Lookup(0, 100); len(res.RIDs) != 0 {
		t.Fatal("empty index returned rows")
	}
	// Rows inserted later are found via outlier/edge-leaf handling.
	row := []float64{1, 50, 10, 0}
	rid, _ := tb.Insert(row)
	host.Insert(row[1], uint64(rid))
	idx.Insert(rid, row[2], row[1])
	res := idx.Lookup(10, 10)
	if len(res.RIDs) != 1 || res.RIDs[0] != rid {
		t.Fatalf("late insert not found: %+v", res)
	}
}

func TestSchemeAndPhaseStrings(t *testing.T) {
	if PhysicalPointers.String() != "physical" || LogicalPointers.String() != "logical" {
		t.Fatal("PointerScheme.String")
	}
	want := []string{"trs-tree", "host-index", "primary-index", "base-table"}
	for i, w := range want {
		if Phase(i).String() != w {
			t.Fatalf("Phase(%d)=%q want %q", i, Phase(i).String(), w)
		}
	}
}

// Property: Hermit's results match a full table scan for random correlation
// shapes, noise, schemes and predicates — exactness is the paper's
// correctness guarantee (§5.2).
func TestQuickExactness(t *testing.T) {
	fns := []func(float64) float64{linearFn, sigmoidFn,
		func(c float64) float64 { return c*c/50 + 10 },
		func(c float64) float64 { return 800 - c/4 },
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scheme := PointerScheme(rng.Intn(2))
		fx := newFixture(t, 4000, fns[rng.Intn(len(fns))], rng.Float64()*0.15, scheme, seed)
		params := trstree.DefaultParams()
		params.ErrorBound = []float64{1, 2, 100, 10000}[rng.Intn(4)]
		idx, err := New(fx.table, fx.host, fx.primary, Config{
			TargetCol: 2, HostCol: 1, PKCol: 0, Scheme: scheme, Params: params,
		})
		if err != nil {
			return false
		}
		for trial := 0; trial < 8; trial++ {
			lo := rng.Float64() * 1000
			hi := lo + rng.Float64()*120
			if !sameRIDs(idx.Lookup(lo, hi).RIDs, fx.expected(lo, hi)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHermitRange1pct(b *testing.B) {
	f := newFixture(b, 200000, linearFn, 0.01, PhysicalPointers, 1)
	idx := newIndex(b, f, PhysicalPointers, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := float64(i%990) + 0.1
		idx.Lookup(lo, lo+10) // ~1% selectivity over [0,1000)
	}
}

func BenchmarkHermitPoint(b *testing.B) {
	f := newFixture(b, 200000, linearFn, 0.01, PhysicalPointers, 1)
	idx := newIndex(b, f, PhysicalPointers, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.LookupPoint(f.rows[i%len(f.rows)][2])
	}
}

// TestLookupIntoReusesScratch: a Scratch carried across lookups gives the
// same results as fresh ones, allocates nothing once warm, and Trim drops
// a harvest that outgrew the retention cap.
func TestLookupIntoReusesScratch(t *testing.T) {
	for _, scheme := range []PointerScheme{PhysicalPointers, LogicalPointers} {
		f := newFixture(t, 20000, linearFn, 0.02, scheme, 5)
		idx := newIndex(t, f, scheme, false)
		var sc Scratch
		rng := rand.New(rand.NewSource(6))
		for trial := 0; trial < 30; trial++ {
			lo := rng.Float64() * 1000
			hi := lo + rng.Float64()*50
			if res := idx.LookupInto(lo, hi, &sc); !sameRIDs(res.RIDs, f.expected(lo, hi)) {
				t.Fatalf("%v scheme: wrong result for [%v,%v] on a reused scratch", scheme, lo, hi)
			}
		}
		idx.LookupInto(0, 1000, &sc) // grow every buffer to the largest harvest
		if allocs := testing.AllocsPerRun(50, func() { idx.LookupInto(400, 450, &sc) }); allocs != 0 {
			t.Fatalf("%v scheme: warm LookupInto allocates %.1f/op", scheme, allocs)
		}
		sc.Trim(1 << 20)
		if cap(sc.ids) == 0 || cap(sc.rids) == 0 {
			t.Fatal("Trim dropped buffers under the cap")
		}
		sc.Trim(16)
		if sc.ids != nil || sc.rids != nil || sc.tres.IDs != nil {
			t.Fatal("Trim kept buffers over the cap")
		}
		if res := idx.LookupInto(100, 120, &sc); !sameRIDs(res.RIDs, f.expected(100, 120)) {
			t.Fatalf("%v scheme: wrong result after Trim", scheme)
		}
	}
}
