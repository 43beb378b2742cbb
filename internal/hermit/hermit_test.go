package hermit

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hermit/internal/btree"
	"hermit/internal/keyorder"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// fixture is a synthetic table in the paper's Appendix A layout:
// col0 = colA (primary key), col1 = colB (host, correlated with colC),
// col2 = colC (target), col3 = colD (payload).
type fixture struct {
	table *storage.Table
	host  *btree.Tree // colB -> id
	rows  [][4]float64
	rids  []storage.RID
}

// testOrder is the node capacity of the fixtures' host trees: small, so that
// a few thousand rows give the scans this package runs a tree of several
// levels to cross rather than a handful of leaves.
const testOrder = 16

func newFixture(t testing.TB, n int, fn func(c float64) float64, noise float64, scheme PointerScheme, seed int64) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := &fixture{table: storage.NewTable(4), host: btree.New(testOrder)}
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

func newIndex(t testing.TB, f *fixture, scheme PointerScheme) *Index {
	t.Helper()
	return newIndexWith(t, f, Config{TargetCol: 2, HostCol: 1, PKCol: 0, Scheme: scheme, Params: trstree.DefaultParams()})
}

func newIndexWith(t testing.TB, f *fixture, cfg Config) *Index {
	t.Helper()
	idx, err := New(f.table, f.host, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// id is the identifier of the fixture's row i under scheme.
func (f *fixture) id(i int, scheme PointerScheme) uint64 {
	if scheme == LogicalPointers {
		return LogicalID(f.rows[i][0])
	}
	return uint64(f.rids[i])
}

// expected returns the identifiers of the rows whose colC value lies in
// [lo, hi].
func (f *fixture) expected(lo, hi float64, scheme PointerScheme) []uint64 {
	var out []uint64
	for i, row := range f.rows {
		if row[2] >= lo && row[2] <= hi {
			out = append(out, f.id(i, scheme))
		}
	}
	return out
}

// harvest runs one lookup on a fresh scratch and returns its candidates.
func harvest(idx *Index, lo, hi float64) []uint64 {
	var sc Scratch
	idx.Lookup(lo, hi, &sc, false)
	return sc.IDs
}

// covers reports whether the candidates include every identifier in want:
// no false negatives, the paper's one safety property (§5.2). Dropping the
// false positives is the base-table pass's, outside this package.
func covers(cands, want []uint64) bool {
	in := make(map[uint64]bool, len(cands))
	for _, id := range cands {
		in[id] = true
	}
	for _, id := range want {
		if !in[id] {
			return false
		}
	}
	return true
}

// distinct counts the distinct identifiers in ids.
func distinct(ids []uint64) int {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	return len(slices.Compact(ids))
}

// reorgAll rebuilds every first-level subtree of tr from src.
func reorgAll(t testing.TB, tr *trstree.Tree, src trstree.DataSource) {
	t.Helper()
	for i := range tr.Params().NodeFanout {
		if err := tr.ReorgSubtree(i, src); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	f := newFixture(t, 100, linearFn, 0, PhysicalPointers, 1)
	if _, err := New(nil, f.host, Config{}); err != ErrNilTable {
		t.Fatalf("want ErrNilTable, got %v", err)
	}
	if _, err := New(f.table, nil, Config{}); err != ErrNilHostIndex {
		t.Fatalf("want ErrNilHostIndex, got %v", err)
	}
}

func TestExactRangeResultsLinear(t *testing.T) {
	for _, scheme := range []PointerScheme{PhysicalPointers, LogicalPointers} {
		f := newFixture(t, 20000, linearFn, 0.02, scheme, 2)
		idx := newIndex(t, f, scheme)
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 30; trial++ {
			lo := rng.Float64() * 1000
			hi := lo + rng.Float64()*50
			if !covers(harvest(idx, lo, hi), f.expected(lo, hi, scheme)) {
				t.Fatalf("%v scheme: harvest for [%v,%v] misses a matching row", scheme, lo, hi)
			}
		}
	}
}

func TestExactRangeResultsSigmoid(t *testing.T) {
	f := newFixture(t, 20000, sigmoidFn, 0.05, PhysicalPointers, 4)
	idx := newIndex(t, f, PhysicalPointers)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		lo := rng.Float64() * 1000
		hi := lo + rng.Float64()*80
		if !covers(harvest(idx, lo, hi), f.expected(lo, hi, PhysicalPointers)) {
			t.Fatalf("harvest for [%v,%v] misses a matching row", lo, hi)
		}
	}
}

func TestPointLookup(t *testing.T) {
	f := newFixture(t, 10000, linearFn, 0.02, LogicalPointers, 6)
	idx := newIndex(t, f, LogicalPointers)
	for trial := 0; trial < 50; trial++ {
		v := f.rows[trial*131%len(f.rows)][2]
		cands := harvest(idx, v, v)
		if !covers(cands, f.expected(v, v, LogicalPointers)) {
			t.Fatalf("point lookup %v misses its row", v)
		}
		// A point harvests about one leaf's worth of host range, not the
		// table.
		if len(cands) > len(f.rows)/10 {
			t.Fatalf("point lookup %v harvests %d of %d rows", v, len(cands), len(f.rows))
		}
	}
}

// TestFalsePositiveCounters: a noisy range's harvest holds its answer plus
// a bounded share of false positives — the ratio Fig. 17 plots, which the
// engine reports as 1 − Rows/Candidates.
func TestFalsePositiveCounters(t *testing.T) {
	f := newFixture(t, 20000, sigmoidFn, 0.05, PhysicalPointers, 7)
	idx := newIndex(t, f, PhysicalPointers)
	cands, want := harvest(idx, 100, 200), f.expected(100, 200, PhysicalPointers)
	if !covers(cands, want) {
		t.Fatal("harvest misses a matching row")
	}
	if fp := 1 - float64(len(want))/float64(distinct(cands)); fp < 0 || fp >= 1 {
		t.Fatalf("fp ratio %v out of range", fp)
	}
}

func TestLargeErrorBoundIncreasesFalsePositives(t *testing.T) {
	f := newFixture(t, 20000, linearFn, 0.01, PhysicalPointers, 8)
	mk := func(eb float64) *Index {
		p := trstree.DefaultParams()
		p.ErrorBound = eb
		return newIndexWith(t, f, Config{TargetCol: 2, HostCol: 1, Scheme: PhysicalPointers, Params: p})
	}
	idxS, idxL := mk(2), mk(10000)
	rng := rand.New(rand.NewSource(9))
	var small, large int
	for trial := 0; trial < 20; trial++ {
		lo := rng.Float64() * 900
		hi := lo + 0.1 // near-point query exposes eps
		want := f.expected(lo, hi, PhysicalPointers)
		cs, cl := harvest(idxS, lo, hi), harvest(idxL, lo, hi)
		if !covers(cs, want) || !covers(cl, want) {
			t.Fatal("a harvest misses a matching row")
		}
		small, large = small+distinct(cs), large+distinct(cl)
	}
	if large < small {
		t.Fatalf("eb=10000 harvested %d candidates < eb=2's %d, contradicts Fig. 17", large, small)
	}
}

// TestProfileBreakdown: a profiled lookup times its own two phases, the
// TRS-Tree and the host index; the primary-index and base-table phases are
// the reader's.
func TestProfileBreakdown(t *testing.T) {
	f := newFixture(t, 20000, sigmoidFn, 0.02, LogicalPointers, 10)
	idx := newIndex(t, f, LogicalPointers)
	var total Breakdown
	var sc Scratch
	for trial := 0; trial < 10; trial++ {
		total.Add(idx.Lookup(float64(trial*90), float64(trial*90+50), &sc, true))
	}
	if total[PhaseTRSTree] == 0 || total[PhaseHostIndex] == 0 {
		t.Fatalf("profiling captured no time: %v", total)
	}
	if total[PhasePrimaryIndex] != 0 || total[PhaseBaseTable] != 0 {
		t.Fatalf("a lookup timed its reader's phases: %v", total)
	}
	fr := total.Fractions()
	var sum float64
	for _, v := range fr {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v", sum)
	}
	if bd := idx.Lookup(0, 50, &sc, false); bd.Total() != 0 {
		t.Fatal("an unprofiled lookup timed itself")
	}
	var zero Breakdown
	if f := zero.Fractions(); f[0] != 0 {
		t.Fatal("zero breakdown fractions")
	}
}

// has reports whether id is among the candidates.
func has(cands []uint64, id uint64) bool { return slices.Contains(cands, id) }

func TestInsertDeleteUpdateMaintenance(t *testing.T) {
	f := newFixture(t, 10000, linearFn, 0.01, PhysicalPointers, 11)
	idx := newIndex(t, f, PhysicalPointers)

	// Insert a new row (an outlier: host value off the line).
	row := []float64{999999, 2500, 321.5, 0}
	rid, err := f.table.Insert(row)
	if err != nil {
		t.Fatal(err)
	}
	f.host.Insert(row[1], uint64(rid))
	idx.Insert(uint64(rid), row[2], row[1])
	if !has(harvest(idx, 321.5, 321.5), uint64(rid)) {
		t.Fatal("inserted row not harvested")
	}

	// Update the host value: the tuple moves on the correlation plane.
	// The row is rewritten by a delete and the insert that refills its
	// slot, the one free slot of the table.
	newB := linearFn(321.5)
	if err := f.table.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if again, err := f.table.Insert([]float64{row[0], newB, row[2], row[3]}); err != nil || again != rid {
		t.Fatalf("refill went to %v (%v), not %v", again, err, rid)
	}
	f.host.Delete(row[1], uint64(rid))
	f.host.Insert(newB, uint64(rid))
	idx.Update(uint64(rid), 321.5, row[1], newB)
	if !has(harvest(idx, 321.5, 321.5), uint64(rid)) {
		t.Fatal("updated row not harvested")
	}

	// Delete it.
	idx.Delete(uint64(rid), 321.5, newB)
	f.host.Delete(newB, uint64(rid))
	if err := f.table.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if has(harvest(idx, 321.5, 321.5), uint64(rid)) {
		t.Fatal("deleted row still harvested")
	}
}

// TestHarvestReadsNoRow: a tuple deleted from the table but still in the
// host index stays a candidate — the lookup reads no row, and dropping the
// stale identifier is the reader's base-table pass.
func TestHarvestReadsNoRow(t *testing.T) {
	f := newFixture(t, 1000, linearFn, 0, PhysicalPointers, 12)
	idx := newIndex(t, f, PhysicalPointers)
	victim := f.rids[500]
	if err := f.table.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if !has(harvest(idx, 0, 1000), uint64(victim)) {
		t.Fatal("a lookup consulted the table")
	}
}

func TestSizeBytesSuccinct(t *testing.T) {
	f := newFixture(t, 50000, linearFn, 0.01, PhysicalPointers, 13)
	idx := newIndex(t, f, PhysicalPointers)
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
	idx := newIndexWith(t, f, cfg)
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
		idx.Insert(uint64(rid), c, b)
	}
	before := idx.SizeBytes()
	reorgAll(t, idx.Tree(), idx.Source())
	if idx.SizeBytes() >= before {
		t.Fatalf("reorg did not shrink index: %d -> %d", before, idx.SizeBytes())
	}
	if !covers(harvest(idx, 400, 405), f.expected(400, 405, PhysicalPointers)) {
		t.Fatal("harvest misses a matching row after reorg")
	}
}

// A rebuild of a logical-pointer index beside a writer on the same table
// returns. Its rescan reads each row's primary key in the scan's own hold
// of the table's read latch: one that read it through Table.Value took the
// read latch a second time, which queues behind a writer waiting for the
// first hold, so the rebuild and the writer waited on each other for good.
func TestReorgBesideWriter(t *testing.T) {
	f := newFixture(t, 50_000, linearFn, 0.02, LogicalPointers, 31)
	idx := newIndex(t, f, LogicalPointers)
	stop := make(chan struct{})
	wrote := make(chan error, 1)
	go func() {
		row := make([]float64, 4)
		for i := 0; i < 200_000; i++ {
			select {
			case <-stop:
				wrote <- nil
				return
			default:
			}
			row[0], row[2] = float64(1_000_000+i), float64(i%1000)
			row[1] = linearFn(row[2])
			if _, err := f.table.Insert(row); err != nil {
				wrote <- err
				return
			}
			runtime.Gosched()
		}
		wrote <- nil
	}()
	rebuilt := make(chan error, 1)
	go func() {
		for i := range idx.Tree().Params().NodeFanout {
			if err := idx.Tree().ReorgSubtree(i, idx.Source()); err != nil {
				rebuilt <- err
				return
			}
		}
		rebuilt <- nil
	}()
	select {
	case err := <-rebuilt:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rebuilding every first-level subtree beside a writer did not return in 30 s")
	}
	close(stop)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
}

func TestBuildParallelWorkers(t *testing.T) {
	f := newFixture(t, 30000, sigmoidFn, 0.02, PhysicalPointers, 16)
	idx := newIndexWith(t, f, Config{
		TargetCol: 2, HostCol: 1, Scheme: PhysicalPointers,
		Params: trstree.DefaultParams(), BuildWorkers: 4,
	})
	if !covers(harvest(idx, 200, 300), f.expected(200, 300, PhysicalPointers)) {
		t.Fatal("parallel-built index misses a matching row")
	}
}

func TestEmptyTableIndex(t *testing.T) {
	tb := storage.NewTable(4)
	host := btree.New(testOrder)
	idx, err := New(tb, host, Config{TargetCol: 2, HostCol: 1, Params: trstree.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if cands := harvest(idx, 0, 100); len(cands) != 0 {
		t.Fatal("empty index harvested candidates")
	}
	// Rows inserted later are found via outlier/edge-leaf handling.
	row := []float64{1, 50, 10, 0}
	rid, _ := tb.Insert(row)
	host.Insert(row[1], uint64(rid))
	idx.Insert(uint64(rid), row[2], row[1])
	if cands := harvest(idx, 10, 10); !has(cands, uint64(rid)) {
		t.Fatalf("late insert not harvested: %v", cands)
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

// Property: Hermit's harvest covers a full table scan's answer for random
// correlation shapes, noise, schemes and predicates — no false negatives,
// the paper's correctness guarantee (§5.2); the engine's base-table pass
// then makes the answer exact.
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
		idx := newIndexWith(t, fx, Config{TargetCol: 2, HostCol: 1, PKCol: 0, Scheme: scheme, Params: params})
		for trial := 0; trial < 8; trial++ {
			lo := rng.Float64() * 1000
			hi := lo + rng.Float64()*120
			if !covers(harvest(idx, lo, hi), fx.expected(lo, hi, scheme)) {
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
	idx := newIndex(b, f, PhysicalPointers)
	var sc Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := float64(i%990) + 0.1
		idx.Lookup(lo, lo+10, &sc, false) // ~1% selectivity over [0,1000)
	}
}

func BenchmarkHermitPoint(b *testing.B) {
	f := newFixture(b, 200000, linearFn, 0.01, PhysicalPointers, 1)
	idx := newIndex(b, f, PhysicalPointers)
	var sc Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := f.rows[i%len(f.rows)][2]
		idx.Lookup(v, v, &sc, false)
	}
}

// TestLookupIntoReusesScratch: a Scratch carried across lookups harvests
// what fresh ones do, allocates nothing once warm, and Trim drops a harvest
// that outgrew the retention cap.
func TestLookupIntoReusesScratch(t *testing.T) {
	for _, scheme := range []PointerScheme{PhysicalPointers, LogicalPointers} {
		f := newFixture(t, 20000, linearFn, 0.02, scheme, 5)
		idx := newIndex(t, f, scheme)
		var sc Scratch
		rng := rand.New(rand.NewSource(6))
		for trial := 0; trial < 30; trial++ {
			lo := rng.Float64() * 1000
			hi := lo + rng.Float64()*50
			idx.Lookup(lo, hi, &sc, false)
			if !slices.Equal(sc.IDs, harvest(idx, lo, hi)) {
				t.Fatalf("%v scheme: a reused scratch harvested otherwise for [%v,%v]", scheme, lo, hi)
			}
		}
		idx.Lookup(0, 1000, &sc, false) // grow every buffer to the largest harvest
		if allocs := testing.AllocsPerRun(50, func() { idx.Lookup(400, 450, &sc, false) }); allocs != 0 {
			t.Fatalf("%v scheme: warm Lookup allocates %.1f/op", scheme, allocs)
		}
		sc.Trim(1 << 20)
		if cap(sc.IDs) == 0 {
			t.Fatal("Trim dropped buffers under the cap")
		}
		sc.Trim(16)
		if sc.IDs != nil || sc.tres.IDs != nil {
			t.Fatal("Trim kept buffers over the cap")
		}
		idx.Lookup(100, 120, &sc, false)
		if !covers(sc.IDs, f.expected(100, 120, scheme)) {
			t.Fatalf("%v scheme: harvest misses a matching row after Trim", scheme)
		}
	}
}

// TestLogicalIDsDense holds the logical identifier to its contract: a
// whole key from 0 below 2^53 is its own identifier, every other key
// round-trips through it bit for bit, LogicalRank is the key's rank, and
// swap is its own inverse.
func TestLogicalIDsDense(t *testing.T) {
	for _, c := range []struct {
		pk float64
		id uint64
	}{{0, 0}, {math.Copysign(0, -1), 0}, {1, 1}, {1<<53 - 1, 1<<53 - 1}} {
		if got := LogicalID(c.pk); got != c.id {
			t.Errorf("LogicalID(%v) = %#x, want %#x", c.pk, got, c.id)
		}
	}
	for _, pk := range []float64{
		0, 1, 1<<53 - 1, 1 << 53, 0.5, -1, math.Inf(1), math.Inf(-1),
		-math.MaxFloat64, -0x1p1023, math.SmallestNonzeroFloat64,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
	} {
		id := LogicalID(pk)
		if got := LogicalKey(id); math.Float64bits(got) != math.Float64bits(pk) {
			t.Errorf("LogicalKey(LogicalID(%v)) = %v (%#x), want %#x", pk, got, math.Float64bits(got), math.Float64bits(pk))
		}
		if got, want := LogicalRank(id), keyorder.Rank(pk); got != want {
			t.Errorf("LogicalRank(LogicalID(%v)) = %#x, want the rank %#x", pk, got, want)
		}
	}
	for _, r := range []uint64{0, 1<<53 - 1, 1 << 53, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		if got := swap(swap(r)); got != r {
			t.Errorf("swap(swap(%#x)) = %#x", r, got)
		}
	}
}
