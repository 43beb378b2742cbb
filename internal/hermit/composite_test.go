package hermit

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hermit/internal/btree"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// compositeFixture models the paper's running example: columns
// 0=TIME (days), 1=DJ (host), 2=SP (target, near-linear in DJ), 3=VOL.
type compositeFixture struct {
	table *storage.Table
	host  *btree.Tree // (TIME, DJ) -> rid
	rows  [][4]float64
	rids  []storage.RID
}

func newCompositeFixture(t testing.TB, n int, noise float64, seed int64) *compositeFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := &compositeFixture{
		table: storage.NewTable(4),
		host:  btree.NewComposite(testOrder),
	}
	dj := 2500.0
	for day := 0; day < n; day++ {
		dj *= 1 + rng.NormFloat64()*0.01
		sp := dj/8 + rng.NormFloat64()*0.05 // S&P tracks Dow/8 tightly
		if rng.Float64() < noise {
			sp = rng.Float64() * dj / 4 // regime-shift day
		}
		row := [4]float64{float64(day), dj, sp, rng.Float64() * 1e6}
		rid, err := f.table.Insert(row[:])
		if err != nil {
			t.Fatal(err)
		}
		f.rows = append(f.rows, row)
		f.rids = append(f.rids, rid)
		f.host.InsertAB(row[0], row[1], uint64(rid))
	}
	return f
}

// expected returns the RIDs of the rows with A in [aLo, aHi] and M in
// [mLo, mHi].
func (f *compositeFixture) expected(aLo, aHi, mLo, mHi float64) []uint64 {
	var out []uint64
	for i, row := range f.rows {
		if row[0] >= aLo && row[0] <= aHi && row[2] >= mLo && row[2] <= mHi {
			out = append(out, uint64(f.rids[i]))
		}
	}
	return out
}

func newCompositeIndex(t testing.TB, f *compositeFixture) *Index {
	t.Helper()
	idx, err := New(f.table, f.host, Config{TargetCol: 2, HostCol: 1, Params: trstree.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// harvest2 runs one composite lookup on a fresh scratch and returns its
// candidates.
func harvest2(idx *Index, aLo, aHi, mLo, mHi float64) []uint64 {
	var sc Scratch
	idx.LookupAB(aLo, aHi, mLo, mHi, &sc, false)
	return sc.IDs
}

func TestCompositeValidation(t *testing.T) {
	f := newCompositeFixture(t, 100, 0, 1)
	if _, err := New(nil, f.host, Config{}); err != ErrNilTable {
		t.Fatalf("want ErrNilTable, got %v", err)
	}
	if _, err := New(f.table, nil, Config{}); err != ErrNilHostIndex {
		t.Fatalf("want ErrNilHostIndex, got %v", err)
	}
	if _, err := New(f.table, f.host, Config{TargetCol: 9}); err == nil {
		t.Fatal("bad column accepted")
	}
}

func TestCompositeRunningExampleQuery(t *testing.T) {
	// "WHERE TIME BETWEEN ? AND ? AND SP BETWEEN ? AND ?" (paper §3).
	f := newCompositeFixture(t, 15000, 0.005, 2)
	idx := newCompositeIndex(t, f)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		aLo := rng.Float64() * 14000
		aHi := aLo + rng.Float64()*1000
		spLo := 100 + rng.Float64()*400
		spHi := spLo + rng.Float64()*100
		if !covers(harvest2(idx, aLo, aHi, spLo, spHi), f.expected(aLo, aHi, spLo, spHi)) {
			t.Fatalf("harvest misses a row of TIME [%v,%v] SP [%v,%v]", aLo, aHi, spLo, spHi)
		}
	}
}

// TestCompositeBothPredicatesFilter: the host probe applies the A
// predicate, so a narrow TIME window harvests its own rows plus, at most,
// the TRS-Tree's outliers — not every row whose SP matches.
func TestCompositeBothPredicatesFilter(t *testing.T) {
	f := newCompositeFixture(t, 5000, 0.01, 4)
	idx := newCompositeIndex(t, f)
	want := f.expected(100, 110, 0, 1e9)
	if len(want) != 11 {
		t.Fatalf("TIME window holds %d rows, want 11", len(want))
	}
	cands := harvest2(idx, 100, 110, 0, 1e9)
	if !covers(cands, want) {
		t.Fatal("harvest misses a row of the TIME window")
	}
	if outliers := idx.Tree().OutlierCount(); len(cands) > len(want)+outliers {
		t.Fatalf("TIME window harvested %d candidates: 11 rows + %d outliers at most", len(cands), outliers)
	}
}

func TestCompositeMaintenance(t *testing.T) {
	f := newCompositeFixture(t, 2000, 0, 5)
	idx := newCompositeIndex(t, f)
	// Insert a regime-shift row (outlier).
	row := []float64{99999, 5000, 9999, 0}
	rid, err := f.table.Insert(row)
	if err != nil {
		t.Fatal(err)
	}
	f.host.InsertAB(row[0], row[1], uint64(rid))
	idx.Insert(uint64(rid), row[2], row[1])
	if !has(harvest2(idx, 99999, 99999, 9999, 9999), uint64(rid)) {
		t.Fatal("inserted row not harvested")
	}
	// Delete it.
	idx.Delete(uint64(rid), row[2], row[1])
	f.host.DeleteAB(row[0], row[1], uint64(rid))
	if err := f.table.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if has(harvest2(idx, 99999, 99999, 9999, 9999), uint64(rid)) {
		t.Fatal("deleted row still harvested")
	}
}

func TestCompositeProfileAndReorg(t *testing.T) {
	f := newCompositeFixture(t, 10000, 0.02, 6)
	idx := newCompositeIndex(t, f)
	var sc Scratch
	if bd := idx.LookupAB(0, 5000, 200, 400, &sc, true); bd.Total() == 0 {
		t.Fatal("no profile time recorded")
	}
	if idx.Tree() == nil || idx.SizeBytes() == 0 {
		t.Fatal("accessors")
	}
	// Reorg through the composite source keeps the harvest covering.
	reorgAll(t, idx.Tree(), idx.Source())
	if err := idx.Tree().ReorgSubtree(0, idx.Source()); err != nil {
		t.Fatal(err)
	}
	if !covers(harvest2(idx, 0, 10000, 200, 400), f.expected(0, 10000, 200, 400)) {
		t.Fatal("harvest misses a matching row after reorg")
	}
}

// Property: composite harvests cover the two-predicate reference filter
// for random windows.
func TestQuickCompositeExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fx := newCompositeFixture(t, 3000, rng.Float64()*0.1, seed)
		params := trstree.DefaultParams()
		params.ErrorBound = []float64{1, 2, 100}[rng.Intn(3)]
		idx, err := New(fx.table, fx.host, Config{TargetCol: 2, HostCol: 1, Params: params})
		if err != nil {
			return false
		}
		for trial := 0; trial < 8; trial++ {
			aLo := rng.Float64() * 3000
			aHi := aLo + rng.Float64()*500
			mLo := rng.Float64() * 600
			mHi := mLo + rng.Float64()*200
			if !covers(harvest2(idx, aLo, aHi, mLo, mHi), fx.expected(aLo, aHi, mLo, mHi)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompositeLookup(b *testing.B) {
	f := newCompositeFixture(b, 100000, 0.005, 1)
	idx := newCompositeIndex(b, f)
	var sc Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aLo := float64(i % 90000)
		idx.LookupAB(aLo, aLo+5000, 200, 260, &sc, false)
	}
}
