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
	host  *btree.CompositeTree // (TIME, DJ) -> rid
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
		f.host.Insert(row[0], row[1], uint64(rid))
	}
	return f
}

func (f *compositeFixture) expected(aLo, aHi, mLo, mHi float64) map[storage.RID]bool {
	out := map[storage.RID]bool{}
	for i, row := range f.rows {
		if row[0] >= aLo && row[0] <= aHi && row[2] >= mLo && row[2] <= mHi {
			out[f.rids[i]] = true
		}
	}
	return out
}

func newCompositeIndex(t testing.TB, f *compositeFixture, profile bool) *CompositeIndex {
	t.Helper()
	idx, err := NewComposite(f.table, f.host, CompositeConfig{
		ACol: 0, TargetCol: 2, HostCol: 1,
		Params:  trstree.DefaultParams(),
		Profile: profile,
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func matches(res Result, want map[storage.RID]bool) bool {
	if len(res.RIDs) != len(want) {
		return false
	}
	for _, rid := range res.RIDs {
		if !want[rid] {
			return false
		}
	}
	return true
}

func TestCompositeValidation(t *testing.T) {
	f := newCompositeFixture(t, 100, 0, 1)
	if _, err := NewComposite(nil, f.host, CompositeConfig{}); err != ErrNilTable {
		t.Fatalf("want ErrNilTable, got %v", err)
	}
	if _, err := NewComposite(f.table, nil, CompositeConfig{}); err != ErrNilHostIndex {
		t.Fatalf("want ErrNilHostIndex, got %v", err)
	}
	if _, err := NewComposite(f.table, f.host, CompositeConfig{ACol: 9}); err == nil {
		t.Fatal("bad column accepted")
	}
}

func TestCompositeRunningExampleQuery(t *testing.T) {
	// "WHERE TIME BETWEEN ? AND ? AND SP BETWEEN ? AND ?" (paper §3).
	f := newCompositeFixture(t, 15000, 0.005, 2)
	idx := newCompositeIndex(t, f, false)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		aLo := rng.Float64() * 14000
		aHi := aLo + rng.Float64()*1000
		spLo := 100 + rng.Float64()*400
		spHi := spLo + rng.Float64()*100
		res := idx.Lookup(aLo, aHi, spLo, spHi)
		if !matches(res, f.expected(aLo, aHi, spLo, spHi)) {
			t.Fatalf("wrong result for TIME [%v,%v] SP [%v,%v]", aLo, aHi, spLo, spHi)
		}
		if res.Qualified != len(res.RIDs) || res.Candidates < res.Qualified {
			t.Fatalf("counters inconsistent: %+v", res)
		}
	}
	if idx.LifetimeFalsePositiveRatio() < 0 || idx.LifetimeFalsePositiveRatio() >= 1 {
		t.Fatalf("fp ratio %v", idx.LifetimeFalsePositiveRatio())
	}
}

func TestCompositeBothPredicatesFilter(t *testing.T) {
	f := newCompositeFixture(t, 5000, 0.01, 4)
	idx := newCompositeIndex(t, f, false)
	// Narrow TIME window: the A predicate must prune rows whose SP matches.
	res := idx.Lookup(100, 110, 0, 1e9)
	if len(res.RIDs) != 11 {
		t.Fatalf("TIME window returned %d rows, want 11", len(res.RIDs))
	}
	// Empty intersections.
	if res := idx.Lookup(5, 1, 0, 1e9); len(res.RIDs) != 0 {
		t.Fatal("inverted TIME range")
	}
	if res := idx.Lookup(0, 1e9, -5, -1); len(res.RIDs) != 0 {
		t.Fatal("impossible SP range")
	}
}

func TestCompositeMaintenance(t *testing.T) {
	f := newCompositeFixture(t, 2000, 0, 5)
	idx := newCompositeIndex(t, f, false)
	// Insert a regime-shift row (outlier).
	row := []float64{99999, 5000, 9999, 0}
	rid, err := f.table.Insert(row)
	if err != nil {
		t.Fatal(err)
	}
	f.rows = append(f.rows, [4]float64{row[0], row[1], row[2], row[3]})
	f.rids = append(f.rids, rid)
	f.host.Insert(row[0], row[1], uint64(rid))
	idx.Insert(rid, row[2], row[1])
	res := idx.Lookup(99999, 99999, 9999, 9999)
	if len(res.RIDs) != 1 || res.RIDs[0] != rid {
		t.Fatalf("inserted row not found: %+v", res)
	}
	// Delete it.
	idx.Delete(rid, row[2], row[1])
	f.host.Delete(row[0], row[1], uint64(rid))
	if err := f.table.Delete(rid); err != nil {
		t.Fatal(err)
	}
	res = idx.Lookup(99999, 99999, 9999, 9999)
	if len(res.RIDs) != 0 {
		t.Fatal("deleted row still visible")
	}
}

func TestCompositeProfileAndReorg(t *testing.T) {
	f := newCompositeFixture(t, 10000, 0.02, 6)
	idx := newCompositeIndex(t, f, true)
	res := idx.Lookup(0, 5000, 200, 400)
	if res.Breakdown.Total() == 0 {
		t.Fatal("no profile time recorded")
	}
	if idx.Tree() == nil || idx.SizeBytes() == 0 {
		t.Fatal("accessors")
	}
	// Reorg through the composite source keeps results exact.
	if _, err := idx.Tree().ReorgOnce(idx.Source()); err != nil {
		t.Fatal(err)
	}
	if err := idx.Tree().ReorgSubtree(0, idx.Source()); err != nil {
		t.Fatal(err)
	}
	res = idx.Lookup(0, 10000, 200, 400)
	if !matches(res, f.expected(0, 10000, 200, 400)) {
		t.Fatal("results wrong after reorg")
	}
}

// Property: composite lookups equal the two-predicate reference filter for
// random windows.
func TestQuickCompositeExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fx := newCompositeFixture(t, 3000, rng.Float64()*0.1, seed)
		params := trstree.DefaultParams()
		params.ErrorBound = []float64{1, 2, 100}[rng.Intn(3)]
		idx, err := NewComposite(fx.table, fx.host, CompositeConfig{
			ACol: 0, TargetCol: 2, HostCol: 1, Params: params,
		})
		if err != nil {
			return false
		}
		for trial := 0; trial < 8; trial++ {
			aLo := rng.Float64() * 3000
			aHi := aLo + rng.Float64()*500
			mLo := rng.Float64() * 600
			mHi := mLo + rng.Float64()*200
			if !matches(idx.Lookup(aLo, aHi, mLo, mHi), fx.expected(aLo, aHi, mLo, mHi)) {
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
	idx := newCompositeIndex(b, f, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aLo := float64(i % 90000)
		idx.Lookup(aLo, aLo+5000, 200, 260)
	}
}
