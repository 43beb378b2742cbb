package cm

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hermit/internal/btree"
	"hermit/internal/storage"
)

func TestNewMapValidation(t *testing.T) {
	if _, err := NewMap(Config{TargetBucket: 0, HostBucket: 1}); err != ErrBadBuckets {
		t.Fatalf("want ErrBadBuckets, got %v", err)
	}
	if _, err := NewMap(Config{TargetBucket: 1, HostBucket: -1}); err != ErrBadBuckets {
		t.Fatalf("want ErrBadBuckets, got %v", err)
	}
}

func TestAddRemoveEntries(t *testing.T) {
	m, err := NewMap(Config{TargetBucket: 10, HostBucket: 10})
	if err != nil {
		t.Fatal(err)
	}
	m.Add(5, 5)  // buckets (0,0)
	m.Add(7, 3)  // same buckets
	m.Add(15, 5) // (1,0)
	if m.Entries() != 2 {
		t.Fatalf("entries=%d", m.Entries())
	}
	if !m.Remove(5, 5) {
		t.Fatal("remove existing")
	}
	if m.Entries() != 2 {
		t.Fatal("refcounted entry should survive one removal")
	}
	if !m.Remove(7, 3) {
		t.Fatal("remove second")
	}
	if m.Entries() != 1 {
		t.Fatalf("entries=%d after removing both", m.Entries())
	}
	if m.Remove(7, 3) {
		t.Fatal("remove of absent mapping succeeded")
	}
}

func TestLookupMergesAdjacentBuckets(t *testing.T) {
	m, _ := NewMap(Config{TargetBucket: 10, HostBucket: 10})
	m.Add(5, 5)  // host bucket 0
	m.Add(5, 15) // host bucket 1  (adjacent -> merged)
	m.Add(5, 95) // host bucket 9  (separate)
	rs := m.Lookup(0, 9)
	if len(rs) != 2 {
		t.Fatalf("ranges=%v", rs)
	}
	if rs[0].Lo != 0 || rs[0].Hi != 20 {
		t.Fatalf("merged range=%v", rs[0])
	}
	if rs[1].Lo != 90 || rs[1].Hi != 100 {
		t.Fatalf("second range=%v", rs[1])
	}
	if out := m.Lookup(9, 0); out != nil {
		t.Fatal("inverted predicate")
	}
	if out := m.Lookup(500, 600); out != nil {
		t.Fatal("unmapped region should return nil")
	}
}

func TestNegativeValues(t *testing.T) {
	m, _ := NewMap(Config{TargetBucket: 10, HostBucket: 10})
	m.Add(-5, -25) // target bucket -1, host bucket -3
	rs := m.Lookup(-10, -1)
	if len(rs) != 1 || rs[0].Lo != -30 || rs[0].Hi != -20 {
		t.Fatalf("ranges=%v", rs)
	}
}

func TestSizeBytesTracksEntries(t *testing.T) {
	m, _ := NewMap(Config{TargetBucket: 1, HostBucket: 1})
	if m.SizeBytes() != 0 {
		t.Fatal("empty map nonzero size")
	}
	for i := 0; i < 100; i++ {
		m.Add(float64(i), float64(i*7))
	}
	small := m.SizeBytes()
	for i := 0; i < 100; i++ {
		m.Add(float64(i), float64(i*7+5000)) // new host buckets
	}
	if m.SizeBytes() <= small {
		t.Fatal("size did not grow with new mappings")
	}
}

type fixture struct {
	table *storage.Table
	host  *btree.Tree
	rows  [][2]float64
	rids  []storage.RID
}

// testOrder is the node capacity of the fixtures' host trees: small, so that
// a few thousand rows give the scans this package runs a tree of several
// levels to cross rather than a handful of leaves.
const testOrder = 16

func newFixture(t testing.TB, n int, noise float64, seed int64) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := &fixture{table: storage.NewTable(2), host: btree.New(testOrder)}
	for i := 0; i < n; i++ {
		m := rng.Float64() * 1000
		h := 2*m + 100
		if rng.Float64() < noise {
			h = rng.Float64() * 3000
		}
		rid, err := f.table.Insert([]float64{m, h})
		if err != nil {
			t.Fatal(err)
		}
		f.rows = append(f.rows, [2]float64{m, h})
		f.rids = append(f.rids, rid)
		f.host.Insert(h, uint64(rid))
	}
	return f
}

func (f *fixture) expected(lo, hi float64) []storage.RID {
	var out []storage.RID
	for i, r := range f.rows {
		if r[0] >= lo && r[0] <= hi {
			out = append(out, f.rids[i])
		}
	}
	return out
}

// harvest collects one lookup's candidates.
func harvest(idx *Index, lo, hi float64) []storage.RID {
	var out []storage.RID
	idx.Lookup(lo, hi, func(_ float64, id uint64) bool {
		out = append(out, storage.RID(id))
		return true
	})
	return out
}

// covers reports whether the candidates include every RID in want: no
// false negatives. Dropping the false positives is the base-table pass's.
func covers(cands, want []storage.RID) bool {
	for _, rid := range want {
		if !slices.Contains(cands, rid) {
			return false
		}
	}
	return true
}

func TestIndexExactResults(t *testing.T) {
	f := newFixture(t, 10000, 0.05, 1)
	idx, err := NewIndex(f.table, f.host, Config{
		TargetBucket: 16, HostBucket: 64, TargetCol: 0, HostCol: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		lo := rng.Float64() * 1000
		hi := lo + rng.Float64()*60
		cands, want := harvest(idx, lo, hi), f.expected(lo, hi)
		if !covers(cands, want) {
			t.Fatalf("harvest for [%v,%v] misses a matching row", lo, hi)
		}
		// The host ranges are disjoint, so no tuple is harvested twice.
		if c := slices.Compact(slices.Sorted(slices.Values(cands))); len(c) != len(cands) {
			t.Fatalf("harvest for [%v,%v] repeats a candidate", lo, hi)
		}
	}
}

func TestIndexMaintenance(t *testing.T) {
	f := newFixture(t, 1000, 0, 3)
	idx, err := NewIndex(f.table, f.host, Config{
		TargetBucket: 16, HostBucket: 64, TargetCol: 0, HostCol: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{321.5, 9999}
	rid, _ := f.table.Insert(row)
	f.host.Insert(row[1], uint64(rid))
	idx.Insert(row[0], row[1])
	if !slices.Contains(harvest(idx, 321, 322), rid) {
		t.Fatal("inserted row not harvested")
	}
	idx.Delete(row[0], row[1])
	f.host.Delete(row[1], uint64(rid))
	f.table.Delete(rid)
	if slices.Contains(harvest(idx, 321, 322), rid) {
		t.Fatal("deleted row harvested")
	}
}

func TestNoiseInflatesCM(t *testing.T) {
	// Appendix E: CM's mapped-bucket count balloons with sparse noise.
	clean := newFixture(t, 20000, 0, 4)
	noisy := newFixture(t, 20000, 0.10, 4)
	cfg := Config{TargetBucket: 16, HostBucket: 64, TargetCol: 0, HostCol: 1}
	ci, err := NewIndex(clean.table, clean.host, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ni, err := NewIndex(noisy.table, noisy.host, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ni.Map().Entries() <= ci.Map().Entries() {
		t.Fatalf("noise should add mappings: clean=%d noisy=%d",
			ci.Map().Entries(), ni.Map().Entries())
	}
	if ni.SizeBytes() <= ci.SizeBytes() {
		t.Fatal("noisy CM should be larger")
	}
}

func TestWiderBucketsSmallerMap(t *testing.T) {
	f := newFixture(t, 20000, 0.02, 5)
	mk := func(tb, hb float64) *Index {
		idx, err := NewIndex(f.table, f.host, Config{
			TargetBucket: tb, HostBucket: hb, TargetCol: 0, HostCol: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	fine := mk(16, 16)
	coarse := mk(1024, 1024)
	if coarse.SizeBytes() >= fine.SizeBytes() {
		t.Fatalf("coarse buckets %d >= fine buckets %d (compute-storage tradeoff)",
			coarse.SizeBytes(), fine.SizeBytes())
	}
}

// Property: CM lookup never misses a matching tuple (no false negatives),
// for random bucket widths, noise and predicates.
func TestQuickRecall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fx := newFixture(t, 3000, rng.Float64()*0.2, seed)
		cfg := Config{
			TargetBucket: []float64{4, 16, 64, 256}[rng.Intn(4)],
			HostBucket:   []float64{16, 64, 256, 1024}[rng.Intn(4)],
			TargetCol:    0, HostCol: 1,
		}
		idx, err := NewIndex(fx.table, fx.host, cfg)
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			lo := rng.Float64() * 1000
			hi := lo + rng.Float64()*100
			if !covers(harvest(idx, lo, hi), fx.expected(lo, hi)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCMLookup(b *testing.B) {
	f := newFixture(b, 100000, 0.01, 1)
	idx, err := NewIndex(f.table, f.host, Config{
		TargetBucket: 16, HostBucket: 64, TargetCol: 0, HostCol: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		lo := float64(i % 990)
		idx.Lookup(lo, lo+10, func(float64, uint64) bool { n++; return true })
	}
}
