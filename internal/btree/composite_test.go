package btree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"hermit/internal/keyorder"
)

// entsOf returns every entry of a two-key tree in leaf-chain order, b's
// rank included.
func entsOf(tr *Tree) []ent {
	n := tr.root
	for !n.leaf() {
		n = n.in.children[0]
	}
	var es []ent
	for ; n != nil; n = n.next {
		for i := range int(n.n) {
			es = append(es, n.at(i, true))
		}
	}
	return es
}

// scanIDs returns the ids ScanAB yields, in its order.
func scanIDs(tr *Tree, aLo, aHi, bLo, bHi float64) []uint64 {
	var ids []uint64
	tr.ScanAB(aLo, aHi, bLo, bHi, func(_ float64, id uint64) bool { ids = append(ids, id); return true })
	return ids
}

func TestCompositeInsertScan(t *testing.T) {
	tr := NewComposite(8)
	// Grid of (a, b) pairs.
	id := uint64(0)
	for a := 0; a < 50; a++ {
		for b := 0; b < 20; b++ {
			tr.InsertAB(float64(a), float64(b), id)
			id++
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("len=%d", tr.Len())
	}
	count := 0
	tr.ScanAB(10, 19, 5, 9, func(a float64, id uint64) bool {
		if b := id % 20; a < 10 || a > 19 || b < 5 || b > 9 || float64(id/20) != a {
			t.Fatalf("entry %d (a %v) outside predicate", id, a)
		}
		count++
		return true
	})
	if count != 10*5 {
		t.Fatalf("count=%d want 50", count)
	}
	// Inverted predicates.
	tr.ScanAB(5, 1, 0, 100, func(float64, uint64) bool {
		t.Fatal("inverted a-range called fn")
		return false
	})
	tr.ScanAB(0, 100, 5, 1, func(float64, uint64) bool {
		t.Fatal("inverted b-range called fn")
		return false
	})
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompositeOrdering(t *testing.T) {
	tr := NewComposite(4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		tr.InsertAB(math.Floor(rng.Float64()*20), math.Floor(rng.Float64()*20), uint64(i))
	}
	es := entsOf(tr)
	for i := 1; i < len(es); i++ {
		if cmpEnt(es[i-1], es[i]) > 0 {
			t.Fatalf("out of order: %v after %v", es[i], es[i-1])
		}
	}
	if len(es) != 2000 {
		t.Fatalf("%d entries in the leaf chain, want 2000", len(es))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompositeDelete(t *testing.T) {
	tr := NewComposite(8)
	for i := 0; i < 500; i++ {
		tr.InsertAB(float64(i%10), float64(i%7), uint64(i))
	}
	// Entry 31 has key (31%10, 31%7) = (1, 3).
	if !tr.DeleteAB(1, 3, 31) {
		t.Fatal("delete of existing entry failed")
	}
	if tr.DeleteAB(999, 999, 999) || tr.DeleteAB(1, 4, 31) {
		t.Fatal("deleted missing entry")
	}
	if tr.Len() != 499 || tr.ContainsAB(1, 3, 31) || !tr.ContainsAB(2, 4, 32) {
		t.Fatalf("len=%d", tr.Len())
	}
}

func TestCompositeDeleteExact(t *testing.T) {
	tr := NewComposite(8)
	tr.InsertAB(1, 2, 7)
	tr.InsertAB(1, 2, 8)
	if !tr.DeleteAB(1, 2, 7) {
		t.Fatal("delete failed")
	}
	if tr.DeleteAB(1, 2, 7) {
		t.Fatal("double delete")
	}
	if got := scanIDs(tr, 1, 1, 2, 2); !slices.Equal(got, []uint64{8}) || tr.Len() != 1 {
		t.Fatalf("survivors %v, len=%d", got, tr.Len())
	}
}

func TestCompositeBulkLoad(t *testing.T) {
	n := 10000
	as := make([]float64, n)
	bs := make([]float64, n)
	ids := make([]uint64, n)
	for i := range as {
		as[i] = float64(i / 100)
		bs[i] = float64(i % 100)
		ids[i] = uint64(i)
	}
	tr := NewComposite(testOrder)
	if err := tr.BulkLoadAB(as, bs, ids); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("len=%d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := len(scanIDs(tr, 10, 12, 50, 59)); got != 3*10 {
		t.Fatalf("count=%d", got)
	}
	// Mutations after bulk load.
	tr.InsertAB(10.5, 1, 999999)
	if got := scanIDs(tr, 10.5, 10.5, 0, 2); !slices.Equal(got, []uint64{999999}) {
		t.Fatalf("insert after bulk load: scan finds %v", got)
	}
	if err := tr.BulkLoadAB([]float64{2, 1}, []float64{0, 0}, []uint64{0, 0}); err == nil {
		t.Fatal("unsorted accepted")
	}
	if err := tr.BulkLoadAB([]float64{1, 1}, []float64{1, 0}, []uint64{0, 0}); err == nil {
		t.Fatal("unsorted b accepted")
	}
	if err := tr.BulkLoadAB([]float64{1}, []float64{}, []uint64{0}); err == nil {
		t.Fatal("mismatched accepted")
	}
	empty := NewComposite(testOrder)
	if err := empty.BulkLoadAB(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := empty.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompositeSizeBytes(t *testing.T) {
	tr := NewComposite(testOrder)
	base := tr.SizeBytes()
	for i := 0; i < 10000; i++ {
		tr.InsertAB(float64(i), float64(i), uint64(i))
	}
	if tr.SizeBytes() <= base {
		t.Fatal("size did not grow")
	}
}

// A two-key leaf's b frame through b ranks below its base, off its grid
// and too wide for its width, each of which re-encodes the leaf: a scan
// bound between two grid points or outside the frame selects exactly the
// entries it bounds, and a b between grid points is no entry's.
func TestCompositeBFrame(t *testing.T) {
	tr := NewComposite(DefaultOrder)
	for i, b := range []float64{8, 16, 24, 4, 5, 1e300, -3} {
		tr.InsertAB(1, b, uint64(i))
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after b %v: %v", b, err)
		}
	}
	if !tr.root.leaf() {
		t.Fatal("seven entries are more than one leaf")
	}
	for _, c := range []struct {
		lo, hi float64
		want   []uint64
	}{
		{4.5, 15.9, []uint64{4, 0}},
		{-10, 4, []uint64{6, 3}},
		{5, 5, []uint64{4}},
		{17, 23, nil},
		{1e301, math.Inf(1), nil},
		{math.Inf(-1), -4, nil},
		{math.Inf(-1), math.Inf(1), []uint64{6, 3, 4, 0, 1, 2, 5}},
	} {
		if got := scanIDs(tr, 1, 1, c.lo, c.hi); !slices.Equal(got, c.want) {
			t.Errorf("ScanAB(b in [%v, %v]) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	for i, b := range []float64{8, 16, 24, 4, 5, 1e300, -3} {
		if !tr.ContainsAB(1, b, uint64(i)) || tr.ContainsAB(1, b, uint64(i)+7) || tr.ContainsAB(2, b, uint64(i)) {
			t.Fatalf("ContainsAB around (1, %v, %d) wrong", b, i)
		}
	}
	if tr.ContainsAB(1, 4.5, 3) || tr.ContainsAB(1, 4.5, 4) {
		t.Fatal("ContainsAB found a b between two grid points")
	}
}

// Property: composite scans agree with a reference filter under random
// inserts and deletes, and the tree keeps its invariants.
func TestQuickCompositeReference(t *testing.T) {
	type entry struct {
		a, b float64
		id   uint64
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewComposite(4 + rng.Intn(20))
		var ref []entry
		for op := 0; op < 3000; op++ {
			if len(ref) > 0 && rng.Float64() < 0.2 {
				i := rng.Intn(len(ref))
				if !tr.DeleteAB(ref[i].a, ref[i].b, ref[i].id) {
					return false
				}
				ref = append(ref[:i], ref[i+1:]...)
			} else {
				e := entry{a: float64(rng.Intn(30)), b: float64(rng.Intn(30)), id: uint64(op)}
				tr.InsertAB(e.a, e.b, e.id)
				ref = append(ref, e)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		for trial := 0; trial < 10; trial++ {
			aLo := rng.Float64() * 30
			aHi := aLo + rng.Float64()*10
			bLo := rng.Float64() * 30
			bHi := bLo + rng.Float64()*10
			var want []entry
			for _, e := range ref {
				if e.a >= aLo && e.a <= aHi && e.b >= bLo && e.b <= bHi {
					want = append(want, e)
				}
			}
			sort.Slice(want, func(x, y int) bool {
				return cmpEnt(ent{want[x].a, keyorder.Rank(want[x].b), want[x].id}, ent{want[y].a, keyorder.Rank(want[y].b), want[y].id}) < 0
			})
			var got []entry
			tr.ScanAB(aLo, aHi, bLo, bHi, func(a float64, id uint64) bool {
				got = append(got, entry{a, ref[slices.IndexFunc(ref, func(e entry) bool { return e.id == id })].b, id})
				return true
			})
			if !slices.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// A composite tree over NaN, ±0 and ±Inf in both columns — built by Insert
// and by BulkLoad in keyorder.SortTriples order, as the engine builds it —
// answers every Scan with non-NaN bounds like a filter by ordinary
// comparison (so never with a NaN), finds every entry to Delete, and is
// empty after.
func TestCompositeTotalOrder(t *testing.T) {
	keys := []float64{negNaN, nanA, nanB, math.Inf(-1), -1, negZero, 0, 1, 2, math.Inf(1)}
	var as, bs []float64
	var ids []uint64
	for _, a := range keys {
		for _, b := range keys {
			for r := 0; r < 3; r++ {
				as, bs, ids = append(as, a), append(bs, b), append(ids, uint64(len(ids)))
			}
		}
	}
	bounds := []float64{math.Inf(-1), -1, negZero, 0, 1, math.Inf(1)}
	for _, build := range []string{"insert", "bulk"} {
		tr := NewComposite(4)
		if build == "bulk" {
			sa, sb, si := slices.Clone(as), slices.Clone(bs), slices.Clone(ids)
			keyorder.SortTriples(sa, sb, si)
			if err := tr.BulkLoadAB(sa, sb, si); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, i := range rand.New(rand.NewSource(1)).Perm(len(ids)) {
				tr.InsertAB(as[i], bs[i], ids[i])
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", build, err)
		}
		for _, aLo := range bounds {
			for _, aHi := range bounds {
				for _, bLo := range bounds {
					for _, bHi := range bounds {
						var want, got []uint64
						for i, id := range ids {
							if as[i] >= aLo && as[i] <= aHi && bs[i] >= bLo && bs[i] <= bHi {
								want = append(want, id)
							}
						}
						tr.ScanAB(aLo, aHi, bLo, bHi, func(a float64, id uint64) bool {
							if a != a || bs[id] != bs[id] {
								t.Fatalf("%s: Scan(%v, %v, %v, %v) returned (%v, %v)", build, aLo, aHi, bLo, bHi, a, bs[id])
							}
							got = append(got, id)
							return true
						})
						slices.Sort(got)
						if !slices.Equal(got, want) {
							t.Fatalf("%s: Scan(%v, %v, %v, %v) = %v, want %v", build, aLo, aHi, bLo, bHi, got, want)
						}
					}
				}
			}
		}
		for i, id := range ids {
			if !tr.DeleteAB(as[i], bs[i], id) {
				t.Fatalf("%s: Delete(%v, %v, %d) did not find the entry", build, as[i], bs[i], id)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%s: after Delete(%v, %v, %d): %v", build, as[i], bs[i], id, err)
			}
		}
		tr.ScanAB(math.Inf(-1), math.Inf(1), math.Inf(-1), math.Inf(1), func(a float64, id uint64) bool {
			t.Fatalf("%s: (%v, %d) left after deleting every entry", build, a, id)
			return false
		})
		if tr.Len() != 0 {
			t.Fatalf("%s: Len %d after deleting every entry", build, tr.Len())
		}
	}
}

// BenchmarkCompositeScan scans a bulk-loaded two-key tree of 1M entries
// (a whole keys from 0 to 1M, b uniform in [0, 1000)) at DefaultOrder: each
// scan takes 1000 consecutive a keys and keeps the tenth of them whose b is
// in its b range.
func BenchmarkCompositeScan(b *testing.B) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(1))
	as, bs, ids := make([]float64, n), make([]float64, n), make([]uint64, n)
	for i := range as {
		as[i], bs[i], ids[i] = float64(i), rng.Float64()*1000, uint64(i)
	}
	tr := NewComposite(DefaultOrder)
	if err := tr.BulkLoadAB(as, bs, ids); err != nil {
		b.Fatal(err)
	}
	kept := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, blo := float64(i*997%(n-1000)), float64(i%900)
		tr.ScanAB(lo, lo+999, blo, blo+100, func(float64, uint64) bool { kept++; return true })
	}
	b.ReportMetric(float64(kept)/float64(b.N), "kept/scan")
}
