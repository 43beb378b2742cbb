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

func TestCompositeInsertScan(t *testing.T) {
	tr := NewComposite(8)
	// Grid of (a, b) pairs.
	id := uint64(0)
	for a := 0; a < 50; a++ {
		for b := 0; b < 20; b++ {
			tr.Insert(float64(a), float64(b), id)
			id++
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("len=%d", tr.Len())
	}
	count := 0
	tr.Scan(10, 19, 5, 9, func(a, b float64, _ uint64) bool {
		if a < 10 || a > 19 || b < 5 || b > 9 {
			t.Fatalf("entry (%v,%v) outside predicate", a, b)
		}
		count++
		return true
	})
	if count != 10*5 {
		t.Fatalf("count=%d want 50", count)
	}
	// Inverted predicates.
	tr.Scan(5, 1, 0, 100, func(float64, float64, uint64) bool {
		t.Fatal("inverted a-range called fn")
		return false
	})
	tr.Scan(0, 100, 5, 1, func(float64, float64, uint64) bool {
		t.Fatal("inverted b-range called fn")
		return false
	})
}

func TestCompositeOrdering(t *testing.T) {
	tr := NewComposite(4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		tr.Insert(math.Floor(rng.Float64()*20), math.Floor(rng.Float64()*20), uint64(i))
	}
	prevA, prevB := math.Inf(-1), math.Inf(-1)
	var prevID uint64
	first := true
	tr.Scan(math.Inf(-1), math.Inf(1), math.Inf(-1), math.Inf(1), func(a, b float64, id uint64) bool {
		if !first {
			if cmp3(prevA, prevB, prevID, a, b, id) > 0 {
				t.Fatalf("out of order: (%v,%v,%d) after (%v,%v,%d)", a, b, id, prevA, prevB, prevID)
			}
		}
		first = false
		prevA, prevB, prevID = a, b, id
		return true
	})
}

func TestCompositeDelete(t *testing.T) {
	tr := NewComposite(8)
	for i := 0; i < 500; i++ {
		tr.Insert(float64(i%10), float64(i%7), uint64(i))
	}
	// Entry 31 has key (31%10, 31%7) = (1, 3).
	if !tr.Delete(1, 3, 31) {
		t.Fatal("delete of existing entry failed")
	}
	if tr.Delete(999, 999, 999) {
		t.Fatal("deleted missing entry")
	}
	if tr.Len() != 499 {
		t.Fatalf("len=%d", tr.Len())
	}
}

func TestCompositeDeleteExact(t *testing.T) {
	tr := NewComposite(8)
	tr.Insert(1, 2, 7)
	tr.Insert(1, 2, 8)
	if !tr.Delete(1, 2, 7) {
		t.Fatal("delete failed")
	}
	if tr.Delete(1, 2, 7) {
		t.Fatal("double delete")
	}
	n := 0
	tr.Scan(1, 1, 2, 2, func(_, _ float64, id uint64) bool {
		if id != 8 {
			t.Fatalf("wrong survivor %d", id)
		}
		n++
		return true
	})
	if n != 1 || tr.Len() != 1 {
		t.Fatalf("n=%d len=%d", n, tr.Len())
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
	if err := tr.BulkLoad(as, bs, ids); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("len=%d", tr.Len())
	}
	count := 0
	tr.Scan(10, 12, 50, 59, func(a, b float64, _ uint64) bool { count++; return true })
	if count != 3*10 {
		t.Fatalf("count=%d", count)
	}
	// Mutations after bulk load.
	tr.Insert(10.5, 1, 999999)
	found := false
	tr.Scan(10.5, 10.5, 0, 2, func(_, _ float64, id uint64) bool {
		found = id == 999999
		return false
	})
	if !found {
		t.Fatal("insert after bulk load lost")
	}
	if err := tr.BulkLoad([]float64{2, 1}, []float64{0, 0}, []uint64{0, 0}); err == nil {
		t.Fatal("unsorted accepted")
	}
	if err := tr.BulkLoad([]float64{1}, []float64{}, []uint64{}); err == nil {
		t.Fatal("mismatched accepted")
	}
	empty := NewComposite(testOrder)
	if err := empty.BulkLoad(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompositeSizeBytes(t *testing.T) {
	tr := NewComposite(testOrder)
	base := tr.SizeBytes()
	for i := 0; i < 10000; i++ {
		tr.Insert(float64(i), float64(i), uint64(i))
	}
	if tr.SizeBytes() <= base {
		t.Fatal("size did not grow")
	}
}

// Property: composite scans agree with a reference filter under random
// inserts and deletes.
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
				if !tr.Delete(ref[i].a, ref[i].b, ref[i].id) {
					return false
				}
				ref = append(ref[:i], ref[i+1:]...)
			} else {
				e := entry{a: float64(rng.Intn(30)), b: float64(rng.Intn(30)), id: uint64(op)}
				tr.Insert(e.a, e.b, e.id)
				ref = append(ref, e)
			}
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
				return cmp3(want[x].a, want[x].b, want[x].id, want[y].a, want[y].b, want[y].id) < 0
			})
			var got []entry
			tr.Scan(aLo, aHi, bLo, bHi, func(a, b float64, id uint64) bool {
				got = append(got, entry{a, b, id})
				return true
			})
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
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
			if err := tr.BulkLoad(sa, sb, si); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, i := range rand.New(rand.NewSource(1)).Perm(len(ids)) {
				tr.Insert(as[i], bs[i], ids[i])
			}
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
						tr.Scan(aLo, aHi, bLo, bHi, func(a, b float64, id uint64) bool {
							if a != a || b != b {
								t.Fatalf("%s: Scan(%v, %v, %v, %v) returned (%v, %v)", build, aLo, aHi, bLo, bHi, a, b)
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
			if !tr.Delete(as[i], bs[i], id) {
				t.Fatalf("%s: Delete(%v, %v, %d) did not find the entry", build, as[i], bs[i], id)
			}
		}
		tr.Scan(math.Inf(-1), math.Inf(1), math.Inf(-1), math.Inf(1), func(a, b float64, id uint64) bool {
			t.Fatalf("%s: (%v, %v, %d) left after deleting every entry", build, a, b, id)
			return false
		})
		if tr.Len() != 0 {
			t.Fatalf("%s: Len %d after deleting every entry", build, tr.Len())
		}
	}
}

func BenchmarkCompositeScan(b *testing.B) {
	tr := NewComposite(testOrder)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500000; i++ {
		tr.Insert(rng.Float64()*1000, rng.Float64()*1000, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := float64(i % 900)
		n := 0
		tr.Scan(lo, lo+10, 0, 1000, func(float64, float64, uint64) bool { n++; return true })
	}
}
