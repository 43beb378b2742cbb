package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
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
	// Prefix scan ignores b.
	count = 0
	tr.ScanPrefix(10, 19, func(a, b float64, _ uint64) bool { count++; return true })
	if count != 10*20 {
		t.Fatalf("prefix count=%d", count)
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
