package btree

import (
	"math"
	"math/rand"
	"testing"
)

func TestScanWithInfiniteBounds(t *testing.T) {
	tr := New(testOrder)
	for i := 0; i < 50; i++ {
		tr.Insert(float64(i), uint64(i))
	}
	n := 0
	tr.Scan(math.Inf(-1), math.Inf(1), func(float64, uint64) bool { n++; return true })
	if n != 50 {
		t.Fatalf("inf scan saw %d", n)
	}
}

func TestInsertDuplicateEntryTolerated(t *testing.T) {
	tr := New(testOrder)
	tr.Insert(1, 7)
	tr.Insert(1, 7) // documented as permitted
	if tr.Len() != 2 {
		t.Fatalf("len=%d", tr.Len())
	}
	if !tr.Delete(1, 7) || !tr.Delete(1, 7) {
		t.Fatal("deleting both copies failed")
	}
	if tr.Delete(1, 7) {
		t.Fatal("third delete succeeded")
	}
}

// Exact duplicates that splits have parted — the copy left of a separator
// equal to it included — are each found by Contains and removed by Delete,
// in any order, in both trees, and found by a scan that starts at their key.
// Before Delete and Contains looked left across such a separator, entry #301
// of this run was reported missing from the Tree with 100 entries still in
// it, and #119 from the CompositeTree; before a scan's descent stayed left of
// such a separator, Lookup(0) found 15 of the 19 entries of key 0.
func TestDeleteDuplicatesPartedBySplits(t *testing.T) {
	type entry struct {
		a, b float64
		id   uint64
	}
	rng := rand.New(rand.NewSource(0))
	es := make([]entry, 400)
	tr, ct := New(8), NewComposite(8)
	for i := range es {
		a, id := float64(rng.Intn(20)), uint64(rng.Intn(3))
		es[i] = entry{a, float64(id % 2), id}
		tr.Insert(es[i].a, es[i].id)
		ct.Insert(es[i].a, es[i].b, es[i].id)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A scan from a key finds the copies left of a separator equal to its
	// first entry too.
	for a := 0.0; a < 20; a++ {
		want, got, cgot := 0, 0, 0
		for _, e := range es {
			if e.a == a {
				want++
			}
		}
		tr.Lookup(a, func(uint64) bool { got++; return true })
		ct.Scan(a, a, math.Inf(-1), math.Inf(1), func(float64, float64, uint64) bool { cgot++; return true })
		if got != want || cgot != want {
			t.Fatalf("key %v: Lookup finds %d entries, composite Scan %d, want %d", a, got, cgot, want)
		}
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	for i, e := range es {
		if !tr.Contains(e.a, e.id) {
			t.Fatalf("Contains(%v, %d) before delete #%d: false, Len %d", e.a, e.id, i+1, tr.Len())
		}
		if !tr.Delete(e.a, e.id) {
			t.Fatalf("Delete(%v, %d) #%d: not found, Len %d", e.a, e.id, i+1, tr.Len())
		}
		if !ct.Delete(e.a, e.b, e.id) {
			t.Fatalf("composite Delete(%v, %v, %d) #%d: not found, Len %d", e.a, e.b, e.id, i+1, ct.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after delete #%d: %v", i+1, err)
		}
	}
	if tr.Len() != 0 || ct.Len() != 0 {
		t.Fatalf("Len %d and %d after deleting every entry", tr.Len(), ct.Len())
	}
}
