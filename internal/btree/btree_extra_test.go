package btree

import (
	"math"
	"testing"
)

func TestMaxAfterRightmostDeletes(t *testing.T) {
	// Lazy deletion can empty the rightmost leaf; Max must fall back to the
	// scan path and still report the true maximum.
	tr := New(4)
	for i := 0; i < 100; i++ {
		tr.Insert(float64(i), uint64(i))
	}
	// Empty out the tail of the key space.
	for i := 90; i < 100; i++ {
		if !tr.Delete(float64(i), uint64(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	mx, ok := tr.Max()
	if !ok || mx != 89 {
		t.Fatalf("max=%v ok=%v, want 89", mx, ok)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

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
