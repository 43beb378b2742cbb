package engine

import (
	"math"
	"testing"

	"hermit/internal/hermit"
)

// TestPartitionOfBoundsAndDegenerate: results stay in [0, n) for every
// input, and degenerate partition counts collapse to partition 0.
func TestPartitionOfBoundsAndDegenerate(t *testing.T) {
	keys := []float64{0, -0.0, 1, -1, 0.5, 1e308, -1e308, 5e-324,
		math.NaN(), math.Inf(1), math.Inf(-1), 12345.6789}
	for _, n := range []int{-3, 0, 1} {
		for _, k := range keys {
			if p := PartitionOf(k, n); p != 0 {
				t.Fatalf("PartitionOf(%v, %d) = %d, want 0", k, n, p)
			}
		}
	}
	for _, n := range []int{2, 3, 7, 64} {
		for _, k := range keys {
			if p := PartitionOf(k, n); p < 0 || p >= n {
				t.Fatalf("PartitionOf(%v, %d) = %d out of range", k, n, p)
			}
		}
	}
}

// TestPartitionOfNegativeZero: -0 and +0 compare equal as keys, so they
// must route to the same partition.
func TestPartitionOfNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if math.Float64bits(negZero) == math.Float64bits(0) {
		t.Fatal("test setup: -0 not distinct at the bit level")
	}
	for _, n := range []int{2, 3, 5, 17, 1024} {
		if PartitionOf(negZero, n) != PartitionOf(0, n) {
			t.Fatalf("n=%d: -0 routes to %d, +0 to %d",
				n, PartitionOf(negZero, n), PartitionOf(0, n))
		}
	}
}

// TestPartitionOfNonFinite: NaN and the infinities are legal float64 keys
// (the engine stores them bit-exactly), so routing must be deterministic
// for them too.
func TestPartitionOfNonFinite(t *testing.T) {
	for _, k := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, n := range []int{2, 5, 16} {
			a, b := PartitionOf(k, n), PartitionOf(k, n)
			if a != b {
				t.Fatalf("PartitionOf(%v, %d) unstable: %d then %d", k, n, a, b)
			}
		}
	}
	// The two NaN payloads the engine can realistically see hash by their
	// bit patterns; any answer is fine as long as it is deterministic and
	// in range (covered above), and +Inf != -Inf routing is allowed.
}

// TestPartitionOfStability: the hash is pure — the same (key, n) pair
// always routes identically across calls (recovery routes logged records
// by recomputing it, so instability would corrupt partitioned replay).
func TestPartitionOfStability(t *testing.T) {
	for i := 0; i < 1000; i++ {
		k := float64(i) * 1.618033988749
		for _, n := range []int{2, 3, 8} {
			want := PartitionOf(k, n)
			for r := 0; r < 3; r++ {
				if got := PartitionOf(k, n); got != want {
					t.Fatalf("PartitionOf(%v, %d) unstable", k, n)
				}
			}
		}
	}
}

// TestPartitionOfSpread: splitmix64 over adjacent integer keys must not
// degenerate — every partition of a small count receives a fair share.
func TestPartitionOfSpread(t *testing.T) {
	const n, keys = 8, 8000
	var counts [n]int
	for i := 0; i < keys; i++ {
		counts[PartitionOf(float64(i), n)]++
	}
	for p, c := range counts {
		if c < keys/n/2 || c > keys/n*2 {
			t.Fatalf("partition %d holds %d of %d keys (expected ~%d)", p, c, keys, keys/n)
		}
	}
}

// TestPartitionNameReserved: the generated per-partition names use the
// '#' separator and embed the partition index, and '#' is reserved for
// them: no table name may hold it, so none collides with a partition's.
func TestPartitionNameReserved(t *testing.T) {
	if got := PartitionName("orders", 3); got != "orders#3" {
		t.Fatalf("PartitionName = %q", got)
	}
	if got := PartitionName("a#b", 0); got != "a#b#0" {
		t.Fatalf("PartitionName = %q", got)
	}
	db := NewDB(hermit.PhysicalPointers)
	for _, name := range []string{"t#0", "a#b"} {
		if _, err := db.CreateTable(name, []string{"k"}, 0); err == nil {
			t.Fatalf("CreateTable(%q) accepted a name holding '#'", name)
		}
	}
	if err := db.CreatePartitionedTable("t", []string{"k"}, 0, 2); err != nil {
		t.Fatal(err)
	}
	if tb, err := db.Table("t#1"); err != nil || tb.Name() != "t#1" {
		t.Fatalf("Table(t#1) = %v, %v", tb, err)
	}
	for _, name := range []string{"t", "t#2", "t#01", "t#-0"} {
		if _, err := db.Table(name); err == nil {
			t.Fatalf("Table(%q) named an engine table", name)
		}
	}
}
