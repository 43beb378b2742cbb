package keyorder

import (
	"math"
	"sort"
	"testing"
)

// keys in ascending total order; the two zeros are one key.
var ordered = []float64{
	math.Float64frombits(0xfff8000000000002), // negative NaNs sort below -Inf,
	math.Float64frombits(0xfff8000000000001), // larger payload first
	math.Inf(-1),
	-math.MaxFloat64,
	-2.5,
	-math.SmallestNonzeroFloat64,
	0,
	math.SmallestNonzeroFloat64,
	1,
	math.MaxFloat64,
	math.Inf(1),
	math.NaN(),
	math.Float64frombits(0x7ff8000000000002),
}

func TestTotalOrder(t *testing.T) {
	for i, a := range ordered {
		for j, b := range ordered {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := Compare(a, b); got != want {
				t.Errorf("Compare(%v [%#x], %v [%#x]) = %d, want %d", a, math.Float64bits(a), b, math.Float64bits(b), got, want)
			}
			if got := Less(a, b); got != (want < 0) {
				t.Errorf("Less(%v, %v) = %v", a, b, got)
			}
			if (Rank(a) < Rank(b)) != (want < 0) {
				t.Errorf("Rank order of %v and %v disagrees with Compare", a, b)
			}
		}
		if got := Unrank(Rank(a)); math.Float64bits(got) != math.Float64bits(a) {
			t.Errorf("Unrank(Rank(%#x)) = %#x", math.Float64bits(a), math.Float64bits(got))
		}
	}
	if !sort.SliceIsSorted(ordered, func(i, j int) bool { return Less(ordered[i], ordered[j]) }) {
		t.Error("the table itself is not in Less order")
	}
}

func TestZerosAreOneKey(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if Bits(negZero) != Bits(0) || Rank(negZero) != Rank(0) || Compare(negZero, 0) != 0 || Less(negZero, 0) || Less(0, negZero) {
		t.Fatal("-0 and +0 must be one key")
	}
	if math.Signbit(Unrank(Rank(negZero))) {
		t.Fatal("Unrank returns the normalised zero")
	}
}
