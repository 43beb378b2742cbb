package keyorder

import (
	"math"
	"math/rand"
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

// RankBits and Rank agree on every bit pattern but -0's, which RankBits
// places just below +0, and Unrank inverts both: RankBits bit for bit,
// Rank up to the sign of zero.
func TestRankBits(t *testing.T) {
	negZero := uint64(1) << 63
	if RankBits(negZero)+1 != RankBits(0) || Rank(math.Float64frombits(negZero)) != RankBits(0) {
		t.Fatalf("-0 ranks %#x, +0 %#x", RankBits(negZero), RankBits(0))
	}
	check := func(b uint64) {
		k := math.Float64frombits(b)
		if r := RankBits(b); r != Rank(k) && b != negZero {
			t.Fatalf("RankBits(%#x) = %#x, Rank = %#x", b, r, Rank(k))
		}
		if got := math.Float64bits(Unrank(RankBits(b))); got != b {
			t.Fatalf("Unrank(RankBits(%#x)) = %#x", b, got)
		}
		if got := math.Float64bits(Unrank(Rank(k))); got != Bits(k) {
			t.Fatalf("Unrank(Rank(%#x)) = %#x", b, got)
		}
	}
	for _, k := range ordered {
		check(math.Float64bits(k))
	}
	for _, b := range []uint64{negZero, 0, 1, negZero | 1, 1<<64 - 1, 1<<63 - 1} {
		check(b)
	}
	rng := rand.New(rand.NewSource(1))
	for range 1 << 20 {
		check(rng.Uint64())
	}
	// The order of the reals, -0 below +0.
	reals := []float64{math.Inf(-1), -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, math.Inf(1)}
	for i := 1; i < len(reals); i++ {
		if RankBits(math.Float64bits(reals[i-1])) >= RankBits(math.Float64bits(reals[i])) {
			t.Fatalf("RankBits does not order %v below %v", reals[i-1], reals[i])
		}
	}
}
