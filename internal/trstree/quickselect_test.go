package trstree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuickselectMatchesSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[i] = rng.NormFloat64()
			case 1:
				vals[i] = float64(rng.Intn(5)) // heavy ties
			default:
				vals[i] = float64(i) // sorted run
			}
		}
		k := rng.Intn(n)
		cp := append([]float64(nil), vals...)
		got := quickselect(cp, k)
		sort.Float64s(vals)
		return got == vals[k]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianOfEdges(t *testing.T) {
	if medianOf(nil) != 0 {
		t.Fatal("empty median")
	}
	if medianOf([]float64{7}) != 7 {
		t.Fatal("single median")
	}
	if m := medianOf([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median=%v", m)
	}
	// Even length returns the lower median.
	if m := medianOf([]float64{4, 1, 3, 2}); m != 2 && m != 3 {
		t.Fatalf("even median=%v", m)
	}
}

func TestStrideSample(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := strideSample(vals, make([]float64, 10))
	if len(s) > 10 || len(s) < 5 {
		t.Fatalf("sample size %d", len(s))
	}
	// Small inputs copied whole.
	s2 := strideSample(vals[:3], make([]float64, 10))
	if len(s2) != 3 {
		t.Fatalf("small sample %d", len(s2))
	}
	// The copy must not alias.
	s2[0] = -1
	if vals[0] == -1 {
		t.Fatal("strideSample aliases input")
	}
}

func TestRobustFitResistsContamination(t *testing.T) {
	// 20% wild contamination must not move the Theil–Sen line materially —
	// the property the OLS-only Compute lacked (EXPERIMENTS.md note 3).
	rng := rand.New(rand.NewSource(9))
	pairs := make([]Pair, 2000)
	for i := range pairs {
		m := rng.Float64() * 100
		n := 3*m + 10
		if i%5 == 0 {
			n = rng.Float64() * 1e6
		}
		pairs[i] = Pair{M: m, N: n, ID: uint64(i)}
	}
	model := robustFit(pairs, make([]float64, len(pairs)))
	if model.Beta < 2.5 || model.Beta > 3.5 {
		t.Fatalf("beta=%v, want ~3 despite contamination", model.Beta)
	}
	if model.Alpha < -40 || model.Alpha > 60 {
		t.Fatalf("alpha=%v, want ~10", model.Alpha)
	}
}

func TestRobustFitDegenerateInputs(t *testing.T) {
	// Fewer than 3 points: falls back to OLS.
	m := robustFit([]Pair{{M: 1, N: 5, ID: 0}, {M: 2, N: 7, ID: 1}}, nil)
	if m.Beta != 2 || m.Alpha != 3 {
		t.Fatalf("two-point fit %+v", m)
	}
	// Constant x: horizontal line through the median host value.
	pairs := []Pair{{M: 5, N: 1}, {M: 5, N: 2}, {M: 5, N: 100}}
	m = robustFit(pairs, make([]float64, len(pairs)))
	if m.Beta != 0 || m.Alpha != 2 {
		t.Fatalf("constant-x fit %+v", m)
	}
}
