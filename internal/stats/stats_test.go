package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 7
	}
	m, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	if !almostEqual(m.Beta, 3, 1e-12) || !almostEqual(m.Alpha, -7, 1e-12) {
		t.Fatalf("got beta=%v alpha=%v, want 3,-7", m.Beta, m.Alpha)
	}
}

func TestFitLinearNegativeSlope(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{10, 8, 6, 4}
	m, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m.Beta, -2, 1e-12) || !almostEqual(m.Alpha, 10, 1e-12) {
		t.Fatalf("got %+v", m)
	}
}

func TestFitLinearDegenerateX(t *testing.T) {
	xs := []float64{5, 5, 5}
	ys := []float64{1, 2, 3}
	m, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if m.Beta != 0 || !almostEqual(m.Alpha, 2, 1e-12) {
		t.Fatalf("degenerate x should yield horizontal mean line, got %+v", m)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear(nil, nil); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := FitLinear([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("want error for mismatched lengths")
	}
}

func TestFitLinearSinglePoint(t *testing.T) {
	m, err := FitLinear([]float64{2}, []float64{9})
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict(2) != 9 {
		t.Fatalf("single point fit should pass through the point, got %+v", m)
	}
}

func TestPredictRange(t *testing.T) {
	m := LinearModel{Beta: 2, Alpha: 1}
	lo, hi := m.PredictRange(0, 10, 0.5)
	if lo != 0.5 || hi != 21.5 {
		t.Fatalf("got [%v,%v]", lo, hi)
	}
	// Negative slope must swap endpoints (paper §4.3).
	m = LinearModel{Beta: -2, Alpha: 1}
	lo, hi = m.PredictRange(0, 10, 0.5)
	if lo != -19.5 || hi != 1.5 {
		t.Fatalf("negative slope: got [%v,%v]", lo, hi)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if r := Pearson(xs, ys); !almostEqual(r, 1, 1e-12) {
		t.Fatalf("perfect positive: got %v", r)
	}
	neg := []float64{8, 6, 4, 2}
	if r := Pearson(xs, neg); !almostEqual(r, -1, 1e-12) {
		t.Fatalf("perfect negative: got %v", r)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("zero-variance side must give 0, got %v", r)
	}
}

func TestSpearmanMonotonic(t *testing.T) {
	// Sigmoid is monotonic: Spearman must be exactly 1 even though Pearson is not.
	xs := make([]float64, 101)
	ys := make([]float64, 101)
	for i := range xs {
		x := float64(i-50) / 10
		xs[i] = x
		ys[i] = 1 / (1 + math.Exp(-x))
	}
	if r := Spearman(xs, ys); !almostEqual(r, 1, 1e-9) {
		t.Fatalf("monotonic data: spearman=%v, want 1", r)
	}
	if r := Pearson(xs, ys); r >= 1 {
		t.Fatalf("pearson should be < 1 for sigmoid, got %v", r)
	}
}

func TestSpearmanNonMonotonic(t *testing.T) {
	// sin over full periods: Spearman near 0 (paper App. D.1, Fig. 25c).
	n := 1000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := -10 + 20*float64(i)/float64(n-1)
		xs[i] = x
		ys[i] = math.Sin(x)
	}
	if r := math.Abs(Spearman(xs, ys)); r > 0.25 {
		t.Fatalf("sin should have near-zero spearman, got %v", r)
	}
}

func TestRanksTies(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks=%v want %v", r, want)
		}
	}
}

func TestResiduals(t *testing.T) {
	m := LinearModel{Beta: 1, Alpha: 0}
	res := m.Residuals([]float64{1, 2}, []float64{1.5, 1.0}, nil)
	if !almostEqual(res[0], 0.5, 1e-12) || !almostEqual(res[1], 1.0, 1e-12) {
		t.Fatalf("residuals=%v", res)
	}
	// Reuse path.
	res2 := m.Residuals([]float64{3}, []float64{3}, res)
	if len(res2) != 1 || res2[0] != 0 {
		t.Fatalf("reused residuals=%v", res2)
	}
}

// Property: OLS residuals of the fit sum to ~0 and the fit minimises squared
// error compared with small perturbations of the parameters.
func TestQuickFitLinearOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
			ys[i] = -2*xs[i] + 5 + rng.NormFloat64()*3
		}
		m, err := FitLinear(xs, ys)
		if err != nil {
			return false
		}
		sse := func(mm LinearModel) float64 {
			var s float64
			for i := range xs {
				d := ys[i] - mm.Predict(xs[i])
				s += d * d
			}
			return s
		}
		base := sse(m)
		for _, d := range []float64{0.01, -0.01} {
			if sse(LinearModel{Beta: m.Beta + d, Alpha: m.Alpha}) < base-1e-9 {
				return false
			}
			if sse(LinearModel{Beta: m.Beta, Alpha: m.Alpha + d}) < base-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson is invariant under positive affine transforms and flips
// sign under negation.
func TestQuickPearsonInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r := Pearson(xs, ys)
		scaled := make([]float64, n)
		neg := make([]float64, n)
		for i := range xs {
			scaled[i] = 4*xs[i] + 11
			neg[i] = -xs[i]
		}
		return almostEqual(Pearson(scaled, ys), r, 1e-9) &&
			almostEqual(Pearson(neg, ys), -r, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Spearman is invariant under any strictly monotone transform of x.
func TestQuickSpearmanMonotoneInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			ys[i] = rng.NormFloat64() * 10
		}
		r := Spearman(xs, ys)
		tx := make([]float64, n)
		for i := range xs {
			tx[i] = math.Exp(xs[i] / 10) // strictly increasing
		}
		return almostEqual(Spearman(tx, ys), r, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFitLinear(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 10000)
	ys := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = 2*xs[i] + rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitLinear(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}
