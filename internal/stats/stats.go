// Package stats provides the statistical primitives used by the TRS-Tree,
// the correlation discovery module and the access-path advisor: simple
// (univariate) linear regression solved in closed form by ordinary least
// squares, Pearson and Spearman correlation coefficients, reservoir
// sampling, and the exponentially weighted moving average's update rule.
//
// The paper (§4.1) deliberately uses the closed-form OLS solution instead of
// gradient descent: it needs a single scan of the data and is exact for the
// univariate case.
package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// ErrInsufficientData is returned when a computation needs at least two
// points (or two distinct x values) and the input does not provide them.
var ErrInsufficientData = errors.New("stats: insufficient data")

// LinearModel is a fitted univariate linear function y = Beta*x + Alpha.
type LinearModel struct {
	Beta  float64 // slope
	Alpha float64 // intercept
}

// Predict returns Beta*x + Alpha.
func (m LinearModel) Predict(x float64) float64 {
	return m.Beta*x + m.Alpha
}

// PredictRange maps the closed interval [lo, hi] on x through the model and
// returns the corresponding closed interval on y, widened by eps on both
// sides. It handles negative slopes by swapping the endpoints, matching the
// estimated-range computation in paper §4.3.
func (m LinearModel) PredictRange(lo, hi, eps float64) (float64, float64) {
	a := m.Predict(lo)
	b := m.Predict(hi)
	if a > b {
		a, b = b, a
	}
	return a - eps, b + eps
}

// FitLinear computes the ordinary-least-squares fit of y against x in one
// scan, using the standard formulas
//
//	beta  = cov(x, y) / var(x)
//	alpha = mean(y) - beta*mean(x)
//
// If x is degenerate (all values equal, variance zero) the returned model is
// the horizontal line through mean(y); this mirrors how a TRS-Tree leaf
// covering a single key still provides a usable mapping.
func FitLinear(xs, ys []float64) (LinearModel, error) {
	if len(xs) != len(ys) {
		return LinearModel{}, errors.New("stats: mismatched slice lengths")
	}
	if len(xs) == 0 {
		return LinearModel{}, ErrInsufficientData
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return LinearModel{Beta: 0, Alpha: my}, nil
	}
	beta := sxy / sxx
	return LinearModel{Beta: beta, Alpha: my - beta*mx}, nil
}

// Residuals returns |y - Predict(x)| for each pair. The caller owns dst; if
// dst is nil or too small a new slice is allocated.
func (m LinearModel) Residuals(xs, ys []float64, dst []float64) []float64 {
	if cap(dst) < len(xs) {
		dst = make([]float64, len(xs))
	}
	dst = dst[:len(xs)]
	for i := range xs {
		dst[i] = math.Abs(ys[i] - m.Predict(xs[i]))
	}
	return dst
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Covariance returns the population covariance of the paired samples.
func Covariance(xs, ys []float64) float64 {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs))
}

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples, in [-1, 1]. It returns 0 when either side has zero
// variance (no linear relationship can be measured).
func Pearson(xs, ys []float64) float64 {
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0
	}
	vx, vy := Variance(xs), Variance(ys)
	if vx == 0 || vy == 0 {
		return 0
	}
	return Covariance(xs, ys) / math.Sqrt(vx*vy)
}

// Spearman returns Spearman's rank correlation coefficient: the Pearson
// coefficient of the rank-transformed samples. Ties receive their average
// rank (fractional ranking), which keeps the coefficient exact for data
// with duplicates such as quantised sensor readings.
func Spearman(xs, ys []float64) float64 {
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks returns the fractional (average-tie) ranks of xs, 1-based.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// Reservoir draws a uniform fixed-size sample of (x, y) pairs from a stream
// of unknown length using Algorithm R: the first Cap pairs are kept, and the
// i-th pair thereafter replaces a random slot with probability Cap/i. One
// pass, O(Cap) memory, every stream element equally likely to be retained —
// the sampling substrate correlation discovery and the advisor share
// (CORDS-style sampled search, paper App. D.1).
type Reservoir struct {
	cap  int
	seen int
	rng  *rand.Rand
	xs   []float64
	ys   []float64
}

// NewReservoir creates a paired reservoir holding at most capacity pairs.
// The seed makes sampling deterministic; 0 is replaced by 1 so a zero-value
// configuration still yields a reproducible sample.
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity < 1 {
		capacity = 1
	}
	if seed == 0 {
		seed = 1
	}
	return &Reservoir{
		cap: capacity,
		rng: rand.New(rand.NewSource(seed)),
		xs:  make([]float64, 0, capacity),
		ys:  make([]float64, 0, capacity),
	}
}

// Add offers one pair to the reservoir.
func (r *Reservoir) Add(x, y float64) {
	r.seen++
	if len(r.xs) < r.cap {
		r.xs = append(r.xs, x)
		r.ys = append(r.ys, y)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.cap {
		r.xs[j], r.ys[j] = x, y
	}
}

// Seen returns how many pairs were offered (not how many were kept).
func (r *Reservoir) Seen() int { return r.seen }

// Sample returns the retained pairs. The slices are the reservoir's own
// backing storage: callers must not Add after using them, or must copy.
func (r *Reservoir) Sample() (xs, ys []float64) { return r.xs, r.ys }

// DefaultEWMAAlpha weights a new observation at 1/8 in an exponentially
// weighted moving average (EWMAStep) — smooth enough to ride out one-off
// stalls, fresh enough to track workload shifts within a few dozen
// observations.
const DefaultEWMAAlpha = 0.125

// EWMAStep is the update rule of an exponentially weighted moving average,
// which the engine's planner applies in CAS loops: each observation moves
// the average a fraction alpha of the way toward itself. It returns the
// average after folding v into cur, where n is the observation count
// before v (n == 0 initialises).
func EWMAStep(cur, v, alpha float64, n int) float64 {
	if n == 0 {
		return v
	}
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultEWMAAlpha
	}
	return cur + alpha*(v-cur)
}
