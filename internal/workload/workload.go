// Package workload generates the three applications the paper evaluates on
// (Appendix A): Synthetic (one table, a correlated column pair with a
// configurable correlation function and injected noise), Stock (a wide
// table of per-ticker daily low/high prices forming near-linear pairs with
// sparse crash outliers), and Sensor (16 nonlinear channels plus their
// average). It also provides the selectivity-controlled range-query
// generator the throughput experiments sweep.
//
// Real market and gas-sensor data are not redistributable, so Stock and
// Sensor are synthetic processes engineered to preserve exactly the
// properties the experiments exercise: the shape of the correlation, its
// monotonicity, and the presence of sparse large outliers.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// CorrelationKind selects the Synthetic correlation function Fn with
// colB = Fn(colC) (Appendix A).
type CorrelationKind int

const (
	// Linear is colB = 2*colC + 100.
	Linear CorrelationKind = iota
	// Sigmoid is the paper's polynomial-hard case.
	Sigmoid
	// Sin is the non-monotonic case of Appendix D.1, which Hermit is
	// expected to handle poorly; included for the correlation-discovery
	// demos.
	Sin
)

// String implements fmt.Stringer.
func (k CorrelationKind) String() string {
	switch k {
	case Linear:
		return "linear"
	case Sigmoid:
		return "sigmoid"
	default:
		return "sin"
	}
}

// SyntheticSpan is the value range of colC.
const SyntheticSpan = 1000.0

// Eval applies the correlation function to a colC value.
func (k CorrelationKind) Eval(c float64) float64 {
	switch k {
	case Linear:
		return 2*c + 100
	case Sigmoid:
		return 10000 / (1 + math.Exp(-(c-SyntheticSpan/2)/(SyntheticSpan/12)))
	default:
		return 5000 + 5000*math.Sin(c/50)
	}
}

// SyntheticSpec configures the Synthetic application: a single table with
// colA (8-byte key), colB = Fn(colC) with noise, colC uniform, colD payload.
type SyntheticSpec struct {
	Rows  int
	Fn    CorrelationKind
	Noise float64 // fraction of rows whose colB is replaced by uniform noise
	Seed  int64
}

// Columns returns the Synthetic schema.
func (SyntheticSpec) Columns() []string { return []string{"colA", "colB", "colC", "colD"} }

// PKCol returns the primary-key column index (colA).
func (SyntheticSpec) PKCol() int { return 0 }

// HostCol returns the pre-indexed correlated column (colB).
func (SyntheticSpec) HostCol() int { return 1 }

// TargetCol returns the column experiments build new indexes on (colC).
func (SyntheticSpec) TargetCol() int { return 2 }

// Generate streams the rows; the row slice is reused between calls.
func (s SyntheticSpec) Generate(fn func(row []float64) error) error {
	rng := rand.New(rand.NewSource(s.Seed))
	row := make([]float64, 4)
	noiseMax := s.Fn.Eval(SyntheticSpan) * 1.5
	if s.Fn != Linear {
		noiseMax = 12000
	}
	for i := 0; i < s.Rows; i++ {
		c := rng.Float64() * SyntheticSpan
		b := s.Fn.Eval(c)
		if s.Noise > 0 && rng.Float64() < s.Noise {
			b = rng.Float64() * noiseMax
		}
		row[0] = float64(i)
		row[1] = b
		row[2] = c
		row[3] = rng.Float64()
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// StockSpec configures the Stock application: a wide table with a datetime
// column followed by (low, high) price pairs for each ticker. Each pair is
// near-linearly correlated; crash days (PG&E-style >50% single-day moves,
// §7.2) produce the sparse outliers Hermit must buffer.
type StockSpec struct {
	Stocks    int
	Days      int
	Seed      int64
	CrashProb float64 // per-ticker-per-day probability of an outlier day
}

// DefaultStockSpec mirrors the paper: 100 stocks, 15k+ trading days.
func DefaultStockSpec() StockSpec {
	return StockSpec{Stocks: 100, Days: 15000, Seed: 1, CrashProb: 0.002}
}

// Columns returns the schema: "time", then low_i, high_i per ticker
// (201 columns for 100 stocks, as in the paper).
func (s StockSpec) Columns() []string {
	cols := make([]string, 0, 1+2*s.Stocks)
	cols = append(cols, "time")
	for i := 0; i < s.Stocks; i++ {
		cols = append(cols, fmt.Sprintf("low_%d", i), fmt.Sprintf("high_%d", i))
	}
	return cols
}

// PKCol returns the primary-key column (datetime).
func (StockSpec) PKCol() int { return 0 }

// LowCol returns the column index of ticker i's daily low (the host column,
// which carries the pre-existing index).
func (StockSpec) LowCol(i int) int { return 1 + 2*i }

// HighCol returns the column index of ticker i's daily high (the target
// column the experiments index).
func (StockSpec) HighCol(i int) int { return 2 + 2*i }

// Generate streams one row per trading day; the row slice is reused.
func (s StockSpec) Generate(fn func(row []float64) error) error {
	rng := rand.New(rand.NewSource(s.Seed))
	price := make([]float64, s.Stocks)
	for i := range price {
		price[i] = 20 + rng.Float64()*180
	}
	row := make([]float64, 1+2*s.Stocks)
	for d := 0; d < s.Days; d++ {
		row[0] = float64(d)
		for i := 0; i < s.Stocks; i++ {
			// Geometric random walk for the low price.
			price[i] *= 1 + rng.NormFloat64()*0.02
			if price[i] < 1 {
				price[i] = 1
			}
			low := price[i]
			// Daily high tracks the low through a tight near-linear band
			// (slope ~1.008 plus small absolute dispersion) — the "simple
			// near-linear correlation" of §7.2 — so ordinary days are
			// model-covered and only crash days land in outlier buffers.
			high := low*1.008 + rng.NormFloat64()*0.002
			if high < low {
				high = low
			}
			if s.CrashProb > 0 && rng.Float64() < s.CrashProb {
				// Outlier day: intraday move of 50%+ (up or crash-recover).
				high = low * (1.5 + rng.Float64())
			}
			row[s.LowCol(i)] = low
			row[s.HighCol(i)] = high
		}
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// SensorSpec configures the Sensor application: a timestamp, Sensors
// channel readings, and their average (the host column). Each channel is a
// distinct smooth nonlinear monotone function of a shared latent signal, so
// every reading column has a nonlinear, monotonic correlation with the
// average column — the property §7.2's Sensor experiments exercise.
type SensorSpec struct {
	Rows       int
	Sensors    int
	Seed       int64
	GlitchProb float64 // per-reading probability of a spurious value
}

// DefaultSensorSpec mirrors the paper's dataset shape (scaled row count is
// chosen by the caller): 16 sensors, 18 columns.
func DefaultSensorSpec(rows int) SensorSpec {
	return SensorSpec{Rows: rows, Sensors: 16, Seed: 1, GlitchProb: 0.002}
}

// Columns returns the schema: ts, s0..s{n-1}, avg.
func (s SensorSpec) Columns() []string {
	cols := make([]string, 0, s.Sensors+2)
	cols = append(cols, "ts")
	for i := 0; i < s.Sensors; i++ {
		cols = append(cols, fmt.Sprintf("s%d", i))
	}
	return append(cols, "avg")
}

// PKCol returns the primary-key column (timestamp).
func (SensorSpec) PKCol() int { return 0 }

// ReadingCol returns the column index of sensor i.
func (SensorSpec) ReadingCol(i int) int { return 1 + i }

// AvgCol returns the average-reading column index (the host column).
func (s SensorSpec) AvgCol() int { return 1 + s.Sensors }

// channelShape returns sensor i's response to the latent concentration x
// in [0, 100]: a power law with per-channel exponent and gain, all
// monotone increasing.
func channelShape(i int, x float64) float64 {
	p := 0.5 + 1.5*float64(i%8)/7 // exponents in [0.5, 2]
	gain := 1 + float64(i)/4
	return gain * math.Pow(x, p)
}

// Generate streams the rows; the row slice is reused.
func (s SensorSpec) Generate(fn func(row []float64) error) error {
	rng := rand.New(rand.NewSource(s.Seed))
	row := make([]float64, s.Sensors+2)
	x := 50.0 // latent gas concentration, mean-reverting walk over [0,100]
	for r := 0; r < s.Rows; r++ {
		x += rng.NormFloat64()*2 + (50-x)*0.01
		if x < 0 {
			x = 0
		}
		if x > 100 {
			x = 100
		}
		row[0] = float64(r)
		var sum float64
		for i := 0; i < s.Sensors; i++ {
			v := channelShape(i, x)
			if s.GlitchProb > 0 && rng.Float64() < s.GlitchProb {
				v = rng.Float64() * channelShape(i, 100)
			}
			row[s.ReadingCol(i)] = v
			sum += v
		}
		row[s.AvgCol()] = sum / float64(s.Sensors)
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// RangeQuery is one generated predicate.
type RangeQuery struct{ Lo, Hi float64 }

// QueryGen yields range predicates over [lo, hi] whose width is
// selectivity*(hi-lo) — the paper's selectivity knob, exact for uniformly
// distributed columns and approximate otherwise. The width is clamped to
// [0, hi-lo]: selectivity >= 1 (or a degenerate lo == hi span) yields the
// whole [lo, hi] interval rather than a predicate whose start underflows
// lo and inverts.
func QueryGen(lo, hi, selectivity float64, seed int64) func() RangeQuery {
	rng := rand.New(rand.NewSource(seed))
	span := hi - lo
	if span < 0 {
		span = 0
	}
	width := span * selectivity
	switch {
	case width < 0 || math.IsNaN(width):
		width = 0
	case width > span:
		width = span
	}
	slack := span - width
	return func() RangeQuery {
		if slack <= 0 {
			// Degenerate span or selectivity 1: every query is [lo, hi]
			// (still consuming one draw so the stream stays aligned with
			// other selectivities at the same seed).
			rng.Float64()
			return RangeQuery{Lo: lo, Hi: lo + width}
		}
		start := lo + rng.Float64()*slack
		return RangeQuery{Lo: start, Hi: start + width}
	}
}

// PointGen yields point predicates drawn uniformly from [lo, hi].
func PointGen(lo, hi float64, seed int64) func() float64 {
	rng := rand.New(rand.NewSource(seed))
	return func() float64 { return lo + rng.Float64()*(hi-lo) }
}
