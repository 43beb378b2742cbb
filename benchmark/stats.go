package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile[T int64 | float64 | uint32](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// median sorts vals in place and returns the middle; 0 for no values, so
// that a layer a workload bypasses reports 0.
func median[T int64 | float64 | uint32](vals []T) float64 {
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	return quantile(vals, 0.5)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (exclusive method) — the spread the driver computes.
func iqrShare(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = max(1, min(j, n-1))
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// quietMedian reads the undisturbed state of this box out of samples
// taken in time order: the median of every block of quietBlock consecutive
// samples (a few milliseconds), then the quietLow quantile over the blocks.
// For a share of every run that wanders over minutes, something outside
// the VM slows every op by 1.3x to 1.8x, flipping every few tens of
// milliseconds, and the plain median follows that share from one mode to
// the other; this number does not (README.md "Noise budget"). It is a
// per-layer diagnostic that tells a machine phase from a regression. No
// end-to-end metric is built this way: a cost that only shows while the
// second core is busy (a GC cycle, say) is filtered out of it.
func quietMedian(samples []uint32) float64 {
	const quietBlock, quietLow = 25, 0.02
	var meds []float64
	buf := make([]uint32, quietBlock)
	for i := 0; i+quietBlock <= len(samples); i += quietBlock {
		copy(buf, samples[i:i+quietBlock])
		meds = append(meds, median(buf))
	}
	slices.Sort(meds)
	return orZero(quantile(meds, quietLow))
}

// recorder holds the individually timed samples of one measured phase in
// the order they were taken: nanoseconds per op by latency class, plus the
// ops/wall of every round. Samples are uint32 (4.29 s ceiling; clamped) to
// keep the recorder small next to the tables it measures.
type recorder struct {
	lat   [numClasses][]uint32
	rates []float64 // ops per second of each round
	ops   int64
	wall  time.Duration
}

// newRecorder sizes the buffers for the run's fixed op counts, so they do
// not grow (and show up as heap) while it measures.
func newRecorder(rounds, rangeCap, pointCap, writeCap int) *recorder {
	r := &recorder{rates: make([]float64, 0, rounds)}
	r.lat[classRange] = make([]uint32, 0, rangeCap)
	r.lat[classPoint] = make([]uint32, 0, pointCap)
	r.lat[classWrite] = make([]uint32, 0, writeCap)
	r.lat[classCold] = make([]uint32, 0, pointCap)
	return r
}

func (r *recorder) add(c class, d time.Duration) {
	r.lat[c] = append(r.lat[c], uint32(min(d, time.Duration(math.MaxUint32))))
}

// round records the rate of one round.
func (r *recorder) round(ops int, wall time.Duration) {
	r.rates = append(r.rates, float64(ops)/wall.Seconds())
	r.ops += int64(ops)
	r.wall += wall
}

// timings is the one-line summary an untraced run prints.
func (r *recorder) timings() string {
	return fmt.Sprintf("ops_per_s=%.0f range_p50_us=%.2f point_p50_us=%.2f write_p50_us=%.2f", median(slices.Clone(r.rates)),
		quantileUs(0.5, r.lat[classRange]), quantileUs(0.5, r.lat[classPoint]), quantileUs(0.5, r.lat[classWrite]))
}

// quantileUs is the plain q-quantile of samples in microseconds; 0
// without samples.
func quantileUs(q float64, samples []uint32) float64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	return orZero(quantile(s, q) / 1e3)
}

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// procStats is process-wide accounting taken around a measured phase.
type procStats struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
	cpu            time.Duration
}

func readProc() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return procStats{
		mallocs: m.Mallocs, bytes: m.TotalAlloc, gcs: m.NumGC, pauseNs: m.PauseTotalNs,
		cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// heapAfterGC returns HeapAlloc after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
