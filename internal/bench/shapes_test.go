package bench

import (
	"testing"

	"hermit/internal/hermit"
	"hermit/internal/workload"
)

// Shape-regression tests: beyond smoke-testing that the experiment drivers
// run, these assert the paper's qualitative results directly, so a change
// that silently breaks a reproduced shape fails the suite. Each runs its
// cells through the paper's trial runner.

func shapeConfig(t *testing.T) Config {
	t.Helper()
	cfg := tinyConfig(t)
	cfg.Scale = 0.001
	return cfg.sanitized()
}

// runTrials runs the trials as one grid and returns each one's result.
func runTrials(t *testing.T, cfg Config, trials ...trial) map[trial]Result {
	t.Helper()
	res, _, err := runGrid(cfg, trials)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[trial]Result, len(res))
	for tr, rs := range res {
		out[tr] = rs[0]
	}
	return out
}

// Shape (Figs. 19/20): a Hermit index is a small fraction of a complete
// B+-tree on the same column, for both correlation shapes.
func TestShapeHermitIsSuccinct(t *testing.T) {
	cfg := shapeConfig(t)
	n := cfg.rows(paperSyntheticRows)
	for _, fn := range []workload.CorrelationKind{workload.Linear, workload.Sigmoid} {
		h := trial{dataKey: synth(hermit.PhysicalPointers, n, fn, 0.01), Measure: measureMemory, Series: seriesHermit, K: 1}
		b := h
		b.Series = seriesBaseline
		res := runTrials(t, cfg, h, b)
		if res[h].IndexBytes*5 > res[b].IndexBytes {
			t.Fatalf("%v: hermit %d bytes not ≤ 20%% of baseline %d", fn, res[h].IndexBytes, res[b].IndexBytes)
		}
	}
}

// Shape (Fig. 17): false positives grow monotonically in error_bound.
func TestShapeFalsePositivesGrowWithErrorBound(t *testing.T) {
	cfg := shapeConfig(t)
	n := cfg.rows(paperSyntheticRows)
	var trials []trial
	for _, eb := range []float64{1, 100, 10000} {
		// Query seed 7: the run's seed 1 plus 6.
		trials = append(trials, trial{dataKey: synth(hermit.LogicalPointers, n, workload.Linear, 0.01),
			Measure: measureCounts, Series: seriesHermit, Sel: 0.0001, ErrorBound: eb, Queries: 30, QuerySeed: 6})
	}
	res := runTrials(t, cfg, trials...)
	var prev float64 = -1
	for _, tr := range trials {
		fp := res[tr].FPRatio
		if fp < prev {
			t.Fatalf("fp(eb=%v)=%v < fp at smaller eb %v", tr.ErrorBound, fp, prev)
		}
		prev = fp
	}
	if prev < 0.5 {
		t.Fatalf("fp at eb=10000 is %v, expected near-saturation", prev)
	}
}

// Shape (Fig. 18): TRS-Tree memory grows with the injected noise fraction.
func TestShapeMemoryGrowsWithNoise(t *testing.T) {
	cfg := shapeConfig(t)
	n := cfg.rows(paperSyntheticRows)
	var trials []trial
	for _, noise := range []float64{0, 0.05, 0.10} {
		trials = append(trials, trial{dataKey: synth(hermit.PhysicalPointers, n, workload.Linear, noise),
			Measure: measureMemory, Series: seriesHermit, K: 1})
	}
	res := runTrials(t, cfg, trials...)
	var prev uint64
	for _, tr := range trials {
		if res[tr].IndexBytes < prev {
			t.Fatalf("memory at noise=%v (%d) below previous (%d)", tr.Noise, res[tr].IndexBytes, prev)
		}
		prev = res[tr].IndexBytes
	}
}

// Shape (Fig. 5): the Stock application's new Hermit indexes are a small
// fraction of the table budget, while the baseline's new complete indexes
// rival the pre-existing ones.
func TestShapeStockMemoryBreakdown(t *testing.T) {
	cfg := shapeConfig(t)
	data := stockData(cfg, hermit.PhysicalPointers)
	h := trial{dataKey: data, Measure: measureMemory, Series: seriesHermit, K: data.Width}
	b := h
	b.Series = seriesBaseline
	res := runTrials(t, cfg, h, b)
	mH, mB := res[h], res[b]
	if mH.IndexBytes*3 > mB.IndexBytes {
		t.Fatalf("stock hermit new=%d not ≪ baseline new=%d", mH.IndexBytes, mB.IndexBytes)
	}
	if mH.totalBytes() >= mB.totalBytes() {
		t.Fatalf("hermit total %d not below baseline total %d", mH.totalBytes(), mB.totalBytes())
	}
}

// Shape (Figs. 27–30): under injected noise, Hermit sustains far higher
// throughput than Correlation Maps at comparable (or smaller) memory.
func TestShapeHermitBeatsCMUnderNoise(t *testing.T) {
	cfg := shapeConfig(t)
	data := synth(hermit.PhysicalPointers, cfg.rows(paperSyntheticRows), workload.Linear, 0.05)
	// 50 ranges of 0.1 % each, query seed 11: the run's seed 1 plus 10.
	timed := func(series string, hostBucket float64) trial {
		return trial{dataKey: data, Measure: measureOps, Series: series, Sel: 0.001, HostBucket: hostBucket, Queries: 50, QuerySeed: 10}
	}
	h, c := timed(seriesHermit, 0), timed("CM-16", 64)
	b := trial{dataKey: data, Measure: measureMemory, Series: seriesBaseline, K: 1}
	res := runTrials(t, cfg, h, c, b)
	hermitNs, cmNs := 1e9/res[h].OpsPerSec, 1e9/res[c].OpsPerSec
	if hermitNs*2 > cmNs {
		t.Fatalf("hermit %vns/query not ≪ CM-16 %vns/query under 5%% noise", hermitNs, cmNs)
	}
	if res[h].IndexBytes > res[b].IndexBytes {
		t.Fatalf("hermit mem %d above complete index %d", res[h].IndexBytes, res[b].IndexBytes)
	}
}

// Shape (Fig. 26): on the Stock pair, only crash days are buffered and the
// index stays tiny.
func TestShapeStockOutliersSparse(t *testing.T) {
	cfg := shapeConfig(t)
	data := dataKey{Kind: stock, Scheme: hermit.PhysicalPointers.String(), Tuples: cfg.rows(paperStockDays), Noise: 0.002, Width: 1}
	m := trial{dataKey: data, Measure: measureMemory, Series: seriesHermit, K: 1}
	st := runTrials(t, cfg, m)[m]
	frac := float64(st.Outliers) / float64(data.Tuples)
	if frac > 0.05 {
		t.Fatalf("outlier fraction %.3f, want sparse (crash days only)", frac)
	}
}
