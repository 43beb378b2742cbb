package bench

import (
	"testing"
	"time"

	"hermit/internal/hermit"
	"hermit/internal/workload"
)

// Shape-regression tests: beyond smoke-testing that the experiment drivers
// run, these assert the paper's qualitative results directly, so a change
// that silently breaks a reproduced shape fails the suite.

func shapeConfig(t *testing.T) Config {
	t.Helper()
	cfg := tinyConfig(t)
	cfg.Scale = 0.001
	return cfg
}

// Shape (Figs. 19/20): a Hermit index is a small fraction of a complete
// B+-tree on the same column, for both correlation shapes.
func TestShapeHermitIsSuccinct(t *testing.T) {
	cfg := shapeConfig(t).sanitized()
	n := cfg.rows(paperSyntheticRows)
	for _, fn := range []workload.CorrelationKind{workload.Linear, workload.Sigmoid} {
		tbH, err := buildSynthetic(cfg, hermit.PhysicalPointers, n, fn, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		hx, err := tbH.CreateHermitIndex(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		tbB, err := buildSynthetic(cfg, hermit.PhysicalPointers, n, fn, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		full, err := tbB.CreateBTreeIndex(2, true)
		if err != nil {
			t.Fatal(err)
		}
		if hx.SizeBytes()*5 > full.SizeBytes() {
			t.Fatalf("%v: hermit %d bytes not ≤ 20%% of baseline %d", fn, hx.SizeBytes(), full.SizeBytes())
		}
	}
}

// Shape (Fig. 17): false positives grow monotonically in error_bound.
func TestShapeFalsePositivesGrowWithErrorBound(t *testing.T) {
	cfg := shapeConfig(t).sanitized()
	n := cfg.rows(paperSyntheticRows)
	tb, err := buildSynthetic(cfg, hermit.LogicalPointers, n, workload.Linear, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	for _, eb := range []float64{1, 100, 10000} {
		if _, err := rebuildHermit(tb, eb); err != nil {
			t.Fatal(err)
		}
		fp, err := hermitFalsePositives(tb, workload.QueryGen(0, workload.SyntheticSpan, 0.0001, 7), 30)
		if err != nil {
			t.Fatal(err)
		}
		if fp < prev {
			t.Fatalf("fp(eb=%v)=%v < fp at smaller eb %v", eb, fp, prev)
		}
		prev = fp
	}
	if prev < 0.5 {
		t.Fatalf("fp at eb=10000 is %v, expected near-saturation", prev)
	}
}

// Shape (Fig. 18): TRS-Tree memory grows with the injected noise fraction.
func TestShapeMemoryGrowsWithNoise(t *testing.T) {
	cfg := shapeConfig(t).sanitized()
	n := cfg.rows(paperSyntheticRows)
	var prev uint64
	for _, noise := range []float64{0, 0.05, 0.10} {
		tb, err := buildSynthetic(cfg, hermit.PhysicalPointers, n, workload.Linear, noise)
		if err != nil {
			t.Fatal(err)
		}
		hx, err := tb.CreateHermitIndex(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if hx.SizeBytes() < prev {
			t.Fatalf("memory at noise=%v (%d) below previous (%d)", noise, hx.SizeBytes(), prev)
		}
		prev = hx.SizeBytes()
	}
}

// Shape (Fig. 5): the Stock application's new Hermit indexes are a small
// fraction of the table budget, while the baseline's new complete indexes
// rival the pre-existing ones.
func TestShapeStockMemoryBreakdown(t *testing.T) {
	cfg := shapeConfig(t).sanitized()
	spec := stockSpec(cfg)
	tbH, err := buildStock(cfg, hermit.PhysicalPointers, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := indexStockHighs(tbH, spec, true, spec.Stocks); err != nil {
		t.Fatal(err)
	}
	tbB, err := buildStock(cfg, hermit.PhysicalPointers, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := indexStockHighs(tbB, spec, false, spec.Stocks); err != nil {
		t.Fatal(err)
	}
	mH, mB := tbH.Memory(), tbB.Memory()
	if mH.NewBytes*3 > mB.NewBytes {
		t.Fatalf("stock hermit new=%d not ≪ baseline new=%d", mH.NewBytes, mB.NewBytes)
	}
	if mH.Total() >= mB.Total() {
		t.Fatalf("hermit total %d not below baseline total %d", mH.Total(), mB.Total())
	}
}

// Shape (Figs. 27–30): under injected noise, Hermit sustains far higher
// throughput than Correlation Maps at comparable (or smaller) memory.
func TestShapeHermitBeatsCMUnderNoise(t *testing.T) {
	cfg := shapeConfig(t).sanitized()
	comp, err := buildCMComparison(cfg, workload.Linear, 0.05, 64)
	if err != nil {
		t.Fatal(err)
	}
	timed := func(name string) float64 {
		c := comp[name]
		if c.use != nil {
			if err := c.use(); err != nil {
				t.Fatal(err)
			}
		}
		gen := workload.QueryGen(0, workload.SyntheticSpan, 0.001, 11)
		start := time.Now()
		const nq = 50
		for i := 0; i < nq; i++ {
			q := gen()
			if err := c.query(q.Lo, q.Hi); err != nil {
				t.Fatal(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / nq
	}
	hermitNs := timed("HERMIT")
	cmNs := timed("CM-16")
	if hermitNs*2 > cmNs {
		t.Fatalf("hermit %vns/query not ≪ CM-16 %vns/query under 5%% noise", hermitNs, cmNs)
	}
	if comp["HERMIT"].mem > comp["Baseline"].mem {
		t.Fatalf("hermit mem %d above complete index %d", comp["HERMIT"].mem, comp["Baseline"].mem)
	}
}

// Shape (Fig. 26): on the Stock pair, only crash days are buffered and the
// index stays tiny.
func TestShapeStockOutliersSparse(t *testing.T) {
	cfg := shapeConfig(t).sanitized()
	spec := workload.StockSpec{Stocks: 1, Days: cfg.rows(15000), Seed: cfg.Seed, CrashProb: 0.002}
	tb, err := buildStock(cfg, hermit.PhysicalPointers, spec)
	if err != nil {
		t.Fatal(err)
	}
	hx, err := tb.CreateHermitIndex(spec.HighCol(0), spec.LowCol(0))
	if err != nil {
		t.Fatal(err)
	}
	st := hx.Tree().Stats()
	frac := float64(st.Outliers) / float64(spec.Days)
	if frac > 0.05 {
		t.Fatalf("outlier fraction %.3f, want sparse (crash days only)", frac)
	}
}
