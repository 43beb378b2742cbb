package bench

import (
	"fmt"
	"time"

	"hermit/internal/cm"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/trstree"
	"hermit/internal/workload"
)

// cmTargetBuckets are the CM-X variants of Figs. 27–30 (value-width of the
// target-column buckets).
var cmTargetBuckets = []float64{16, 64, 256, 1024, 4096}

// cmHostBuckets are the per-panel host bucket sizes (2^4 … 2^12).
var cmHostBuckets = []float64{16, 64, 256, 1024, 4096}

// cmNoiseLevels is the x-axis.
var cmNoiseLevels = []float64{0, 0.025, 0.05, 0.075, 0.10}

// queryFn is one competitor's range-lookup closure; the comparison drives
// every structure through the same measurement loop.
type queryFn func(lo, hi float64) error

// buildCMComparison builds all competitors for one (fn, noise, hostBucket)
// cell and returns measurement closures keyed by competitor name plus the
// memory of each structure.
func buildCMComparison(cfg Config, fn workload.CorrelationKind, noise, hostBucket float64) (map[string]queryFn, map[string]uint64, error) {
	n := cfg.rows(paperSyntheticRows)
	run := make(map[string]queryFn)
	mem := make(map[string]uint64)

	hermitTb, err := buildSynthetic(cfg, hermit.PhysicalPointers, n, fn, noise)
	if err != nil {
		return nil, nil, err
	}
	hx, err := hermitTb.CreateHermitIndex(2, 1)
	if err != nil {
		return nil, nil, err
	}
	run["HERMIT"] = func(lo, hi float64) error {
		_, _, err := hermitTb.Exec(engine.Query{Col: 2, Lo: lo, Hi: hi, Path: engine.PathHermit}, nil)
		return err
	}
	mem["HERMIT"] = hx.SizeBytes()

	baseTb, err := buildSynthetic(cfg, hermit.PhysicalPointers, n, fn, noise)
	if err != nil {
		return nil, nil, err
	}
	full, err := baseTb.CreateBTreeIndex(2, true)
	if err != nil {
		return nil, nil, err
	}
	run["Baseline"] = func(lo, hi float64) error {
		_, _, err := baseTb.Exec(engine.Query{Col: 2, Lo: lo, Hi: hi, Path: engine.PathBTree}, nil)
		return err
	}
	mem["Baseline"] = full.SizeBytes()

	// One table shared by all CM variants (CM reads, never mutates it).
	cmTb, err := buildSynthetic(cfg, hermit.PhysicalPointers, n, fn, noise)
	if err != nil {
		return nil, nil, err
	}
	for _, tbkt := range cmTargetBuckets {
		name := fmt.Sprintf("CM-%.0f", tbkt)
		cx, err := cm.NewIndex(cmTb.Store(), cmTb.Secondary(1), cm.Config{
			TargetBucket: tbkt, HostBucket: hostBucket, TargetCol: 2, HostCol: 1,
		})
		if err != nil {
			return nil, nil, err
		}
		run[name] = func(lo, hi float64) error {
			cx.Lookup(lo, hi)
			return nil
		}
		mem[name] = cx.SizeBytes()
	}
	return run, mem, nil
}

// cmCompetitors is the printing order.
var cmCompetitors = []string{"HERMIT", "Baseline", "CM-16", "CM-64", "CM-256", "CM-1024", "CM-4096"}

// cmThroughputFigure implements Figs. 27 and 29.
func cmThroughputFigure(cfg Config, id, title string, fn workload.CorrelationKind) error {
	cfg = cfg.sanitized()
	header(cfg.Out, id, title)
	for _, hb := range cmHostBuckets {
		fmt.Fprintf(cfg.Out, "-- host bucket size = %.0f --\n", hb)
		fmt.Fprintf(cfg.Out, "%-8s", "noise")
		for _, c := range cmCompetitors {
			fmt.Fprintf(cfg.Out, " %12s", c)
		}
		fmt.Fprintln(cfg.Out)
		for _, noise := range cmNoiseLevels {
			run, _, err := buildCMComparison(cfg, fn, noise, hb)
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, "%-8s", fmt.Sprintf("%.1f%%", noise*100))
			for _, c := range cmCompetitors {
				gen := workload.QueryGen(0, workload.SyntheticSpan, 0.0001, cfg.Seed+51)
				start := time.Now()
				ops := 0
				for time.Since(start) < cfg.MeasureFor {
					q := gen()
					if err := run[c](q.Lo, q.Hi); err != nil {
						return err
					}
					ops++
				}
				fmt.Fprintf(cfg.Out, " %12s", fmtKops(float64(ops)/time.Since(start).Seconds()))
			}
			fmt.Fprintln(cfg.Out)
		}
	}
	return nil
}

// cmMemoryFigure implements Figs. 28 and 30.
func cmMemoryFigure(cfg Config, id, title string, fn workload.CorrelationKind) error {
	cfg = cfg.sanitized()
	header(cfg.Out, id, title)
	for _, hb := range cmHostBuckets {
		fmt.Fprintf(cfg.Out, "-- host bucket size = %.0f --\n", hb)
		fmt.Fprintf(cfg.Out, "%-8s", "noise")
		for _, c := range cmCompetitors {
			fmt.Fprintf(cfg.Out, " %12s", c)
		}
		fmt.Fprintln(cfg.Out)
		for _, noise := range cmNoiseLevels {
			_, mem, err := buildCMComparison(cfg, fn, noise, hb)
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, "%-8s", fmt.Sprintf("%.1f%%", noise*100))
			for _, c := range cmCompetitors {
				fmt.Fprintf(cfg.Out, " %12s", fmtBytes(mem[c]))
			}
			fmt.Fprintln(cfg.Out)
		}
	}
	return nil
}

// Fig27CMLinearThroughput reproduces Fig. 27.
func Fig27CMLinearThroughput(cfg Config) error {
	return cmThroughputFigure(cfg, "fig27", "CM vs Hermit range throughput vs noise (Linear)", workload.Linear)
}

// Fig28CMLinearMemory reproduces Fig. 28.
func Fig28CMLinearMemory(cfg Config) error {
	return cmMemoryFigure(cfg, "fig28", "CM vs Hermit memory vs noise (Linear)", workload.Linear)
}

// Fig29CMSigmoidThroughput reproduces Fig. 29.
func Fig29CMSigmoidThroughput(cfg Config) error {
	return cmThroughputFigure(cfg, "fig29", "CM vs Hermit range throughput vs noise (Sigmoid)", workload.Sigmoid)
}

// Fig30CMSigmoidMemory reproduces Fig. 30.
func Fig30CMSigmoidMemory(cfg Config) error {
	return cmMemoryFigure(cfg, "fig30", "CM vs Hermit memory vs noise (Sigmoid)", workload.Sigmoid)
}

// Ablations benchmarks the design choices DESIGN.md calls out:
// sampling-based split pre-check (App. D.2), the host-range union
// (Alg. 2 line 15), and the outlier buffer itself.
func Ablations(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "ablation", "Design-choice ablations")
	n := cfg.rows(paperSyntheticRows)
	spec := workload.SyntheticSpec{Rows: n, Fn: workload.Sigmoid, Noise: 0.05, Seed: cfg.Seed}
	pairs := make([]trstree.Pair, 0, n)
	var id uint64
	if err := spec.Generate(func(row []float64) error {
		pairs = append(pairs, trstree.Pair{M: row[2], N: row[1], ID: id})
		id++
		return nil
	}); err != nil {
		return err
	}

	// 1. Sampling pre-check on/off: construction time.
	for _, sample := range []float64{0, 0.05} {
		params := defaultParams()
		params.SampleRate = sample
		cp := append([]trstree.Pair(nil), pairs...)
		start := time.Now()
		if _, err := trstree.Build(cp, 0, workload.SyntheticSpan, params); err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "construction sample_rate=%.2f: %s\n",
			sample, time.Since(start).Round(time.Millisecond))
	}

	// 2. Range union on/off: host ranges returned per lookup.
	for _, union := range []bool{true, false} {
		params := defaultParams()
		params.UnionRanges = union
		cp := append([]trstree.Pair(nil), pairs...)
		tr, err := trstree.Build(cp, 0, workload.SyntheticSpan, params)
		if err != nil {
			return err
		}
		gen := workload.QueryGen(0, workload.SyntheticSpan, 0.01, cfg.Seed+61)
		ranges := 0
		const nq = 200
		for i := 0; i < nq; i++ {
			q := gen()
			res := tr.Lookup(q.Lo, q.Hi)
			ranges += len(res.Ranges)
		}
		fmt.Fprintf(cfg.Out, "lookup union=%v: %.1f host ranges/query\n",
			union, float64(ranges)/nq)
	}

	// 3. Outlier buffer: default vs a buffer-everything configuration
	// (outlier_ratio high enough that nothing splits, so the single leaf
	// buffers all uncovered pairs — the error_bound=0 extreme of §6).
	for _, mode := range []string{"default", "single-leaf"} {
		params := defaultParams()
		if mode == "single-leaf" {
			params.MaxHeight = 1
			params.OutlierRatio = 1
		}
		cp := append([]trstree.Pair(nil), pairs...)
		tr, err := trstree.Build(cp, 0, workload.SyntheticSpan, params)
		if err != nil {
			return err
		}
		st := tr.Stats()
		fmt.Fprintf(cfg.Out, "outliers mode=%s: leaves=%d outliers=%d size=%s\n",
			mode, st.Leaves, st.Outliers, fmtBytes(st.SizeBytes))
	}
	return nil
}
