package bench

import (
	"fmt"
	"time"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/mlmodels"
	"hermit/internal/stats"
	"hermit/internal/trstree"
	"hermit/internal/workload"
)

// paperSyntheticRows is the Synthetic dataset size of §7.3 (20 million).
const paperSyntheticRows = 20_000_000

// rangeSelectivities are the x-axis of Figs. 8–9 (fractions, not %).
var rangeSelectivities = []float64{0.0001, 0.00025, 0.0005, 0.00075, 0.001}

// schemes in presentation order (the paper's (a)/(b) panels).
var schemes = []hermit.PointerScheme{hermit.LogicalPointers, hermit.PhysicalPointers}

// syntheticRangeFigure implements Figs. 8 and 9.
func syntheticRangeFigure(cfg Config, id, title string, fn workload.CorrelationKind) error {
	cfg = cfg.sanitized()
	header(cfg.Out, id, title)
	n := cfg.rows(paperSyntheticRows)
	fmt.Fprintf(cfg.Out, "rows=%d noise=1%% correlation=%s\n", n, fn)
	for _, scheme := range schemes {
		fmt.Fprintf(cfg.Out, "-- %s pointers --\n", scheme)
		fmt.Fprintf(cfg.Out, "%-12s %14s %14s\n", "selectivity", "HERMIT", "Baseline")
		hermitTb, err := buildSynthetic(cfg, scheme, n, fn, 0.01)
		if err != nil {
			return err
		}
		if _, err := hermitTb.CreateHermitIndex(2, 1); err != nil {
			return err
		}
		baseTb, err := buildSynthetic(cfg, scheme, n, fn, 0.01)
		if err != nil {
			return err
		}
		if _, err := baseTb.CreateBTreeIndex(2, true); err != nil {
			return err
		}
		for _, sel := range rangeSelectivities {
			h, err := measureRange(cfg, hermitTb, 2, engine.PathHermit, 0, workload.SyntheticSpan, sel)
			if err != nil {
				return err
			}
			b, err := measureRange(cfg, baseTb, 2, engine.PathBTree, 0, workload.SyntheticSpan, sel)
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, "%-12s %14s %14s\n",
				fmt.Sprintf("%.3f%%", sel*100), fmtKops(h), fmtKops(b))
		}
	}
	return nil
}

// Fig8RangeLinear reproduces Fig. 8.
func Fig8RangeLinear(cfg Config) error {
	return syntheticRangeFigure(cfg, "fig8", "Range lookup vs selectivity (Synthetic-Linear)", workload.Linear)
}

// Fig9RangeSigmoid reproduces Fig. 9.
func Fig9RangeSigmoid(cfg Config) error {
	return syntheticRangeFigure(cfg, "fig9", "Range lookup vs selectivity (Synthetic-Sigmoid)", workload.Sigmoid)
}

// breakdownFigure implements Figs. 10 and 11 (range) via mechanism choice.
func breakdownFigure(cfg Config, id, title string, useHermit bool) error {
	cfg = cfg.sanitized()
	header(cfg.Out, id, title)
	n := cfg.rows(paperSyntheticRows)
	for _, scheme := range schemes {
		fmt.Fprintf(cfg.Out, "-- %s pointers --\n", scheme)
		if useHermit {
			fmt.Fprintf(cfg.Out, "%-12s %10s %10s %10s %10s\n",
				"selectivity", "trs-tree", "host-idx", "primary", "table")
		} else {
			fmt.Fprintf(cfg.Out, "%-12s %10s %10s %10s\n",
				"selectivity", "sec-idx", "primary", "table")
		}
		tb, err := buildSynthetic(cfg, scheme, n, workload.Sigmoid, 0.01)
		if err != nil {
			return err
		}
		tb.SetProfile(true)
		if useHermit {
			if _, err := tb.CreateHermitIndex(2, 1, engine.WithProfile()); err != nil {
				return err
			}
		} else {
			if _, err := tb.CreateBTreeIndex(2, true); err != nil {
				return err
			}
		}
		for _, sel := range rangeSelectivities {
			fr, err := aggregateBreakdown(tb, 2, mechanism(useHermit), 0, workload.SyntheticSpan, sel, 30, cfg.Seed+5)
			if err != nil {
				return err
			}
			if useHermit {
				fmt.Fprintf(cfg.Out, "%-12s %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n",
					fmt.Sprintf("%.3f%%", sel*100),
					fr[hermit.PhaseTRSTree]*100, fr[hermit.PhaseHostIndex]*100,
					fr[hermit.PhasePrimaryIndex]*100, fr[hermit.PhaseBaseTable]*100)
			} else {
				fmt.Fprintf(cfg.Out, "%-12s %9.1f%% %9.1f%% %9.1f%%\n",
					fmt.Sprintf("%.3f%%", sel*100),
					fr[hermit.PhaseHostIndex]*100, fr[hermit.PhasePrimaryIndex]*100,
					fr[hermit.PhaseBaseTable]*100)
			}
		}
	}
	return nil
}

// Fig10BreakdownHermit reproduces Fig. 10.
func Fig10BreakdownHermit(cfg Config) error {
	return breakdownFigure(cfg, "fig10", "Hermit range lookup breakdown (Sigmoid)", true)
}

// Fig11BreakdownBaseline reproduces Fig. 11.
func Fig11BreakdownBaseline(cfg Config) error {
	return breakdownFigure(cfg, "fig11", "Baseline range lookup breakdown (Sigmoid)", false)
}

// pointTupleCounts is the x-axis of Figs. 12–15 (millions of tuples).
var pointTupleCounts = []int{1_000_000, 5_000_000, 10_000_000, 15_000_000, 20_000_000}

// pointFigure implements Figs. 12 and 13.
func pointFigure(cfg Config, id, title string, fn workload.CorrelationKind) error {
	cfg = cfg.sanitized()
	header(cfg.Out, id, title)
	for _, scheme := range schemes {
		fmt.Fprintf(cfg.Out, "-- %s pointers --\n", scheme)
		fmt.Fprintf(cfg.Out, "%-12s %14s %14s\n", "tuples", "HERMIT", "Baseline")
		for _, paperN := range pointTupleCounts {
			n := cfg.rows(paperN)
			hermitTb, err := buildSynthetic(cfg, scheme, n, fn, 0.01)
			if err != nil {
				return err
			}
			if _, err := hermitTb.CreateHermitIndex(2, 1); err != nil {
				return err
			}
			baseTb, err := buildSynthetic(cfg, scheme, n, fn, 0.01)
			if err != nil {
				return err
			}
			if _, err := baseTb.CreateBTreeIndex(2, true); err != nil {
				return err
			}
			h, err := measurePoint(cfg, hermitTb, 2, engine.PathHermit, 0, workload.SyntheticSpan)
			if err != nil {
				return err
			}
			b, err := measurePoint(cfg, baseTb, 2, engine.PathBTree, 0, workload.SyntheticSpan)
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, "%-12d %14s %14s\n", n, fmtKops(h), fmtKops(b))
		}
	}
	return nil
}

// Fig12PointLinear reproduces Fig. 12.
func Fig12PointLinear(cfg Config) error {
	return pointFigure(cfg, "fig12", "Point lookup vs tuples (Synthetic-Linear)", workload.Linear)
}

// Fig13PointSigmoid reproduces Fig. 13.
func Fig13PointSigmoid(cfg Config) error {
	return pointFigure(cfg, "fig13", "Point lookup vs tuples (Synthetic-Sigmoid)", workload.Sigmoid)
}

// pointBreakdownFigure implements Figs. 14 and 15.
func pointBreakdownFigure(cfg Config, id, title string, useHermit bool) error {
	cfg = cfg.sanitized()
	header(cfg.Out, id, title)
	for _, scheme := range schemes {
		fmt.Fprintf(cfg.Out, "-- %s pointers --\n", scheme)
		fmt.Fprintf(cfg.Out, "%-12s %10s %10s %10s %10s\n",
			"tuples", "trs/sec", "host-idx", "primary", "table")
		for _, paperN := range pointTupleCounts {
			n := cfg.rows(paperN)
			tb, err := buildSynthetic(cfg, scheme, n, workload.Sigmoid, 0.01)
			if err != nil {
				return err
			}
			tb.SetProfile(true)
			if useHermit {
				if _, err := tb.CreateHermitIndex(2, 1, engine.WithProfile()); err != nil {
					return err
				}
			} else {
				if _, err := tb.CreateBTreeIndex(2, true); err != nil {
					return err
				}
			}
			gen := workload.PointGen(0, workload.SyntheticSpan, cfg.Seed+3)
			var total hermit.Breakdown
			for i := 0; i < 200; i++ {
				v := gen()
				_, st, err := tb.Exec(engine.Query{Col: 2, Lo: v, Hi: v, Path: mechanism(useHermit)}, nil)
				if err != nil {
					return err
				}
				total.Add(st.Breakdown)
			}
			fr := total.Fractions()
			fmt.Fprintf(cfg.Out, "%-12d %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n", n,
				fr[hermit.PhaseTRSTree]*100, fr[hermit.PhaseHostIndex]*100,
				fr[hermit.PhasePrimaryIndex]*100, fr[hermit.PhaseBaseTable]*100)
		}
	}
	return nil
}

// Fig14PointBreakdownHermit reproduces Fig. 14.
func Fig14PointBreakdownHermit(cfg Config) error {
	return pointBreakdownFigure(cfg, "fig14", "Hermit point lookup breakdown (Sigmoid)", true)
}

// Fig15PointBreakdownBaseline reproduces Fig. 15.
func Fig15PointBreakdownBaseline(cfg Config) error {
	return pointBreakdownFigure(cfg, "fig15", "Baseline point lookup breakdown (Sigmoid)", false)
}

// errorBounds and noiseLevels are the sweeps of Figs. 16–18.
var (
	errorBounds = []float64{1, 10, 100, 1000, 10000}
	noiseLevels = []float64{0, 0.025, 0.05, 0.075, 0.10}
)

// errorBoundSweep builds, for each (noise, error_bound) pair, a Hermit
// index and reports via report(). Tables are shared across error bounds.
func errorBoundSweep(cfg Config, fn workload.CorrelationKind,
	report func(noise, eb float64, tb *engine.Table, hx *hermit.Index) error) error {
	n := cfg.rows(paperSyntheticRows)
	for _, noise := range noiseLevels {
		tb, err := buildSynthetic(cfg, hermit.LogicalPointers, n, fn, noise)
		if err != nil {
			return err
		}
		for _, eb := range errorBounds {
			params := defaultParams()
			params.ErrorBound = eb
			// Rebuild only the Hermit index for each error bound.
			fresh, err := hermit.New(tb.Store(), tb.Secondary(1), tb.Primary(), hermit.Config{
				TargetCol: 2, HostCol: 1, PKCol: 0,
				Scheme: hermit.LogicalPointers, Params: params,
			})
			if err != nil {
				return err
			}
			if err := report(noise, eb, tb, fresh); err != nil {
				return err
			}
		}
	}
	return nil
}

// Fig16ErrorBound reproduces Fig. 16: range throughput (0.01% selectivity)
// vs error_bound for each noise level, Linear and Sigmoid.
func Fig16ErrorBound(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "fig16", "Range throughput vs error_bound and noise (logical pointers)")
	for _, fn := range []workload.CorrelationKind{workload.Linear, workload.Sigmoid} {
		fmt.Fprintf(cfg.Out, "-- %s correlation --\n", fn)
		fmt.Fprintf(cfg.Out, "%-8s %-12s %14s\n", "noise", "error_bound", "throughput")
		err := errorBoundSweep(cfg, fn, func(noise, eb float64, tb *engine.Table, hx *hermit.Index) error {
			gen := workload.QueryGen(0, workload.SyntheticSpan, 0.0001, cfg.Seed+9)
			start := time.Now()
			ops := 0
			for time.Since(start) < cfg.MeasureFor {
				q := gen()
				hx.Lookup(q.Lo, q.Hi)
				ops++
			}
			fmt.Fprintf(cfg.Out, "%-8s %-12.0f %14s\n",
				fmt.Sprintf("%.1f%%", noise*100), eb,
				fmtKops(float64(ops)/time.Since(start).Seconds()))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Fig17FalsePositives reproduces Fig. 17: false-positive ratio of range
// lookups vs error_bound for each noise level.
func Fig17FalsePositives(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "fig17", "False positive ratio vs error_bound and noise")
	for _, fn := range []workload.CorrelationKind{workload.Linear, workload.Sigmoid} {
		fmt.Fprintf(cfg.Out, "-- %s correlation --\n", fn)
		fmt.Fprintf(cfg.Out, "%-8s %-12s %14s\n", "noise", "error_bound", "fp-ratio")
		err := errorBoundSweep(cfg, fn, func(noise, eb float64, tb *engine.Table, hx *hermit.Index) error {
			gen := workload.QueryGen(0, workload.SyntheticSpan, 0.0001, cfg.Seed+11)
			for i := 0; i < 50; i++ {
				q := gen()
				hx.Lookup(q.Lo, q.Hi)
			}
			fmt.Fprintf(cfg.Out, "%-8s %-12.0f %13.1f%%\n",
				fmt.Sprintf("%.1f%%", noise*100), eb,
				hx.LifetimeFalsePositiveRatio()*100)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Fig18MemoryErrorBound reproduces Fig. 18: TRS-Tree memory vs error_bound
// and noise.
func Fig18MemoryErrorBound(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "fig18", "Memory vs error_bound and noise")
	for _, fn := range []workload.CorrelationKind{workload.Linear, workload.Sigmoid} {
		fmt.Fprintf(cfg.Out, "-- %s correlation --\n", fn)
		fmt.Fprintf(cfg.Out, "%-8s %-12s %14s\n", "noise", "error_bound", "memory")
		err := errorBoundSweep(cfg, fn, func(noise, eb float64, _ *engine.Table, hx *hermit.Index) error {
			fmt.Fprintf(cfg.Out, "%-8s %-12.0f %14s\n",
				fmt.Sprintf("%.1f%%", noise*100), eb, fmtBytes(hx.SizeBytes()))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Fig19IndexMemory reproduces Fig. 19: index memory vs tuples, TRS-Tree vs
// a complete B+-tree on colC.
func Fig19IndexMemory(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "fig19", "Index memory vs tuples (Synthetic)")
	for _, fn := range []workload.CorrelationKind{workload.Linear, workload.Sigmoid} {
		fmt.Fprintf(cfg.Out, "-- %s correlation --\n", fn)
		fmt.Fprintf(cfg.Out, "%-12s %14s %14s\n", "tuples", "HERMIT", "Baseline")
		for _, paperN := range pointTupleCounts {
			n := cfg.rows(paperN)
			tb, err := buildSynthetic(cfg, hermit.PhysicalPointers, n, fn, 0.01)
			if err != nil {
				return err
			}
			hx, err := tb.CreateHermitIndex(2, 1)
			if err != nil {
				return err
			}
			tb2, err := buildSynthetic(cfg, hermit.PhysicalPointers, n, fn, 0.01)
			if err != nil {
				return err
			}
			full, err := tb2.CreateBTreeIndex(2, true)
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, "%-12d %14s %14s\n", n,
				fmtBytes(hx.SizeBytes()), fmtBytes(full.SizeBytes()))
		}
	}
	return nil
}

// multiIndexCounts is the x-axis of Figs. 20 and 22.
var multiIndexCounts = []int{1, 2, 4, 8, 10}

// buildMultiColumn creates the Fig. 20/22 table: colA (pk), colB (host,
// indexed), and `targets` extra columns all correlated to colB. It returns
// the table and the target column indexes.
func buildMultiColumn(cfg Config, rowsN, targets int, makeHermit bool) (*engine.Table, []int, error) {
	db := engine.NewDB(hermit.LogicalPointers)
	cols := []string{"colA", "colB"}
	for i := 0; i < targets; i++ {
		cols = append(cols, fmt.Sprintf("colT%d", i))
	}
	tb, err := db.CreateTable("multi", cols, 0)
	if err != nil {
		return nil, nil, err
	}
	spec := workload.SyntheticSpec{Rows: rowsN, Fn: workload.Linear, Noise: 0.01, Seed: cfg.Seed}
	row := make([]float64, len(cols))
	err = spec.Generate(func(src []float64) error {
		row[0] = src[0]
		row[1] = src[1]
		for i := 0; i < targets; i++ {
			// Each target is its own linear function of colB.
			row[2+i] = src[1]*float64(i+2)/2 + float64(100*i)
		}
		_, err := tb.Insert(row)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := tb.CreateBTreeIndex(1, false); err != nil {
		return nil, nil, err
	}
	targetCols := make([]int, targets)
	for i := range targetCols {
		targetCols[i] = 2 + i
		if makeHermit {
			if _, err := tb.CreateHermitIndex(2+i, 1); err != nil {
				return nil, nil, err
			}
		} else {
			if _, err := tb.CreateBTreeIndex(2+i, true); err != nil {
				return nil, nil, err
			}
		}
	}
	return tb, targetCols, nil
}

// Fig20TotalMemory reproduces Fig. 20: total memory vs number of new
// indexes, plus the space breakdown at 10 indexes.
func Fig20TotalMemory(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "fig20", "Total memory vs number of indexes (Synthetic-Linear)")
	n := cfg.rows(paperSyntheticRows)
	fmt.Fprintf(cfg.Out, "%-10s %14s %14s\n", "indexes", "HERMIT", "Baseline")
	var lastH, lastB engine.MemoryStats
	for _, k := range multiIndexCounts {
		tbH, _, err := buildMultiColumn(cfg, n, k, true)
		if err != nil {
			return err
		}
		tbB, _, err := buildMultiColumn(cfg, n, k, false)
		if err != nil {
			return err
		}
		lastH, lastB = tbH.Memory(), tbB.Memory()
		fmt.Fprintf(cfg.Out, "%-10d %14s %14s\n", k,
			fmtBytes(lastH.Total()), fmtBytes(lastB.Total()))
	}
	fmt.Fprintf(cfg.Out, "breakdown at %d indexes (table/primary/existing/new):\n", 10)
	fmt.Fprintf(cfg.Out, "  HERMIT   %s / %s / %s / %s\n",
		fmtBytes(lastH.TableBytes), fmtBytes(lastH.PrimaryBytes),
		fmtBytes(lastH.ExistingBytes), fmtBytes(lastH.NewBytes))
	fmt.Fprintf(cfg.Out, "  Baseline %s / %s / %s / %s\n",
		fmtBytes(lastB.TableBytes), fmtBytes(lastB.PrimaryBytes),
		fmtBytes(lastB.ExistingBytes), fmtBytes(lastB.NewBytes))
	return nil
}

// Fig21Construction reproduces Fig. 21: TRS-Tree construction time with
// 1–8 threads, against single-thread baseline B+-tree bulk loading.
func Fig21Construction(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "fig21", "Index construction time vs threads")
	n := cfg.rows(paperSyntheticRows)
	for _, fn := range []workload.CorrelationKind{workload.Linear, workload.Sigmoid} {
		fmt.Fprintf(cfg.Out, "-- %s correlation --\n", fn)
		spec := workload.SyntheticSpec{Rows: n, Fn: fn, Noise: 0.01, Seed: cfg.Seed}
		pairs := make([]trstree.Pair, 0, n)
		var rid uint64
		if err := spec.Generate(func(row []float64) error {
			pairs = append(pairs, trstree.Pair{M: row[2], N: row[1], ID: rid})
			rid++
			return nil
		}); err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%-10s %14s\n", "threads", "elapsed")
		for _, threads := range []int{1, 2, 4, 6, 8} {
			cp := append([]trstree.Pair(nil), pairs...)
			start := time.Now()
			if _, err := trstree.BuildParallel(cp, 0, workload.SyntheticSpan, defaultParams(), threads); err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, "%-10d %14s\n", threads, time.Since(start).Round(time.Millisecond))
		}
		// Reference: single-thread B+-tree bulk load (§7.5 baseline).
		tb, err := buildSynthetic(cfg, hermit.PhysicalPointers, n, fn, 0.01)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := tb.CreateBTreeIndex(2, true); err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%-10s %14s\n", "btree(1)", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// Fig22Insertion reproduces Fig. 22: insertion throughput vs number of new
// indexes, plus the time breakdown at 10 indexes.
func Fig22Insertion(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "fig22", "Insertion throughput vs number of indexes (Linear, logical pointers)")
	n := cfg.rows(paperSyntheticRows) / 4 // pre-population
	fmt.Fprintf(cfg.Out, "%-10s %14s %14s\n", "indexes", "HERMIT", "Baseline")
	insertRows := func(tb *engine.Table, targets int, start float64) (float64, engine.InsertStats, error) {
		row := make([]float64, 2+targets)
		deadline := time.Now().Add(cfg.MeasureFor)
		t0 := time.Now()
		ops := 0
		var agg engine.InsertStats
		for time.Now().Before(deadline) {
			pk := start + float64(ops)
			row[0] = pk
			row[1] = 2*pk + 100
			for i := 0; i < targets; i++ {
				row[2+i] = row[1]*float64(i+2)/2 + float64(100*i)
			}
			_, st, err := tb.InsertProfiled(row)
			if err != nil {
				return 0, agg, err
			}
			agg.Table += st.Table
			agg.Existing += st.Existing
			agg.New += st.New
			ops++
		}
		return float64(ops) / time.Since(t0).Seconds(), agg, nil
	}
	var aggH, aggB engine.InsertStats
	for _, k := range multiIndexCounts {
		tbH, _, err := buildMultiColumn(cfg, n, k, true)
		if err != nil {
			return err
		}
		tbH.SetProfile(true)
		hOps, hAgg, err := insertRows(tbH, k, float64(n)+1e6)
		if err != nil {
			return err
		}
		tbB, _, err := buildMultiColumn(cfg, n, k, false)
		if err != nil {
			return err
		}
		tbB.SetProfile(true)
		bOps, bAgg, err := insertRows(tbB, k, float64(n)+1e6)
		if err != nil {
			return err
		}
		aggH, aggB = hAgg, bAgg
		fmt.Fprintf(cfg.Out, "%-10d %14s %14s\n", k, fmtKops(hOps), fmtKops(bOps))
	}
	pct := func(st engine.InsertStats) (float64, float64, float64) {
		tot := float64(st.Table + st.Existing + st.New)
		if tot == 0 {
			return 0, 0, 0
		}
		return float64(st.Table) / tot * 100, float64(st.Existing) / tot * 100, float64(st.New) / tot * 100
	}
	ht, he, hn := pct(aggH)
	bt, be, bn := pct(aggB)
	fmt.Fprintf(cfg.Out, "breakdown at 10 indexes (table/existing/new):\n")
	fmt.Fprintf(cfg.Out, "  HERMIT   %.1f%% / %.1f%% / %.1f%%\n", ht, he, hn)
	fmt.Fprintf(cfg.Out, "  Baseline %.1f%% / %.1f%% / %.1f%%\n", bt, be, bn)
	return nil
}

// Fig23Reorg reproduces Fig. 23: a trace of range-lookup throughput and
// memory while partial structure reorganizations run. The paper's 30 s
// trace with a reorg every 5 s is scaled to 12 sampling intervals of
// cfg.MeasureFor with a two-subtree reorg every fourth interval.
func Fig23Reorg(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "fig23", "Online reorganization trace (Synthetic-Sigmoid)")
	// Build small (the paper's 10K bootstrap), then grow to full size so
	// the tree is badly fitted and reorganization has work to do.
	total := cfg.rows(paperSyntheticRows)
	boot := total / 200
	if boot < 1000 {
		boot = 1000
	}
	tb, err := buildSynthetic(cfg, hermit.PhysicalPointers, boot, workload.Sigmoid, 0.01)
	if err != nil {
		return err
	}
	params := defaultParams()
	hx, err := tb.CreateHermitIndex(2, 1, engine.WithParams(params))
	if err != nil {
		return err
	}
	// Grow the table ~200x beyond the bootstrap.
	spec := workload.SyntheticSpec{Rows: total, Fn: workload.Sigmoid, Noise: 0.01, Seed: cfg.Seed + 1}
	i := 0
	if err := spec.Generate(func(row []float64) error {
		row[0] += float64(boot) // unique pks
		i++
		if i <= boot {
			return nil
		}
		_, err := tb.Insert(row)
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "%-8s %14s %14s %10s\n", "tick", "throughput", "memory", "reorg")
	gen := workload.QueryGen(0, workload.SyntheticSpan, 0.0001, cfg.Seed+13)
	subtree := 0
	for tick := 0; tick < 12; tick++ {
		reorged := ""
		if tick > 0 && tick%4 == 0 {
			// Reorganize 2 first-level subtrees (1/4 of fanout 8).
			for j := 0; j < 2; j++ {
				if err := hx.Tree().ReorgSubtree(subtree%params.NodeFanout, hx.Source()); err != nil {
					return err
				}
				subtree++
			}
			reorged = "yes"
		}
		var rows []float64
		start := time.Now()
		ops := 0
		for time.Since(start) < cfg.MeasureFor {
			q := gen()
			if rows, _, err = tb.Exec(engine.Query{Col: 2, Lo: q.Lo, Hi: q.Hi, Path: engine.PathHermit}, rows[:0]); err != nil {
				return err
			}
			ops++
		}
		fmt.Fprintf(cfg.Out, "%-8d %14s %14s %10s\n", tick,
			fmtKops(float64(ops)/time.Since(start).Seconds()),
			fmtBytes(hx.SizeBytes()), reorged)
	}
	return nil
}

// Table1Training reproduces Table 1: training time of linear regression vs
// SVR with three kernels, at 1K/10K/100K tuples. SVR runs under a scaled
// wall-clock budget; entries that exceed it print as "> budget", matching
// the paper's "> 60 s" entries.
func Table1Training(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "tab1", "Training time for different ML models")
	budget := time.Duration(float64(60*time.Second) * cfg.Scale * 2)
	if budget < 500*time.Millisecond {
		budget = 500 * time.Millisecond
	}
	fmt.Fprintf(cfg.Out, "svr budget=%s (paper: 60 s)\n", budget)
	sizes := []int{1000, 10000, 100000}
	fmt.Fprintf(cfg.Out, "%-22s %12s %12s %12s\n", "model", "1K", "10K", "100K")
	rows := make(map[int]struct{ xs, ys []float64 }, len(sizes))
	for _, n := range sizes {
		spec := workload.SyntheticSpec{Rows: n, Fn: workload.Sigmoid, Noise: 0, Seed: cfg.Seed}
		xs := make([]float64, 0, n)
		ys := make([]float64, 0, n)
		if err := spec.Generate(func(row []float64) error {
			xs = append(xs, row[2]/workload.SyntheticSpan)
			ys = append(ys, row[1]/10000)
			return nil
		}); err != nil {
			return err
		}
		rows[n] = struct{ xs, ys []float64 }{xs, ys}
	}
	timeIt := func(f func() error) string {
		start := time.Now()
		err := f()
		el := time.Since(start)
		if err != nil {
			return fmt.Sprintf("> %s", budget.Round(time.Millisecond))
		}
		return el.Round(10 * time.Microsecond).String()
	}
	// Linear regression row.
	cells := make([]string, 0, 3)
	for _, n := range sizes {
		d := rows[n]
		cells = append(cells, timeIt(func() error {
			_, err := stats.FitLinear(d.xs, d.ys)
			return err
		}))
	}
	fmt.Fprintf(cfg.Out, "%-22s %12s %12s %12s\n", "Linear regression", cells[0], cells[1], cells[2])
	for _, kernel := range []mlmodels.KernelKind{mlmodels.KernelRBF, mlmodels.KernelLinear, mlmodels.KernelPoly} {
		cells = cells[:0]
		for _, n := range sizes {
			d := rows[n]
			cells = append(cells, timeIt(func() error {
				svrCfg := mlmodels.DefaultSVRConfig(kernel)
				svrCfg.Budget = budget
				_, err := mlmodels.TrainSVR(d.xs, d.ys, svrCfg)
				return err
			}))
		}
		fmt.Fprintf(cfg.Out, "%-22s %12s %12s %12s\n",
			fmt.Sprintf("SVR (%s)", kernel), cells[0], cells[1], cells[2])
	}
	return nil
}
