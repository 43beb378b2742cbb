package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"hermit/internal/hermit"
	"hermit/internal/workload"
)

// Dataset sizes at paper scale (Config.Scale 1).
const (
	paperSyntheticRows = 20_000_000 // §7.3
	paperSensorRows    = 4_208_260
	paperStockDays     = 15_000
)

// The figures' axes.
var (
	// schemes in presentation order (the paper's (a)/(b) panels).
	schemes      = []hermit.PointerScheme{hermit.LogicalPointers, hermit.PhysicalPointers}
	correlations = []workload.CorrelationKind{workload.Linear, workload.Sigmoid}
	// appSelectivities are the x-axis of Figs. 4, 6 and 24 (1%–10%).
	appSelectivities = []float64{0.01, 0.025, 0.05, 0.075, 0.10}
	// rangeSelectivities are the x-axis of Figs. 8–11 (fractions, not %).
	rangeSelectivities = []float64{0.0001, 0.00025, 0.0005, 0.00075, 0.001}
	// pointTupleCounts is the x-axis of Figs. 12–15 and 19.
	pointTupleCounts = []int{1_000_000, 5_000_000, 10_000_000, 15_000_000, 20_000_000}
	// sensorTupleCounts is the x-axis of Fig. 7.
	sensorTupleCounts = []int{1_000_000, 2_000_000, 3_000_000, 4_000_000}
	// errorBounds and noiseLevels are the sweeps of Figs. 16–18, and the
	// noise levels the x-axis of Figs. 27–30.
	errorBounds = []float64{1, 10, 100, 1000, 10000}
	noiseLevels = []float64{0, 0.025, 0.05, 0.075, 0.10}
	// multiIndexCounts is the x-axis of Figs. 20 and 22.
	multiIndexCounts = []int{1, 2, 4, 8, 10}
	// cmHostBuckets are the panels of Figs. 27–30 (2^4 … 2^12), and the
	// competitors their columns: CM-X buckets the target by width X.
	cmHostBuckets = []float64{16, 64, 256, 1024, 4096}
	cmCompetitors = []string{seriesHermit, seriesBaseline, "CM-16", "CM-64", "CM-256", "CM-1024", "CM-4096"}
)

// figures lists the paper's evaluation in paper order.
var figures = []figure{
	{"fig4", "Range lookup throughput vs selectivity (Stock)", fig4},
	{"fig5", "Memory consumption vs number of indexes (Stock)", fig5},
	{"fig6", "Range lookup throughput vs selectivity (Sensor)", fig6},
	{"fig7", "Memory consumption vs number of tuples (Sensor)", fig7},
	{"fig8", "Range lookup vs selectivity (Synthetic-Linear)", func(p *plot) { syntheticRange(p, workload.Linear) }},
	{"fig9", "Range lookup vs selectivity (Synthetic-Sigmoid)", func(p *plot) { syntheticRange(p, workload.Sigmoid) }},
	{"fig10", "Hermit range lookup breakdown (Sigmoid)", func(p *plot) { breakdown(p, seriesHermit, false) }},
	{"fig11", "Baseline range lookup breakdown (Sigmoid)", func(p *plot) { breakdown(p, seriesBaseline, false) }},
	{"fig12", "Point lookup vs tuples (Synthetic-Linear)", func(p *plot) { pointLookups(p, workload.Linear) }},
	{"fig13", "Point lookup vs tuples (Synthetic-Sigmoid)", func(p *plot) { pointLookups(p, workload.Sigmoid) }},
	{"fig14", "Hermit point lookup breakdown (Sigmoid)", func(p *plot) { breakdown(p, seriesHermit, true) }},
	{"fig15", "Baseline point lookup breakdown (Sigmoid)", func(p *plot) { breakdown(p, seriesBaseline, true) }},
	{"fig16", "Range throughput vs error_bound and noise (logical pointers)", func(p *plot) {
		errorBoundSweep(p, "throughput", measureOps, func(r Result) string { return fmtKops(r.OpsPerSec) })
	}},
	{"fig17", "False positive ratio vs error_bound and noise", func(p *plot) {
		errorBoundSweep(p, "fp-ratio", measureCounts, func(r Result) string { return fmt.Sprintf("%.1f%%", r.FPRatio*100) })
	}},
	{"fig18", "Memory vs error_bound and noise", func(p *plot) {
		errorBoundSweep(p, "memory", measureOps, func(r Result) string { return fmtBytes(r.IndexBytes) })
	}},
	{"fig19", "Index memory vs tuples (Synthetic)", fig19},
	{"fig20", "Total memory vs number of indexes (Synthetic-Linear)", fig20},
	{"fig21", "Index construction time vs threads", fig21},
	{"fig22", "Insertion throughput vs number of indexes (Linear, logical pointers)", fig22},
	{"fig23", "Online reorganization trace (Synthetic-Sigmoid)", fig23},
	{"fig24", "Disk-based range lookup and breakdown (Sensor)", fig24},
	{"tab1", "Training time for different ML models", table1},
	{"fig26", "Outlier capture on correlated stock indices", fig26},
	{"fig27", "CM vs Hermit range throughput vs noise (Linear)", func(p *plot) {
		cmFigure(p, workload.Linear, func(r Result) string { return fmtKops(r.OpsPerSec) })
	}},
	{"fig28", "CM vs Hermit memory vs noise (Linear)", func(p *plot) {
		cmFigure(p, workload.Linear, func(r Result) string { return fmtBytes(r.IndexBytes) })
	}},
	{"fig29", "CM vs Hermit range throughput vs noise (Sigmoid)", func(p *plot) {
		cmFigure(p, workload.Sigmoid, func(r Result) string { return fmtKops(r.OpsPerSec) })
	}},
	{"fig30", "CM vs Hermit memory vs noise (Sigmoid)", func(p *plot) {
		cmFigure(p, workload.Sigmoid, func(r Result) string { return fmtBytes(r.IndexBytes) })
	}},
	{"ablation", "Design-choice ablations", ablation},
}

// stockData is the Stock application at the run's scale: the paper's 100
// tickers shrink with the scale (4 at least) so the index-count sweeps stay
// proportional, and its 15k days keep a floor for meaningful selectivity.
func stockData(cfg Config, scheme hermit.PointerScheme) dataKey {
	spec := workload.DefaultStockSpec()
	stocks := min(max(int(float64(spec.Stocks)*cfg.Scale*10), 4), spec.Stocks)
	return dataKey{Kind: stock, Scheme: scheme.String(), Tuples: cfg.rows(spec.Days), Noise: spec.CrashProb, Width: stocks}
}

// sensorData is the Sensor application with rows tuples.
func sensorData(scheme hermit.PointerScheme, rows int) dataKey {
	return dataKey{Kind: sensor, Scheme: scheme.String(), Tuples: rows}
}

// pairTable prints a two-series table, a row per x with HERMIT's cell and
// the Baseline's, where trial(x, series) names a cell's trial. It returns
// the last row's results.
func pairTable[X any](p *plot, xLabel string, width int, xs []X, label func(X) string,
	trial func(X, string) trial, cell func(Result) string) (h, b Result) {
	p.printf("%-*s %14s %14s\n", width, xLabel, seriesHermit, seriesBaseline)
	for _, x := range xs {
		h, b = p.get(trial(x, seriesHermit)), p.get(trial(x, seriesBaseline))
		p.printf("%-*s %14s %14s\n", width, label(x), cell(h), cell(b))
	}
	return h, b
}

// The cells of pairTable.
func opsCell(r Result) string   { return fmtKops(r.OpsPerSec) }
func indexCell(r Result) string { return fmtBytes(r.IndexBytes) }
func totalCell(r Result) string { return fmtBytes(r.totalBytes()) }

// scaled is paper-sized row counts at the run's scale.
func scaled(cfg Config, paperRows []int) []int {
	out := make([]int, len(paperRows))
	for i, n := range paperRows {
		out[i] = cfg.rows(n)
	}
	return out
}

// rangeFigure is Figs. 4, 6, 8 and 9: range throughput at each
// selectivity, HERMIT against the Baseline, one panel per pointer scheme.
func rangeFigure(p *plot, data func(hermit.PointerScheme) dataKey, sels []float64, selFormat string, querySeed int64) {
	for _, scheme := range schemes {
		p.printf("-- %s pointers --\n", scheme)
		pairTable(p, "selectivity", 12, sels,
			func(sel float64) string { return fmt.Sprintf(selFormat, sel*100) },
			func(sel float64, series string) trial {
				return trial{dataKey: data(scheme), Measure: measureOps, Series: series, Sel: sel, QuerySeed: querySeed}
			}, opsCell)
	}
}

// fig4 is Fig. 4: "highest price between Y and Z" over every ticker.
func fig4(p *plot) {
	d := stockData(p.cfg, hermit.LogicalPointers)
	p.printf("stocks=%d days=%d\n", d.Width, d.Tuples)
	rangeFigure(p, func(s hermit.PointerScheme) dataKey { return stockData(p.cfg, s) }, appSelectivities, "%.1f%%", 21)
}

// fig6 is Fig. 6: ranges over every sensor channel.
func fig6(p *plot) {
	n := p.cfg.rows(paperSensorRows)
	p.printf("rows=%d sensors=%d\n", n, workload.DefaultSensorSpec(0).Sensors)
	rangeFigure(p, func(s hermit.PointerScheme) dataKey { return sensorData(s, n) }, appSelectivities, "%.1f%%", 23)
}

// syntheticRange is Figs. 8 and 9.
func syntheticRange(p *plot, fn workload.CorrelationKind) {
	n := p.cfg.rows(paperSyntheticRows)
	p.printf("rows=%d noise=1%% correlation=%s\n", n, fn)
	rangeFigure(p, func(s hermit.PointerScheme) dataKey { return synth(s, n, fn, 0.01) }, rangeSelectivities, "%.3f%%", 99)
}

// pointLookups is Figs. 12 and 13.
func pointLookups(p *plot, fn workload.CorrelationKind) {
	for _, scheme := range schemes {
		p.printf("-- %s pointers --\n", scheme)
		pairTable(p, "tuples", 12, scaled(p.cfg, pointTupleCounts), strconv.Itoa, func(n int, series string) trial {
			return trial{dataKey: synth(scheme, n, fn, 0.01), Measure: measureOps, Series: series, QuerySeed: 77}
		}, opsCell)
	}
}

// breakdown is Figs. 10, 11, 14 and 15: where a Sigmoid lookup's time goes,
// per range selectivity or, for points, per table size.
func breakdown(p *plot, series string, points bool) {
	phases := []hermit.Phase{hermit.PhaseTRSTree, hermit.PhaseHostIndex, hermit.PhasePrimaryIndex, hermit.PhaseBaseTable}
	head := []any{"selectivity", "trs-tree", "host-idx", "primary", "table"}
	switch {
	case points:
		head = []any{"tuples", "trs/sec", "host-idx", "primary", "table"}
	case series == seriesBaseline:
		phases, head = phases[1:], []any{"selectivity", "sec-idx", "primary", "table"}
	}
	for _, scheme := range schemes {
		p.printf("-- %s pointers --\n", scheme)
		p.printf("%-12s"+strings.Repeat(" %10s", len(phases))+"\n", head...)
		var cells []trial
		var labels []string
		if points {
			for _, n := range scaled(p.cfg, pointTupleCounts) {
				cells = append(cells, trial{dataKey: synth(scheme, n, workload.Sigmoid, 0.01), Queries: 200, QuerySeed: 3})
				labels = append(labels, strconv.Itoa(n))
			}
		} else {
			n := p.cfg.rows(paperSyntheticRows)
			for _, sel := range rangeSelectivities {
				cells = append(cells, trial{dataKey: synth(scheme, n, workload.Sigmoid, 0.01), Sel: sel, Queries: 30, QuerySeed: 5})
				labels = append(labels, fmt.Sprintf("%.3f%%", sel*100))
			}
		}
		for i, t := range cells {
			t.Measure, t.Series = measurePhases, series
			r := p.get(t)
			p.printf("%-12s", labels[i])
			for _, ph := range phases {
				p.printf(" %9.1f%%", r.pct(int(ph)))
			}
			p.printf("\n")
		}
	}
}

// errorBoundSweep is Figs. 16–18, one sweep under logical pointers: for
// each correlation, noise level and error_bound, a Hermit index on colC,
// its range throughput at 0.01 % selectivity and its bytes (an ops trial),
// and the false-positive ratio of 50 ranges (a counts trial).
func errorBoundSweep(p *plot, column string, m measure, cell func(Result) string) {
	n := p.cfg.rows(paperSyntheticRows)
	for _, fn := range correlations {
		p.printf("-- %s correlation --\n", fn)
		p.printf("%-8s %-12s %14s\n", "noise", "error_bound", column)
		for _, noise := range noiseLevels {
			for _, eb := range errorBounds {
				t := trial{dataKey: synth(hermit.LogicalPointers, n, fn, noise), Measure: m, Series: seriesHermit, Sel: 0.0001, ErrorBound: eb, QuerySeed: 99}
				if m == measureCounts {
					t.Queries, t.QuerySeed = 50, 11
				}
				p.printf("%-8s %-12.0f %14s\n", fmt.Sprintf("%.1f%%", noise*100), eb, cell(p.get(t)))
			}
		}
	}
}

// memoryFigure is Figs. 5, 7 and 20: the totals, HERMIT against the
// Baseline, at each x, where data(x) is the cell's dataset and index(x) how
// many of its targets carry the new indexes. It returns the last cells.
func memoryFigure(p *plot, xLabel string, width int, xs []int, data func(int) dataKey, indexes func(int) int) (h, b Result) {
	return pairTable(p, xLabel, width, xs, strconv.Itoa, func(x int, series string) trial {
		return trial{dataKey: data(x), Measure: measureMemory, Series: series, K: indexes(x)}
	}, totalCell)
}

// spaceBreakdown prints the shares of the table (with its primary index),
// the existing indexes and the new ones in the last cells of Figs. 5 and 7.
func spaceBreakdown(p *plot, h, b Result) {
	fh := fractions(h.TableBytes+h.PrimaryBytes, h.ExistingBytes, h.IndexBytes)
	fb := fractions(b.TableBytes+b.PrimaryBytes, b.ExistingBytes, b.IndexBytes)
	p.printf("space breakdown (table / existing idx / new idx):\n")
	p.printf("  HERMIT   %.1f%% / %.1f%% / %.1f%%\n", fh[0]*100, fh[1]*100, fh[2]*100)
	p.printf("  Baseline %.1f%% / %.1f%% / %.1f%%\n", fb[0]*100, fb[1]*100, fb[2]*100)
}

// fig5 is Fig. 5: memory vs the number of high-price columns indexed.
func fig5(p *plot) {
	data := stockData(p.cfg, hermit.PhysicalPointers)
	s := data.Width
	h, b := memoryFigure(p, "indexes", 10, []int{max(s/4, 1), max(s/2, 1), max(s*3/4, 1), s},
		func(int) dataKey { return data }, func(k int) int { return k })
	spaceBreakdown(p, h, b)
}

// fig7 is Fig. 7: memory vs table size, every channel indexed.
func fig7(p *plot) {
	data := func(n int) dataKey { return sensorData(hermit.PhysicalPointers, n) }
	h, b := memoryFigure(p, "tuples", 12, scaled(p.cfg, sensorTupleCounts), data, func(n int) int { return data(n).targets() })
	spaceBreakdown(p, h, b)
}

// fig19 is Fig. 19: a TRS-Tree against a complete B+-tree on colC.
func fig19(p *plot) {
	for _, fn := range correlations {
		p.printf("-- %s correlation --\n", fn)
		pairTable(p, "tuples", 12, scaled(p.cfg, pointTupleCounts), strconv.Itoa, func(n int, series string) trial {
			return trial{dataKey: synth(hermit.PhysicalPointers, n, fn, 0.01), Measure: measureMemory, Series: series, K: 1}
		}, indexCell)
	}
}

// multiData is the Figs. 20/22 table: n rows, k correlated targets.
func multiData(n, k int) dataKey {
	return dataKey{Kind: multi, Scheme: hermit.LogicalPointers.String(), Fn: workload.Linear.String(), Tuples: n, Noise: 0.01, Width: k}
}

// fig20 is Fig. 20: total memory vs the number of new indexes, and the
// space breakdown at 10.
func fig20(p *plot) {
	n := p.cfg.rows(paperSyntheticRows)
	h, b := memoryFigure(p, "indexes", 10, multiIndexCounts,
		func(k int) dataKey { return multiData(n, k) }, func(k int) int { return k })
	p.printf("breakdown at %d indexes (table/primary/existing/new):\n", 10)
	p.printf("  HERMIT   %s / %s / %s / %s\n",
		fmtBytes(h.TableBytes), fmtBytes(h.PrimaryBytes), fmtBytes(h.ExistingBytes), fmtBytes(h.IndexBytes))
	p.printf("  Baseline %s / %s / %s / %s\n",
		fmtBytes(b.TableBytes), fmtBytes(b.PrimaryBytes), fmtBytes(b.ExistingBytes), fmtBytes(b.IndexBytes))
}

// fig21 is Fig. 21: TRS-Tree construction with 1–8 threads, against a
// single-thread B+-tree bulk load (§7.5).
func fig21(p *plot) {
	n := p.cfg.rows(paperSyntheticRows)
	ms := func(r Result) time.Duration { return time.Duration(r.NS).Round(time.Millisecond) }
	for _, fn := range correlations {
		p.printf("-- %s correlation --\n", fn)
		p.printf("%-10s %14s\n", "threads", "elapsed")
		for _, threads := range []int{1, 2, 4, 6, 8} {
			r := p.get(trial{dataKey: pairsOf(n, fn, 0.01), Measure: measureBuild, Series: seriesHermit, K: threads})
			p.printf("%-10d %14s\n", threads, ms(r))
		}
		r := p.get(trial{dataKey: synth(hermit.PhysicalPointers, n, fn, 0.01), Measure: measureBuild, Series: seriesBaseline})
		p.printf("%-10s %14s\n", "btree(1)", ms(r))
	}
}

// fig22 is Fig. 22: insertion throughput vs the number of new indexes,
// and where an insert's time goes at 10.
func fig22(p *plot) {
	n := p.cfg.rows(paperSyntheticRows) / 4 // pre-population
	h, b := pairTable(p, "indexes", 10, multiIndexCounts, strconv.Itoa, func(k int, series string) trial {
		return trial{dataKey: multiData(n, k), Measure: measureInsert, Series: series}
	}, opsCell)
	p.printf("breakdown at 10 indexes (table/existing/new):\n")
	p.printf("  HERMIT   %.1f%% / %.1f%% / %.1f%%\n", h.pct(0), h.pct(1), h.pct(2))
	p.printf("  Baseline %.1f%% / %.1f%% / %.1f%%\n", b.pct(0), b.pct(1), b.pct(2))
}

// fig23 is Fig. 23: the paper's 30 s trace with a reorganization every
// 5 s, scaled to 12 ticks of Config.MeasureFor, two subtrees reorganized
// every fourth. The index is built on the paper's 10K bootstrap rows
// (scaled) and the table then grows 200-fold.
func fig23(p *plot) {
	total := p.cfg.rows(paperSyntheticRows)
	boot := max(total/200, 1000)
	p.printf("%-8s %14s %14s %10s %10s\n", "tick", "throughput", "memory", "outliers", "reorg")
	t := trial{dataKey: synth(hermit.PhysicalPointers, boot, workload.Sigmoid, 0.01), Measure: measureReorg, Series: seriesHermit, Sel: 0.0001, K: total, QuerySeed: 13}
	for _, r := range p.all(t) {
		reorged := ""
		if r.Tick > 0 && r.Tick%4 == 0 {
			reorged = "yes"
		}
		p.printf("%-8d %14s %14s %10d %10s\n", r.Tick, fmtKops(r.OpsPerSec), fmtBytes(r.IndexBytes), r.Outliers, reorged)
	}
}

// fig24 is Fig. 24 (§7.8: the TRS-Tree in memory, what it resolves against
// on disk) on the engine that serves. A durable DB under logical pointers
// holds the Sensor rows, with a host B+-tree on the average, Hermit on
// reading 0 and a complete B+-tree on reading 0, and one checkpoint puts
// every row in 2 KiB pages of the block tier. A range is answered by
// coldTable.rangeQuery: indexes in memory, every row it validates read back
// from a page. Throughput and the Fig. 24b breakdown are timings;
// candidates, rows and page reads are counts, and every counted answer is
// compared with Table.Exec on the same table.
func fig24(p *plot) {
	n := p.cfg.rows(paperSensorRows / 4)
	cold := func(sel float64, series string) trial {
		return trial{dataKey: dataKey{Kind: coldSensor, Scheme: hermit.LogicalPointers.String(), Tuples: n},
			Measure: measureCold, Series: series, Sel: sel, QuerySeed: 31}
	}
	first := p.get(cold(appSelectivities[0], seriesHermit))
	p.printf("rows=%d in %s of 2 KiB pages; TRS-Tree %s in memory\n", n, fmtBytes(first.TableBytes), fmtBytes(first.IndexBytes))
	p.printf("%-12s %12s %12s %7s | %10s %8s %10s %8s\n",
		"selectivity", seriesHermit, seriesBaseline, "ratio", "candidates", "rows", "page reads", "fp share")
	var total Result
	for _, sel := range appSelectivities {
		h, b := p.get(cold(sel, seriesHermit)), p.get(cold(sel, seriesBaseline))
		p.printf("%-12s %8.2f ops %8.2f ops %6.2fx | %10d %8d %10d %7.1f%%\n",
			fmt.Sprintf("%.1f%%", sel*100), h.OpsPerSec, b.OpsPerSec, h.OpsPerSec/b.OpsPerSec, h.Candidates, h.Rows, h.PageReads,
			100*float64(h.PageReads-h.Rows)/float64(max(h.PageReads, 1)))
		total.Candidates += h.Candidates
		total.Rows += h.Rows
		total.PageReads += h.PageReads
		total.phases.Add(h.phases)
	}
	fr := total.phases.Fractions()
	p.printf("hermit breakdown: trs-tree %.1f%% / index %.1f%% / validation %.1f%%\n",
		fr[hermit.PhaseTRSTree]*100, fr[hermit.PhaseHostIndex]*100, fr[hermit.PhaseBaseTable]*100)
	p.printf("hermit counts: candidates=%d rows=%d page reads=%d (%.2f per candidate)\n",
		total.Candidates, total.Rows, total.PageReads, float64(total.PageReads)/float64(max(total.Candidates, 1)))
	p.printf("exact: %d/%d cold answers per table equal Table.Exec, hermit rows = baseline rows\n",
		coldQueries*len(appSelectivities), coldQueries*len(appSelectivities))
}

// table1 is Table 1: training time of linear regression against SVR with
// three kernels at 1K/10K/100K Sigmoid pairs. SVR runs under a scaled
// wall-clock budget; a fit that exceeds it prints as "> budget", the
// paper's "> 60 s" entries.
func table1(p *plot) {
	budget := svrBudget(p.cfg)
	p.printf("svr budget=%s (paper: 60 s)\n", budget)
	p.printf("%-22s %12s %12s %12s\n", "model", "1K", "10K", "100K")
	models := []string{seriesLinear}
	for _, k := range svrKernels {
		models = append(models, svrSeries(k))
	}
	for _, model := range models {
		p.printf("%-22s", model)
		for _, n := range []int{1000, 10000, 100000} {
			r := p.get(trial{dataKey: pairsOf(n, workload.Sigmoid, 0), Measure: measureTrain, Series: model})
			cell := fmt.Sprintf("%.1fµs", float64(r.NS)/1e3)
			if r.OverBudget {
				cell = "> " + budget.Round(time.Millisecond).String()
			}
			p.printf(" %12s", cell)
		}
		p.printf("\n")
	}
}

// fig26 is Fig. 26's point: a TRS-Tree over two correlated market indices
// (Dow-Jones vs S&P-500 style) captures regime-shift days as outliers and
// still answers exactly.
func fig26(p *plot) {
	data := dataKey{Kind: stock, Scheme: hermit.PhysicalPointers.String(), Tuples: p.cfg.rows(paperStockDays), Noise: 0.004, Width: 1}
	m := p.get(trial{dataKey: data, Measure: measureMemory, Series: seriesHermit, K: 1})
	p.printf("days=%d leaves=%d outliers=%d (%.2f%% of tuples) index=%s\n",
		data.Tuples, m.Leaves, m.Outliers, float64(m.Outliers)/float64(data.Tuples)*100, fmtBytes(m.IndexBytes))
	exact := trial{dataKey: data, Measure: measureCounts, Series: seriesHermit, Sel: 0.05, Queries: 50, QuerySeed: 41}
	p.get(exact)
	p.printf("exactness: %d/%d queries verified against full scans\n", exact.Queries, exact.Queries)
}

// cmFigure is Figs. 27–30: one panel per CM host bucket size, one row per
// noise level, a cell per competitor, all from one trial set — each
// competitor's range throughput at 0.01 % selectivity and its bytes.
// HERMIT and the Baseline do not depend on the host bucket, so their
// trials run once per noise level.
func cmFigure(p *plot, fn workload.CorrelationKind, cell func(Result) string) {
	n := p.cfg.rows(paperSyntheticRows)
	for _, hb := range cmHostBuckets {
		p.printf("-- host bucket size = %.0f --\n", hb)
		p.printf("%-8s", "noise")
		for _, c := range cmCompetitors {
			p.printf(" %12s", c)
		}
		p.printf("\n")
		for _, noise := range noiseLevels {
			p.printf("%-8s", fmt.Sprintf("%.1f%%", noise*100))
			for _, c := range cmCompetitors {
				t := trial{dataKey: synth(hermit.PhysicalPointers, n, fn, noise), Measure: measureOps, Series: c, Sel: 0.0001, QuerySeed: 51}
				if c != seriesHermit && c != seriesBaseline {
					t.HostBucket = hb
				}
				p.printf(" %12s", cell(p.get(t)))
			}
			p.printf("\n")
		}
	}
}

// ablation compares TRS-Tree design choices on Sigmoid pairs at 5 % noise:
// the sampling split pre-check (App. D.2) by construction time, the
// host-range union (Alg. 2 line 15) by host ranges per lookup, and the
// outlier buffer, against a single leaf that buffers every uncovered pair
// (the error_bound=0 extreme of §6).
func ablation(p *plot) {
	data := pairsOf(p.cfg.rows(paperSyntheticRows), workload.Sigmoid, 0.05)
	for _, rate := range []string{"0.00", "0.05"} {
		r := p.get(trial{dataKey: data, Measure: measureBuild, Series: "sample_rate=" + rate})
		p.printf("construction sample_rate=%s: %s\n", rate, time.Duration(r.NS).Round(time.Millisecond))
	}
	for _, union := range []bool{true, false} {
		t := trial{dataKey: data, Measure: measureBuild, Series: fmt.Sprintf("union=%v", union), Sel: 0.01, Queries: 200, QuerySeed: 61}
		p.printf("lookup union=%v: %.1f host ranges/query\n", union, float64(p.get(t).HostRanges)/float64(t.Queries))
	}
	for _, mode := range []string{"default", "single-leaf"} {
		r := p.get(trial{dataKey: data, Measure: measureBuild, Series: mode})
		p.printf("outliers mode=%s: leaves=%d outliers=%d size=%s\n", mode, r.Leaves, r.Outliers, fmtBytes(r.IndexBytes))
	}
}
