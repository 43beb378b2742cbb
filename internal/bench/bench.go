// Package bench contains the experiment drivers that regenerate every table
// and figure in the paper's evaluation (§7 and Appendix E). Each experiment
// prints the same rows/series the paper plots, so shapes can be compared
// directly; absolute numbers differ because the substrate is this repo's
// engine rather than the authors' testbed (see EXPERIMENTS.md).
//
// The drivers are shared between the root-level testing.B benchmarks
// (bench_test.go) and the cmd/hermit-bench CLI.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/trstree"
	"hermit/internal/workload"
)

// Config controls an experiment run.
type Config struct {
	// Out receives the printed table.
	Out io.Writer
	// Scale multiplies the paper's dataset sizes (1.0 = paper scale,
	// 20M-row sweeps). The CLI defaults to 0.02 so the full suite runs on
	// a laptop in minutes.
	Scale float64
	// MeasureFor is the wall-clock budget per plotted point.
	MeasureFor time.Duration
	// Seed makes dataset generation deterministic.
	Seed int64
	// TmpDir hosts the durable databases experiments open.
	TmpDir string
	// Concurrency is the maximum goroutine count the concurrency
	// experiment sweeps to (the CLI's -concurrency flag).
	Concurrency int
	// JSONDir, when non-empty, receives machine-readable BENCH_*.json
	// result files alongside the printed tables.
	JSONDir string
}

// DefaultConfig returns the CLI defaults.
func DefaultConfig(out io.Writer) Config {
	return Config{
		Out:         out,
		Scale:       0.02,
		MeasureFor:  300 * time.Millisecond,
		Seed:        1,
		TmpDir:      "",
		Concurrency: 8,
		JSONDir:     ".",
	}
}

func (c Config) sanitized() Config {
	if c.Scale <= 0 {
		c.Scale = 0.02
	}
	if c.MeasureFor <= 0 {
		c.MeasureFor = 300 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	return c
}

// rows scales a paper-sized row count, with a floor that keeps the
// statistics meaningful at tiny scales.
func (c Config) rows(paperRows int) int {
	n := int(float64(paperRows) * c.Scale)
	if n < 2000 {
		n = 2000
	}
	return n
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string // e.g. "fig4", "tab1"
	Title string // the paper's caption, abbreviated
	Run   func(cfg Config) error
}

// Registry lists every experiment in paper order.
var Registry = []Experiment{
	{"fig4", "Range lookup throughput vs selectivity (Stock)", Fig4RangeStock},
	{"fig5", "Memory consumption vs number of indexes (Stock)", Fig5MemoryStock},
	{"fig6", "Range lookup throughput vs selectivity (Sensor)", Fig6RangeSensor},
	{"fig7", "Memory consumption vs number of tuples (Sensor)", Fig7MemorySensor},
	{"fig8", "Range lookup vs selectivity (Synthetic-Linear)", Fig8RangeLinear},
	{"fig9", "Range lookup vs selectivity (Synthetic-Sigmoid)", Fig9RangeSigmoid},
	{"fig10", "Hermit range lookup breakdown (Synthetic-Sigmoid)", Fig10BreakdownHermit},
	{"fig11", "Baseline range lookup breakdown (Synthetic-Sigmoid)", Fig11BreakdownBaseline},
	{"fig12", "Point lookup vs tuples (Synthetic-Linear)", Fig12PointLinear},
	{"fig13", "Point lookup vs tuples (Synthetic-Sigmoid)", Fig13PointSigmoid},
	{"fig14", "Hermit point lookup breakdown (Synthetic-Sigmoid)", Fig14PointBreakdownHermit},
	{"fig15", "Baseline point lookup breakdown (Synthetic-Sigmoid)", Fig15PointBreakdownBaseline},
	{"fig16", "Range throughput vs error_bound and noise", Fig16ErrorBound},
	{"fig17", "False positive ratio vs error_bound and noise", Fig17FalsePositives},
	{"fig18", "Memory vs error_bound and noise", Fig18MemoryErrorBound},
	{"fig19", "Index memory vs tuples (Synthetic)", Fig19IndexMemory},
	{"fig20", "Total memory vs number of indexes (Synthetic-Linear)", Fig20TotalMemory},
	{"fig21", "Index construction time vs threads (Synthetic)", Fig21Construction},
	{"fig22", "Insertion throughput vs number of indexes", Fig22Insertion},
	{"fig23", "Online reorganization trace (Synthetic-Sigmoid)", Fig23Reorg},
	{"fig24", "Disk-based range lookup and breakdown (Sensor)", Fig24Disk},
	{"tab1", "Training time for different ML models", Table1Training},
	{"fig26", "Outlier capture on correlated stock indices", Fig26Outliers},
	{"fig27", "CM vs Hermit range throughput vs noise (Linear)", Fig27CMLinearThroughput},
	{"fig28", "CM vs Hermit memory vs noise (Linear)", Fig28CMLinearMemory},
	{"fig29", "CM vs Hermit range throughput vs noise (Sigmoid)", Fig29CMSigmoidThroughput},
	{"fig30", "CM vs Hermit memory vs noise (Sigmoid)", Fig30CMSigmoidMemory},
	{"ablation", "Ablations: sampling, range union, outlier buffer", Ablations},
	{"concurrency", "Concurrent serving: throughput vs goroutines", RunConcurrency},
	{"durability", "Durable inserts vs sync policy; recovery vs WAL length", RunDurability},
	{"compaction", "Block tier: checkpoint pause vs table size; write amplification; bloom-gated cold reads", RunCompaction},
	{"advisor", "Self-tuning: advisor auto-indexing and planner re-routing", RunAdvisor},
	{"partition", "Hash partitioning: scatter-gather throughput vs partitions x goroutines", RunPartition},
	{"txn", "MVCC transactions: scan-under-writes, abort rate, snapshot overhead", RunTxn},
	{"server", "Network serving tier: loopback throughput/latency vs clients", RunServer},
	{"repl", "Replication: follower read scaling; lag vs write rate", RunRepl},
	{"scenarios", "Trace-driven scenarios: per-phase SLO quantiles", RunScenarios},
	{"hotpath", "Hot-path allocs/op and ns/op at GOMAXPROCS 1 and NumCPU", RunHotpath},
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// header prints an experiment banner.
func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", id, title)
}

// buildSynthetic creates a Synthetic table under the given scheme with the
// host index on colB in place, ready for a new index on colC. The table is
// pinned to static routing: every figure compares named mechanisms, so the
// cost planner must not re-route wide predicates to a scan mid-experiment
// (the advisor experiment, which measures the planner itself, builds its
// own table).
func buildSynthetic(cfg Config, scheme hermit.PointerScheme, rowsN int, fn workload.CorrelationKind, noise float64) (*engine.Table, error) {
	db := engine.NewDB(scheme)
	tb, err := db.CreateTable("synthetic", workload.SyntheticSpec{}.Columns(), workload.SyntheticSpec{}.PKCol())
	if err != nil {
		return nil, err
	}
	tb.SetRouting(engine.RouteStatic)
	spec := workload.SyntheticSpec{Rows: rowsN, Fn: fn, Noise: noise, Seed: cfg.Seed}
	err = spec.Generate(func(row []float64) error {
		_, err := tb.Insert(row)
		return err
	})
	if err != nil {
		return nil, err
	}
	if _, err := tb.CreateBTreeIndex(spec.HostCol(), false); err != nil {
		return nil, err
	}
	return tb, nil
}

// measureRange drives range queries against col for cfg.MeasureFor and
// returns operations/second.
func measureRange(cfg Config, tb *engine.Table, col int, lo, hi, sel float64) (float64, error) {
	gen := workload.QueryGen(lo, hi, sel, cfg.Seed+99)
	start := time.Now()
	ops := 0
	for time.Since(start) < cfg.MeasureFor {
		q := gen()
		if _, _, err := tb.RangeQuery(col, q.Lo, q.Hi); err != nil {
			return 0, err
		}
		ops++
	}
	return float64(ops) / time.Since(start).Seconds(), nil
}

// measurePoint drives point queries for cfg.MeasureFor.
func measurePoint(cfg Config, tb *engine.Table, col int, lo, hi float64) (float64, error) {
	gen := workload.PointGen(lo, hi, cfg.Seed+77)
	start := time.Now()
	ops := 0
	for time.Since(start) < cfg.MeasureFor {
		if _, _, err := tb.PointQuery(col, gen()); err != nil {
			return 0, err
		}
		ops++
	}
	return float64(ops) / time.Since(start).Seconds(), nil
}

// aggregateBreakdown runs nq range queries and returns summed per-phase
// fractions.
func aggregateBreakdown(tb *engine.Table, col int, lo, hi, sel float64, nq int, seed int64) ([4]float64, error) {
	gen := workload.QueryGen(lo, hi, sel, seed)
	var total hermit.Breakdown
	for i := 0; i < nq; i++ {
		q := gen()
		_, st, err := tb.RangeQuery(col, q.Lo, q.Hi)
		if err != nil {
			return [4]float64{}, err
		}
		total.Add(st.Breakdown)
	}
	return total.Fractions(), nil
}

// defaultParams returns the paper's default TRS-Tree configuration (§7.1).
func defaultParams() trstree.Params { return trstree.DefaultParams() }

// quantile returns the q-quantile (0 <= q <= 1) of sorted samples by
// linear interpolation between the two nearest ranks. The old per-file
// helpers used truncating nearest-rank indexing (int(q*(len-1))), which
// biases high quantiles low at small sample counts — at 100 samples p99
// truncated to the 99th of 100 ranks exactly, but p999 collapsed onto it,
// and at 50 samples p99 landed on rank 48 of 49. Interpolation is the
// standard estimator (type 7, the R/numpy default) and can express p999
// at any sample count.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quantiles sorts the samples in place and returns their interpolated
// (p50, p99, p999) — the shared latency summary every experiment that
// records per-op latencies (server, repl, scenarios) reports.
func quantiles(lats []float64) (p50, p99, p999 float64) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(lats)
	return quantile(lats, 0.50), quantile(lats, 0.99), quantile(lats, 0.999)
}

// fmtBytes renders a byte count in MB with two decimals, the unit the
// paper's memory figures use.
func fmtBytes(b uint64) string { return fmt.Sprintf("%.2f MB", float64(b)/(1<<20)) }

// fmtKops renders ops/sec as K ops, the paper's throughput unit.
func fmtKops(ops float64) string { return fmt.Sprintf("%.2f K ops", ops/1000) }
