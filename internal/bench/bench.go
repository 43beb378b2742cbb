// Package bench contains the experiment drivers that regenerate every table
// and figure in the paper's evaluation (§7 and Appendix E) — views over one
// grid of trials (paper.go) — and the experiments this repository adds. Each
// prints the rows/series the paper plots, so shapes can be compared
// directly; absolute numbers differ because the substrate is this repo's
// engine rather than the authors' testbed (README, "Benchmarks").
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
	// JSONDir, when non-empty, receives machine-readable BENCH_*.json
	// result files alongside the printed tables.
	JSONDir string
}

// DefaultConfig returns the CLI defaults.
func DefaultConfig(out io.Writer) Config {
	return Config{
		Out:        out,
		Scale:      0.02,
		MeasureFor: 300 * time.Millisecond,
		Seed:       1,
		TmpDir:     "",
		JSONDir:    ".",
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
	return c
}

// maxGoroutines is the most clients, writers or server workers a sweep
// reaches (the serving, replication, transaction and durability
// experiments).
const maxGoroutines = 8

// goroutineCounts returns the swept goroutine counts: powers of two up to
// and including maxGoroutines.
func goroutineCounts() []int {
	var out []int
	for g := 1; g < maxGoroutines; g *= 2 {
		out = append(out, g)
	}
	return append(out, maxGoroutines)
}

// speedup guards against a zero baseline (a degenerate measurement window
// where no operation completed): NaN/Inf would fail JSON marshalling.
func speedup(ops, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return ops / base
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

// Registry lists every experiment: the paper's figures in paper order,
// "paper" (all of them from one grid), then the experiments this
// repository adds.
var Registry = append(figureExperiments(), []Experiment{
	{"paper", "Every paper figure from one sweep, recorded in BENCH_paper.json", RunPaper},
	{"durability", "Durable inserts vs sync policy; recovery vs WAL length", RunDurability},
	{"compaction", "Block tier: checkpoint pause vs table size; write amplification; bloom-gated cold reads", RunCompaction},
	{"advisor", "Self-tuning: advisor auto-indexing and planner re-routing", RunAdvisor},
	{"txn", "MVCC transactions: scan-under-writes, abort rate, snapshot overhead", RunTxn},
	{"server", "Network serving tier: loopback throughput/latency vs clients", RunServer},
	{"repl", "Replication: follower read scaling; lag vs write rate", RunRepl},
	{"scenarios", "Trace-driven scenarios: per-phase SLO quantiles", RunScenarios},
	{"hotpath", "Hot-path allocs/op and ns/op at GOMAXPROCS 1 and NumCPU", RunHotpath},
}...)

// PaperIDs returns the ids of the paper's tables and figures, in paper
// order.
func PaperIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// AllIDs returns what "-exp all" runs: every experiment once, the paper's
// figures through "paper" rather than one by one.
func AllIDs() []string {
	var ids []string
	for _, e := range Registry[len(figures):] {
		ids = append(ids, e.ID)
	}
	return ids
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

// measureRange drives range queries against col through path for
// cfg.MeasureFor and returns operations/second. Each query fetches its
// rows, into one reused buffer.
func measureRange(cfg Config, tb *engine.Table, col int, path engine.AccessPath, lo, hi, sel float64) (float64, error) {
	gen := workload.QueryGen(lo, hi, sel, cfg.Seed+99)
	var rows []float64
	return timed(cfg, 0, func(int) (err error) {
		q := gen()
		rows, _, err = tb.Exec(engine.Query{Col: col, Lo: q.Lo, Hi: q.Hi, Path: path}, rows[:0])
		return err
	})
}

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
