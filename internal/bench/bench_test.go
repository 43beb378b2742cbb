package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyConfig keeps experiment smoke tests fast: minimum rows, short
// measurement windows.
func tinyConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Out:        &bytes.Buffer{},
		Scale:      0.0001,
		MeasureFor: 10 * time.Millisecond,
		Seed:       1,
		TmpDir:     t.TempDir(),
	}
}

func runExperiment(t *testing.T, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	cfg := tinyConfig(t)
	buf := &bytes.Buffer{}
	cfg.Out = buf
	if err := e.Run(cfg); err != nil {
		t.Fatalf("%s: %v\noutput so far:\n%s", id, err, buf.String())
	}
	return buf.String()
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure in the paper's evaluation must be present.
	want := []string{
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "tab1",
		"fig26", "fig27", "fig28", "fig29", "fig30", "ablation",
		"concurrency", "durability", "compaction", "advisor", "partition",
		"txn", "server", "repl", "scenarios", "hotpath",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("missing experiment %s", id)
		}
	}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Registry), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID(nope)")
	}
}

func TestConfigSanitize(t *testing.T) {
	c := Config{}.sanitized()
	if c.Scale <= 0 || c.MeasureFor <= 0 || c.Seed == 0 {
		t.Fatalf("sanitized=%+v", c)
	}
	if n := c.rows(1_000_000_000); n < 2000 {
		t.Fatalf("rows floor: %d", n)
	}
	if (Config{Scale: 1}).rows(10_000_000) != 10_000_000 {
		t.Fatal("scale 1 should be identity")
	}
}

// Smoke tests: every experiment runs end-to-end at tiny scale and produces
// plausible output. Split into groups so failures localise.

func TestSmokeSyntheticThroughput(t *testing.T) {
	for _, id := range []string{"fig8", "fig9"} {
		out := runExperiment(t, id)
		if !strings.Contains(out, "HERMIT") || !strings.Contains(out, "K ops") {
			t.Fatalf("%s output malformed:\n%s", id, out)
		}
		if !strings.Contains(out, "logical") || !strings.Contains(out, "physical") {
			t.Fatalf("%s missing pointer schemes:\n%s", id, out)
		}
	}
}

func TestSmokeBreakdowns(t *testing.T) {
	for _, id := range []string{"fig10", "fig11", "fig14", "fig15"} {
		out := runExperiment(t, id)
		if !strings.Contains(out, "%") {
			t.Fatalf("%s breakdown has no percentages:\n%s", id, out)
		}
	}
}

func TestSmokePointLookups(t *testing.T) {
	for _, id := range []string{"fig12", "fig13"} {
		out := runExperiment(t, id)
		if !strings.Contains(out, "tuples") {
			t.Fatalf("%s malformed:\n%s", id, out)
		}
	}
}

func TestSmokeErrorBoundSweeps(t *testing.T) {
	for _, id := range []string{"fig16", "fig17", "fig18"} {
		out := runExperiment(t, id)
		if !strings.Contains(out, "error_bound") {
			t.Fatalf("%s malformed:\n%s", id, out)
		}
	}
}

func TestSmokeMemoryAndConstruction(t *testing.T) {
	for _, id := range []string{"fig19", "fig20", "fig21", "fig22"} {
		out := runExperiment(t, id)
		if len(out) < 50 {
			t.Fatalf("%s output too short:\n%s", id, out)
		}
	}
}

func TestSmokeReorg(t *testing.T) {
	out := runExperiment(t, "fig23")
	if !strings.Contains(out, "reorg") || !strings.Contains(out, "yes") {
		t.Fatalf("fig23 trace missing reorg ticks:\n%s", out)
	}
}

func TestSmokeApps(t *testing.T) {
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7", "fig26"} {
		out := runExperiment(t, id)
		if len(out) < 50 {
			t.Fatalf("%s output too short:\n%s", id, out)
		}
	}
}

func TestSmokeDisk(t *testing.T) {
	out := runExperiment(t, "fig24")
	// The experiment itself fails on an inexact answer; the lines say the
	// rows came from pages and that the check ran.
	if !strings.Contains(out, "page reads=") || strings.Contains(out, "page reads=0 ") || !strings.Contains(out, "exact: ") {
		t.Fatalf("fig24 missing page reads or the exactness line:\n%s", out)
	}
}

func TestSmokeTable1(t *testing.T) {
	out := runExperiment(t, "tab1")
	if !strings.Contains(out, "Linear regression") || !strings.Contains(out, "SVR") {
		t.Fatalf("tab1 malformed:\n%s", out)
	}
}

func TestSmokeCM(t *testing.T) {
	// The CM matrices are the heaviest experiments; run just the linear
	// memory variant (builds, no measurement loops dominate).
	out := runExperiment(t, "fig28")
	if !strings.Contains(out, "CM-16") || !strings.Contains(out, "host bucket size") {
		t.Fatalf("fig28 malformed:\n%s", out)
	}
}

func TestSmokeAblation(t *testing.T) {
	out := runExperiment(t, "ablation")
	if !strings.Contains(out, "sample_rate") || !strings.Contains(out, "union") {
		t.Fatalf("ablation malformed:\n%s", out)
	}
}

func TestSmokePartition(t *testing.T) {
	e, ok := ByID("partition")
	if !ok {
		t.Fatal("partition experiment not registered")
	}
	cfg := tinyConfig(t)
	cfg.Concurrency = 2
	cfg.JSONDir = t.TempDir()
	buf := &bytes.Buffer{}
	cfg.Out = buf
	if err := e.Run(cfg); err != nil {
		t.Fatalf("partition: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "range-scan") || !strings.Contains(out, "point-query overhead") {
		t.Fatalf("partition output malformed:\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(cfg.JSONDir, "BENCH_partition.json"))
	if err != nil {
		t.Fatalf("BENCH_partition.json not written: %v", err)
	}
	var rep struct {
		Experiment string `json:"experiment"`
		Seed       int64  `json:"seed"`
		Caveat     string `json:"caveat"`
		RangeScan  []struct {
			Partitions int     `json:"partitions"`
			Goroutines int     `json:"goroutines"`
			OpsPerSec  float64 `json:"ops_per_sec"`
			Speedup    float64 `json:"speedup_vs_1_partition"`
		} `json:"range_scan"`
		Mixed    []any `json:"mixed_90_10"`
		Overhead struct {
			Partitions int     `json:"partitions"`
			Single     float64 `json:"ops_per_sec_1_partition"`
			Multi      float64 `json:"ops_per_sec_n_partitions"`
		} `json:"point_overhead"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_partition.json malformed: %v\n%s", err, data)
	}
	// 3 partition counts x 2 goroutine counts per sweep.
	if rep.Experiment != "partition" || rep.Seed != 1 || len(rep.RangeScan) != 6 || len(rep.Mixed) != 6 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.Caveat == "" {
		t.Fatal("caveat (1-CPU container note) missing from JSON")
	}
	for _, p := range rep.RangeScan {
		if p.OpsPerSec <= 0 || p.Speedup <= 0 {
			t.Fatalf("non-positive throughput in %+v", p)
		}
	}
	if rep.Overhead.Single <= 0 || rep.Overhead.Multi <= 0 || rep.Overhead.Partitions != 4 {
		t.Fatalf("point overhead malformed: %+v", rep.Overhead)
	}
}

func TestSmokeConcurrency(t *testing.T) {
	e, ok := ByID("concurrency")
	if !ok {
		t.Fatal("concurrency experiment not registered")
	}
	cfg := tinyConfig(t)
	cfg.Concurrency = 4
	cfg.JSONDir = t.TempDir()
	buf := &bytes.Buffer{}
	cfg.Out = buf
	if err := e.Run(cfg); err != nil {
		t.Fatalf("concurrency: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "read-only") || !strings.Contains(out, "mixed") {
		t.Fatalf("concurrency output malformed:\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(cfg.JSONDir, "BENCH_concurrency.json"))
	if err != nil {
		t.Fatalf("BENCH_concurrency.json not written: %v", err)
	}
	var rep struct {
		Experiment string `json:"experiment"`
		ReadOnly   []struct {
			Goroutines int     `json:"goroutines"`
			OpsPerSec  float64 `json:"ops_per_sec"`
			Speedup    float64 `json:"speedup"`
		} `json:"read_only_range"`
		Mixed []any `json:"mixed_90_10"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_concurrency.json malformed: %v\n%s", err, data)
	}
	if rep.Experiment != "concurrency" || len(rep.ReadOnly) != 3 || len(rep.Mixed) != 3 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	for _, p := range rep.ReadOnly {
		if p.OpsPerSec <= 0 || p.Speedup <= 0 {
			t.Fatalf("non-positive throughput in %+v", p)
		}
	}
}

func TestSmokeDurability(t *testing.T) {
	e, ok := ByID("durability")
	if !ok {
		t.Fatal("durability experiment not registered")
	}
	cfg := tinyConfig(t)
	cfg.Concurrency = 4
	cfg.JSONDir = t.TempDir()
	buf := &bytes.Buffer{}
	cfg.Out = buf
	if err := e.Run(cfg); err != nil {
		t.Fatalf("durability: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"no-sync", "group-commit", "sync-every-op", "recovery"} {
		if !strings.Contains(out, want) {
			t.Fatalf("durability output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(filepath.Join(cfg.JSONDir, "BENCH_durability.json"))
	if err != nil {
		t.Fatalf("BENCH_durability.json not written: %v", err)
	}
	var rep struct {
		Experiment string `json:"experiment"`
		Throughput []struct {
			Policy    string  `json:"policy"`
			OpsPerSec float64 `json:"ops_per_sec"`
		} `json:"insert_throughput"`
		Recovery []struct {
			WALRecords int     `json:"wal_records"`
			RecoveryMS float64 `json:"recovery_ms"`
		} `json:"recovery"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_durability.json malformed: %v\n%s", err, data)
	}
	if rep.Experiment != "durability" || len(rep.Throughput) != 9 || len(rep.Recovery) != 3 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	seen := map[string]bool{}
	for _, p := range rep.Throughput {
		if p.OpsPerSec <= 0 {
			t.Fatalf("non-positive throughput in %+v", p)
		}
		seen[p.Policy] = true
	}
	if !seen["no-sync"] || !seen["group-commit"] || !seen["sync-every-op"] {
		t.Fatalf("missing sync policies: %+v", rep.Throughput)
	}
	for _, p := range rep.Recovery {
		if p.WALRecords <= 0 || p.RecoveryMS <= 0 {
			t.Fatalf("bad recovery point %+v", p)
		}
	}
}

func TestSmokeCompaction(t *testing.T) {
	e, ok := ByID("compaction")
	if !ok {
		t.Fatal("compaction experiment not registered")
	}
	cfg := tinyConfig(t)
	cfg.JSONDir = t.TempDir()
	buf := &bytes.Buffer{}
	cfg.Out = buf
	if err := e.Run(cfg); err != nil {
		t.Fatalf("compaction: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"checkpoint pause", "write amplification", "bloom"} {
		if !strings.Contains(out, want) {
			t.Fatalf("compaction output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(filepath.Join(cfg.JSONDir, "BENCH_compaction.json"))
	if err != nil {
		t.Fatalf("BENCH_compaction.json not written: %v", err)
	}
	var rep struct {
		Experiment string `json:"experiment"`
		Pause      []struct {
			TableRows         int     `json:"table_rows"`
			DeltaRows         int     `json:"delta_rows"`
			FullCheckpointMS  float64 `json:"full_checkpoint_ms"`
			DeltaCheckpointMS float64 `json:"delta_checkpoint_ms"`
		} `json:"checkpoint_pause"`
		Amplification struct {
			Flushes            int64   `json:"flushes"`
			Compactions        int64   `json:"compactions"`
			WriteAmplification float64 `json:"write_amplification"`
			Blocks             int     `json:"blocks"`
		} `json:"write_amplification"`
		ColdReads []struct {
			Kind         string  `json:"kind"`
			Reads        int     `json:"reads"`
			NSPerRead    float64 `json:"ns_per_read"`
			Resident     float64 `json:"resident_bytes_per_flushed_row"`
			BlocksProbed float64 `json:"blocks_probed_per_read"`
			PageReads    float64 `json:"page_reads_per_read"`
		} `json:"cold_reads"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_compaction.json malformed: %v\n%s", err, data)
	}
	if rep.Experiment != "compaction" || len(rep.Pause) != 3 || len(rep.ColdReads) != 2 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	for _, p := range rep.Pause {
		if p.TableRows <= 0 || p.DeltaRows <= 0 || p.FullCheckpointMS <= 0 || p.DeltaCheckpointMS <= 0 {
			t.Fatalf("bad pause point %+v", p)
		}
	}
	if rep.Amplification.Flushes < 5 || rep.Amplification.Compactions < 1 ||
		rep.Amplification.WriteAmplification < 1 || rep.Amplification.Blocks < 1 {
		t.Fatalf("bad amplification point %+v", rep.Amplification)
	}
	// The bloom filters are the whole point of the absent-key row: reads
	// that miss must probe (strictly) fewer blocks than reads that hit.
	var hit, miss float64 = -1, -1
	for _, p := range rep.ColdReads {
		if p.Reads <= 0 || p.NSPerRead <= 0 {
			t.Fatalf("bad cold-read point %+v", p)
		}
		// A block the filters let through costs one page read, and the open
		// blocks hold an index and a bloom, not the rows (even at this
		// scale, where a handle's fixed part still shows).
		if p.PageReads != p.BlocksProbed || p.Resident <= 0 || p.Resident > 4 {
			t.Fatalf("cold-read point %+v: page reads and probes differ, or the tier is resident", p)
		}
		if p.Kind == "present" {
			hit = p.BlocksProbed
		} else {
			miss = p.BlocksProbed
		}
	}
	if hit < 1 || miss < 0 || miss >= hit {
		t.Fatalf("bloom skip not visible: hit probes %.2f, miss probes %.2f", hit, miss)
	}
}

func TestSmokeAdvisor(t *testing.T) {
	e, ok := ByID("advisor")
	if !ok {
		t.Fatal("advisor experiment not registered")
	}
	cfg := tinyConfig(t)
	cfg.JSONDir = t.TempDir()
	buf := &bytes.Buffer{}
	cfg.Out = buf
	if err := e.Run(cfg); err != nil {
		t.Fatalf("advisor: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"before auto-indexing", "advisor acted", "after auto-indexing"} {
		if !strings.Contains(out, want) {
			t.Fatalf("advisor output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(filepath.Join(cfg.JSONDir, "BENCH_advisor.json"))
	if err != nil {
		t.Fatalf("BENCH_advisor.json not written: %v", err)
	}
	var rep advisorReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_advisor.json malformed: %v\n%s", err, data)
	}
	if rep.Experiment != "advisor" || rep.BeforeOpsPerSec <= 0 || rep.AfterOpsPerSec <= 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.Action.Kind != "create-hermit" || rep.Action.Host < 0 {
		t.Fatalf("advisor took the wrong action: %+v", rep.Action)
	}
	if rep.QueriesToConverge <= 0 || rep.ConvergenceMS <= 0 {
		t.Fatalf("convergence not recorded: %+v", rep)
	}
	if rep.PlannerChosenAfter != "hermit" {
		t.Fatalf("planner serving %q after auto-indexing", rep.PlannerChosenAfter)
	}
}
