package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hermit/internal/scenario"
)

// TestScenarioExperimentSmoke runs the scenarios experiment end to end
// at tiny scale and validates BENCH_scenarios.json: header fields, one
// entry per canned spec, per-phase quantile ordering, and — the PR's
// acceptance bar — trace_hash equal to the independent recompile's
// trace_hash_recheck for every scenario.
func TestScenarioExperimentSmoke(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	cfg := Config{
		Out:        &out,
		Scale:      0.001,
		MeasureFor: 30 * time.Millisecond,
		Seed:       1,
		JSONDir:    dir,
	}
	if err := RunScenarios(cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_scenarios.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep scenarioReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "scenarios" || rep.Seed != 1 {
		t.Fatalf("header garbled: %+v", rep)
	}
	if rep.NumCPU <= 0 || rep.GOMAXPROCS <= 0 {
		t.Fatalf("cpu topology missing: num_cpu=%d gomaxprocs=%d", rep.NumCPU, rep.GOMAXPROCS)
	}
	if rep.Caveat == "" {
		t.Fatal("caveat missing from artifact")
	}
	want := scenario.CannedNames()
	if len(rep.Scenarios) != len(want) || len(rep.Scenarios) < 4 {
		t.Fatalf("artifact has %d scenarios, want %d (>= 4)", len(rep.Scenarios), len(want))
	}
	for i, sr := range rep.Scenarios {
		if sr.Name != want[i] {
			t.Fatalf("scenario %d is %q, want %q", i, sr.Name, want[i])
		}
		if sr.SpecHash == "" || sr.TraceHash == "" {
			t.Fatalf("%s: missing hashes: %+v", sr.Name, sr)
		}
		if sr.TraceHash != sr.TraceHashRecheck {
			t.Fatalf("%s: trace hash %s != recompile recheck %s — compile is nondeterministic",
				sr.Name, sr.TraceHash, sr.TraceHashRecheck)
		}
		if len(sr.Phases) == 0 {
			t.Fatalf("%s: no phases", sr.Name)
		}
		for _, ph := range sr.Phases {
			if ph.Ops <= 0 || ph.OpsPerSec <= 0 {
				t.Fatalf("%s/%s: no throughput: %+v", sr.Name, ph.Name, ph)
			}
			if ph.Errors != 0 {
				t.Fatalf("%s/%s: %d errors", sr.Name, ph.Name, ph.Errors)
			}
			if ph.P50Micros <= 0 || ph.P99Micros < ph.P50Micros || ph.P999Micros < ph.P99Micros {
				t.Fatalf("%s/%s: quantiles inconsistent: %+v", sr.Name, ph.Name, ph)
			}
		}
	}
}

// TestScenarioExperimentDeterministicHashes replays the scenarios
// experiment twice into separate artifact dirs: every per-scenario trace
// hash must agree run to run (the replay timings will differ; the op
// streams must not).
func TestScenarioExperimentDeterministicHashes(t *testing.T) {
	run := func() map[string]string {
		dir := t.TempDir()
		var out bytes.Buffer
		cfg := Config{
			Out:        &out,
			Scale:      0.001,
			MeasureFor: 30 * time.Millisecond,
			Seed:       1,
			JSONDir:    dir,
		}
		if err := RunScenarios(cfg); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "BENCH_scenarios.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rep scenarioReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		hashes := make(map[string]string, len(rep.Scenarios))
		for _, sr := range rep.Scenarios {
			hashes[sr.Name] = sr.TraceHash
		}
		return hashes
	}
	a, b := run(), run()
	for name, ha := range a {
		if hb := b[name]; ha != hb {
			t.Fatalf("%s: trace hash changed between runs: %s vs %s", name, ha, hb)
		}
	}
}
