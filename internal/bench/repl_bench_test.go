package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestReplExperimentSmoke runs the replication experiment end-to-end at
// tiny scale and validates the recorded BENCH_repl.json artifact: the
// header fields benchcheck requires, one read point per follower count,
// one lag point per write rate, and internally consistent numbers.
func TestReplExperimentSmoke(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	cfg := Config{
		Out:        &out,
		Scale:      0.001,
		MeasureFor: 30 * time.Millisecond,
		Seed:       1,
		JSONDir:    dir,
	}
	if err := RunRepl(cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_repl.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep replReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "repl" || rep.Seed != 1 || rep.Rows <= 0 {
		t.Fatalf("header garbled: %+v", rep)
	}
	if rep.NumCPU <= 0 || rep.GOMAXPROCS <= 0 {
		t.Fatalf("cpu topology missing: num_cpu=%d gomaxprocs=%d", rep.NumCPU, rep.GOMAXPROCS)
	}
	if rep.Caveat == "" {
		t.Fatal("caveat missing from artifact")
	}

	if len(rep.ReadSweep) != 3 {
		t.Fatalf("read sweep has %d points, want 3", len(rep.ReadSweep))
	}
	wantFollowers := []int{1, 2, 4}
	for i, p := range rep.ReadSweep {
		if p.Followers != wantFollowers[i] {
			t.Fatalf("read point %d covers %d followers, want %d", i, p.Followers, wantFollowers[i])
		}
		if p.Clients != maxGoroutines || p.OpsPerSec <= 0 {
			t.Fatalf("read point inconsistent: %+v", p)
		}
		if p.P50Micros <= 0 || p.P99Micros < p.P50Micros {
			t.Fatalf("read quantiles inconsistent: %+v", p)
		}
	}

	if len(rep.LagSweep) != 3 {
		t.Fatalf("lag sweep has %d points, want 3", len(rep.LagSweep))
	}
	for i, p := range rep.LagSweep {
		if i > 0 && p.TargetWPS <= rep.LagSweep[i-1].TargetWPS {
			t.Fatalf("lag sweep rates not increasing: %+v", rep.LagSweep)
		}
		if p.ObservedWPS <= 0 {
			t.Fatalf("no writes recorded at %+v", p)
		}
		if float64(p.MaxLagLSN) < p.MeanLagLSN {
			t.Fatalf("lag stats inconsistent: %+v", p)
		}
		if p.CatchupMS < 0 {
			t.Fatalf("negative catch-up: %+v", p)
		}
	}
}
