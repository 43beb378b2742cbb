package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestServerExperimentSmoke runs the server experiment end-to-end at tiny
// scale and validates the recorded BENCH_server.json artifact: schema
// fields present, a point per (clients, mode, workload) cell, and
// internally consistent quantiles.
func TestServerExperimentSmoke(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	cfg := Config{
		Out:        &out,
		Scale:      0.001,
		MeasureFor: 30 * time.Millisecond,
		Seed:       1,
		JSONDir:    dir,
	}
	if err := RunServer(cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_server.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep serverReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "server" || rep.Seed != 1 || rep.Rows <= 0 {
		t.Fatalf("header garbled: %+v", rep)
	}
	if rep.NumCPU <= 0 || rep.GOMAXPROCS <= 0 {
		t.Fatalf("cpu topology missing: num_cpu=%d gomaxprocs=%d", rep.NumCPU, rep.GOMAXPROCS)
	}
	want := 2 * 2 * len(goroutineCounts())
	if len(rep.Sweep) != want {
		t.Fatalf("sweep has %d points, want %d", len(rep.Sweep), want)
	}
	modes := map[string]bool{}
	for _, p := range rep.Sweep {
		modes[p.Mode+"/"+p.Workload] = true
		if p.OpsPerSec <= 0 {
			t.Fatalf("no throughput at %+v", p)
		}
		if p.P50Micros <= 0 || p.P99Micros < p.P50Micros {
			t.Fatalf("quantiles inconsistent: %+v", p)
		}
	}
	for _, m := range []string{"oneshot/point", "oneshot/mixed", "pipelined/point", "pipelined/mixed"} {
		if !modes[m] {
			t.Fatalf("sweep missing cell %s", m)
		}
	}
	if rep.Requests <= 0 {
		t.Fatal("server request counter not recorded")
	}
	if rep.PipelineDepth != serverPipelineDepth {
		t.Fatalf("pipeline depth garbled: %d", rep.PipelineDepth)
	}
	if rep.Caveat == "" {
		t.Fatal("caveat missing from artifact")
	}
}
