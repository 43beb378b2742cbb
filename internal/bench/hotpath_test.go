package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestHotpathExperimentSmoke runs every hotpath lane at tiny scale and
// checks the artifact's shape: each tracked workload at both GOMAXPROCS
// lanes, and the in-memory write and logical-range lanes — whose ops fail
// on a missing key or a wrong row count — actually ran.
func TestHotpathExperimentSmoke(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Scale = 0.002 // 2000 rows: room for the 256-row scans
	cfg.JSONDir = t.TempDir()
	if err := RunHotpath(cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(cfg.JSONDir, "BENCH_hotpath.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep hotpathReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	want := hotpathWorkloads()
	if rep.Experiment != "hotpath" || len(rep.Lanes) != len(want)*len(hotpathProcs) {
		t.Fatalf("%d lanes recorded, want %d workloads x %d lanes", len(rep.Lanes), len(want), len(hotpathProcs))
	}
	for i, l := range rep.Lanes {
		if w := want[i/len(hotpathProcs)].name; l.Workload != w || l.Ops <= 0 || l.NsPerOp <= 0 {
			t.Fatalf("lane %d: %+v, want workload %s with ops recorded", i, l, w)
		}
	}
}
