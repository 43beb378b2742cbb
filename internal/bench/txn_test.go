package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestTxnExperimentSmoke runs the txn experiment end-to-end at tiny scale
// and validates the recorded BENCH_txn.json artifact: schema fields
// present, a point per swept cell, and internally consistent rates.
func TestTxnExperimentSmoke(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	cfg := Config{
		Out:        &out,
		Scale:      0.001,
		MeasureFor: 30 * time.Millisecond,
		Seed:       1,
		JSONDir:    dir,
	}
	if err := RunTxn(cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_txn.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep txnReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "txn" || rep.Seed != 1 || rep.Rows <= 0 {
		t.Fatalf("header garbled: %+v", rep)
	}
	if len(rep.ScanUnderWrites) != len(writerCounts()) {
		t.Fatalf("scan sweep has %d points, want %d",
			len(rep.ScanUnderWrites), len(writerCounts()))
	}
	if rep.ScanUnderWrites[0].Writers != 0 || rep.ScanUnderWrites[0].WriteOpsPerSec != 0 {
		t.Fatalf("idle baseline wrong: %+v", rep.ScanUnderWrites[0])
	}
	for _, p := range rep.ScanUnderWrites {
		if p.ScanOpsPerSec <= 0 {
			t.Fatalf("scan throughput missing at writers=%d", p.Writers)
		}
		if p.Writers > 0 && p.WriteOpsPerSec <= 0 {
			t.Fatalf("write throughput missing at writers=%d", p.Writers)
		}
	}
	if len(rep.AbortRate) != len(goroutineCounts()) {
		t.Fatalf("abort sweep has %d points", len(rep.AbortRate))
	}
	for _, p := range rep.AbortRate {
		if p.CommitsPerSec <= 0 {
			t.Fatalf("no commits at g=%d", p.Goroutines)
		}
		if p.AbortPct < 0 || p.AbortPct > 100 {
			t.Fatalf("abort pct out of range: %+v", p)
		}
	}
	if rep.Snapshot.PerQueryOpsPerSec <= 0 || rep.Snapshot.ReusedOpsPerSec <= 0 {
		t.Fatalf("snapshot overhead not measured: %+v", rep.Snapshot)
	}
	if rep.Caveat == "" {
		t.Fatal("caveat missing from artifact")
	}
}
