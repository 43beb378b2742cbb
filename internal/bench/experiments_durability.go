package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/workload"
)

// The durability experiment is not a paper figure: it measures what the
// concurrent durable layer costs and buys — durable insert throughput
// under the three WAL sync policies (no-sync / group-commit /
// sync-every-op), driven through the durable batched executor, and
// recovery time as a function of WAL length. Results are printed and, when
// Config.JSONDir is set, recorded in BENCH_durability.json for the
// performance trajectory across PRs.

// durabilityGroupInterval is the group-commit interval the experiment uses
// for the group policy.
const durabilityGroupInterval = 2 * time.Millisecond

// durabilityThroughputPoint is one measured sync policy.
type durabilityThroughputPoint struct {
	Policy     string  `json:"policy"`
	Goroutines int     `json:"goroutines"`
	Ops        int     `json:"ops"`
	OpsPerSec  float64 `json:"ops_per_sec"`
}

// durabilityRecoveryPoint is one measured WAL length.
type durabilityRecoveryPoint struct {
	WALRecords    int     `json:"wal_records"`
	RecoveryMS    float64 `json:"recovery_ms"`
	RecordsPerSec float64 `json:"replay_records_per_sec"`
}

// durabilityReport is the schema of BENCH_durability.json.
type durabilityReport struct {
	Experiment      string                      `json:"experiment"`
	Scale           float64                     `json:"scale"`
	NumCPU          int                         `json:"num_cpu"`
	GOMAXPROCS      int                         `json:"gomaxprocs"`
	MeasureForMS    int64                       `json:"measure_for_ms"`
	Seed            int64                       `json:"seed"`
	GroupIntervalUS int64                       `json:"group_interval_us"`
	Throughput      []durabilityThroughputPoint `json:"insert_throughput"`
	Recovery        []durabilityRecoveryPoint   `json:"recovery"`
}

// RunDurability drives the durability experiment.
func RunDurability(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "durability", "Durable inserts vs sync policy; recovery time vs WAL length")
	root := cfg.TmpDir
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "hermit-durability-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(root)
	}
	rep := durabilityReport{
		Experiment:      "durability",
		Scale:           cfg.Scale,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		MeasureForMS:    cfg.MeasureFor.Milliseconds(),
		Seed:            cfg.Seed,
		GroupIntervalUS: durabilityGroupInterval.Microseconds(),
	}

	// Group commit amortises the fsync across concurrent waiters, so its
	// throughput scales with the client count where sync-every-op's fsync
	// cost is paid per drained batch regardless; sweep clients to show it.
	counts := []int{1, maxGoroutines, 8 * maxGoroutines}
	fmt.Fprintf(cfg.Out, "-- durable insert throughput (batched executor) --\n")
	fmt.Fprintf(cfg.Out, "%-16s %-12s %14s\n", "sync policy", "clients", "throughput")
	for _, opts := range []engine.DurableOptions{
		{Policy: engine.SyncNever},
		{Policy: engine.SyncGroup, GroupInterval: durabilityGroupInterval},
		{Policy: engine.SyncAlways},
	} {
		for _, g := range counts {
			ops, n, err := measureDurableInserts(cfg, root, opts, g)
			if err != nil {
				return err
			}
			p := durabilityThroughputPoint{
				Policy: opts.Policy.String(), Goroutines: g, Ops: n, OpsPerSec: ops,
			}
			rep.Throughput = append(rep.Throughput, p)
			fmt.Fprintf(cfg.Out, "%-16s %-12d %14s\n", p.Policy, g, fmtKops(ops))
		}
	}

	fmt.Fprintf(cfg.Out, "-- recovery time vs WAL length (WAL-only, no checkpoint) --\n")
	fmt.Fprintf(cfg.Out, "%-12s %12s %16s\n", "wal records", "recovery", "replay rate")
	for _, n := range []int{cfg.rows(100_000), cfg.rows(500_000), cfg.rows(2_000_000)} {
		p, err := measureRecovery(cfg, root, n)
		if err != nil {
			return err
		}
		rep.Recovery = append(rep.Recovery, p)
		fmt.Fprintf(cfg.Out, "%-12d %10.1fms %14s/s\n",
			p.WALRecords, p.RecoveryMS, fmtKops(p.RecordsPerSec))
	}

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_durability.json")
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "[recorded %s]\n", path)
	}
	return nil
}

// measureDurableInserts opens a fresh durable DB under opts and drives
// batches of unique-key inserts through its batched executor from g
// goroutines for cfg.MeasureFor, returning aggregate inserts/second and
// the insert count.
func measureDurableInserts(cfg Config, root string, opts engine.DurableOptions, g int) (float64, int, error) {
	dir, err := os.MkdirTemp(root, "tp-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	d, err := engine.OpenDurableOptions(dir, hermit.PhysicalPointers, opts)
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()
	spec := workload.SyntheticSpec{}
	if _, err := d.CreateTable("syn", spec.Columns(), spec.PKCol()); err != nil {
		return 0, 0, err
	}

	// Small batches bound how far one client overruns the measurement
	// window when every insert waits out a group-commit interval.
	const batchSize = 64
	var mu sync.Mutex
	var firstErr error
	total := 0
	nextPK := 0.0
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if firstErr != nil || time.Since(start) >= cfg.MeasureFor {
					mu.Unlock()
					return
				}
				base := nextPK
				nextPK += batchSize
				mu.Unlock()
				ops := make([]engine.Op, batchSize)
				for i := range ops {
					pk := base + float64(i)
					c := float64(int(pk) % 1000)
					ops[i] = engine.Op{Table: "syn", Kind: engine.OpInsert,
						Row: []float64{pk, 2*c + 100, c, 0.5}}
				}
				// One worker per batch: the concurrency under test is the
				// g outer goroutines sharing the WAL appender.
				for _, r := range d.ExecuteBatch(ops, 1) {
					if r.Err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = r.Err
						}
						mu.Unlock()
						return
					}
				}
				mu.Lock()
				total += batchSize
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if firstErr != nil {
		return 0, 0, firstErr
	}
	return float64(total) / elapsed, total, nil
}

// measureRecovery writes an n-record WAL-only database (no checkpoint),
// closes it, and times OpenDurable — dominated by replaying the log.
func measureRecovery(cfg Config, root string, n int) (durabilityRecoveryPoint, error) {
	dir, err := os.MkdirTemp(root, "rec-*")
	if err != nil {
		return durabilityRecoveryPoint{}, err
	}
	defer os.RemoveAll(dir)
	d, err := engine.OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		return durabilityRecoveryPoint{}, err
	}
	spec := workload.SyntheticSpec{}
	if _, err := d.CreateTable("syn", spec.Columns(), spec.PKCol()); err != nil {
		d.Close()
		return durabilityRecoveryPoint{}, err
	}
	for i := 0; i < n; i++ {
		c := float64(i % 1000)
		if _, err := d.Insert("syn", []float64{float64(i), 2*c + 100, c, 0.5}); err != nil {
			d.Close()
			return durabilityRecoveryPoint{}, err
		}
	}
	if err := d.Close(); err != nil {
		return durabilityRecoveryPoint{}, err
	}

	start := time.Now()
	d2, err := engine.OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		return durabilityRecoveryPoint{}, err
	}
	elapsed := time.Since(start)
	defer d2.Close()
	tb, err := d2.Table("syn")
	if err != nil {
		return durabilityRecoveryPoint{}, err
	}
	if tb.Len() != n {
		return durabilityRecoveryPoint{}, fmt.Errorf("recovery lost rows: %d of %d", tb.Len(), n)
	}
	secs := elapsed.Seconds()
	var rate float64
	if secs > 0 {
		// +1 for the CreateTable record; close enough for a rate.
		rate = float64(n+1) / secs
	}
	return durabilityRecoveryPoint{
		WALRecords:    n + 1,
		RecoveryMS:    float64(elapsed.Microseconds()) / 1000,
		RecordsPerSec: rate,
	}, nil
}
