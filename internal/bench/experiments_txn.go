package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/workload"
)

// The txn experiment measures what the MVCC layer costs and buys:
// snapshot-scan throughput while writer goroutines churn the table
// (readers never block on writers under MVCC), the write-write abort rate
// of optimistic transactions as contention grows, and the overhead of
// per-query snapshot registration against a reused snapshot handle.
// Results are printed and, when Config.JSONDir is set, recorded in
// BENCH_txn.json.

// txnCaveat is recorded verbatim in the JSON artifact.
const txnCaveat = "1-CPU CI container: scan-under-writes parallelism is " +
	"bounded by GOMAXPROCS, so the interesting signal is that scan " +
	"throughput degrades smoothly (never deadlocks or blocks) as writers " +
	"are added; abort rates depend only on key contention, not cores. " +
	"snapshot overhead compares per-query snapshot registration against " +
	"reusing one snapshot handle across queries — the closest measurable " +
	"stand-in for the pre-MVCC unregistered read path"

// txnScanPoint is one (writer goroutines) cell of the scan-under-writes
// sweep.
type txnScanPoint struct {
	Writers        int     `json:"writers"`
	ScanOpsPerSec  float64 `json:"scan_ops_per_sec"`
	WriteOpsPerSec float64 `json:"write_ops_per_sec"`
	// ScanRetention is scan throughput relative to the zero-writer run.
	ScanRetention float64 `json:"scan_retention_vs_idle"`
}

// txnAbortPoint is one (goroutines) cell of the conflict sweep.
type txnAbortPoint struct {
	Goroutines    int     `json:"goroutines"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	AbortsPerSec  float64 `json:"aborts_per_sec"`
	AbortPct      float64 `json:"abort_pct"`
}

// txnSnapshotOverhead compares the per-query snapshot path with a reused
// snapshot handle.
type txnSnapshotOverhead struct {
	PerQueryOpsPerSec float64 `json:"per_query_snapshot_ops_per_sec"`
	ReusedOpsPerSec   float64 `json:"reused_snapshot_ops_per_sec"`
	OverheadPct       float64 `json:"overhead_pct"`
}

// txnReport is the schema of BENCH_txn.json.
type txnReport struct {
	Experiment      string              `json:"experiment"`
	Rows            int                 `json:"rows"`
	Scale           float64             `json:"scale"`
	Seed            int64               `json:"seed"`
	NumCPU          int                 `json:"num_cpu"`
	GOMAXPROCS      int                 `json:"gomaxprocs"`
	MeasureForMS    int64               `json:"measure_for_ms"`
	HotKeys         int                 `json:"hot_keys"`
	Caveat          string              `json:"caveat"`
	ScanUnderWrites []txnScanPoint      `json:"scan_under_writes"`
	AbortRate       []txnAbortPoint     `json:"abort_rate"`
	Snapshot        txnSnapshotOverhead `json:"snapshot_overhead"`
}

// txnHotKeys is the size of the contended key set in the abort sweep:
// small enough that write-write conflicts actually occur at every
// goroutine count.
const txnHotKeys = 64

// buildTxnTable creates a Synthetic table with host and Hermit indexes,
// the same shape the other concurrency experiments use.
func buildTxnTable(cfg Config, rowsN int) (*engine.DB, *engine.Table, error) {
	spec := workload.SyntheticSpec{Rows: rowsN, Fn: workload.Linear, Noise: 0.01, Seed: cfg.Seed}
	db := engine.NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("syn", spec.Columns(), spec.PKCol())
	if err != nil {
		return nil, nil, err
	}
	if err := spec.Generate(func(row []float64) error {
		_, err := tb.Insert(row)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if _, err := tb.CreateBTreeIndex(spec.HostCol(), false); err != nil {
		return nil, nil, err
	}
	if _, err := tb.CreateHermitIndex(spec.TargetCol(), spec.HostCol()); err != nil {
		return nil, nil, err
	}
	return db, tb, nil
}

// RunTxn drives the txn experiment.
func RunTxn(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "txn", "MVCC transactions: scan-under-writes, abort rate, snapshot overhead")
	n := cfg.rows(2_000_000)
	fmt.Fprintf(cfg.Out, "rows=%d gomaxprocs=%d cpus=%d hot_keys=%d\n",
		n, runtime.GOMAXPROCS(0), runtime.NumCPU(), txnHotKeys)
	fmt.Fprintf(cfg.Out, "note: %s\n", txnCaveat)

	rep := txnReport{
		Experiment:   "txn",
		Rows:         n,
		Scale:        cfg.Scale,
		Seed:         cfg.Seed,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		MeasureForMS: cfg.MeasureFor.Milliseconds(),
		HotKeys:      txnHotKeys,
		Caveat:       txnCaveat,
	}

	// Sweep 1: snapshot-scan throughput while 0..C writers churn.
	fmt.Fprintf(cfg.Out, "-- snapshot scans under writers --\n")
	fmt.Fprintf(cfg.Out, "%-10s %16s %16s %16s\n", "writers", "scan-throughput", "write-throughput", "retention")
	db, tb, err := buildTxnTable(cfg, n)
	if err != nil {
		return err
	}
	var idle float64
	for _, w := range writerCounts() {
		scanOps, writeOps, err := measureScanUnderWrites(cfg, tb, w, n)
		if err != nil {
			return err
		}
		// Every cell scans the same live set: whatever the sweep's scans
		// pinned past its last commits goes here (a near no-op — the writers
		// reclaim as they commit).
		db.GC()
		if w == 0 {
			idle = scanOps
		}
		p := txnScanPoint{
			Writers:        w,
			ScanOpsPerSec:  scanOps,
			WriteOpsPerSec: writeOps,
			ScanRetention:  speedup(scanOps, idle),
		}
		rep.ScanUnderWrites = append(rep.ScanUnderWrites, p)
		fmt.Fprintf(cfg.Out, "%-10d %16s %16s %15.2fx\n",
			w, fmtKops(scanOps), fmtKops(writeOps), p.ScanRetention)
	}

	// Sweep 2: first-committer-wins abort rate over a hot key set.
	fmt.Fprintf(cfg.Out, "-- optimistic txn abort rate (hot set of %d keys) --\n", txnHotKeys)
	fmt.Fprintf(cfg.Out, "%-12s %14s %14s %10s\n", "goroutines", "commits", "aborts", "abort%")
	db2, tb2, err := buildTxnTable(cfg, txnHotKeys*4)
	if err != nil {
		return err
	}
	for _, g := range goroutineCounts() {
		p, err := measureAbortRate(cfg, db2, tb2, g)
		if err != nil {
			return err
		}
		rep.AbortRate = append(rep.AbortRate, p)
		fmt.Fprintf(cfg.Out, "%-12d %14s %14s %9.1f%%\n",
			g, fmtKops(p.CommitsPerSec), fmtKops(p.AbortsPerSec), p.AbortPct)
	}

	// Sweep 3: per-query snapshot registration overhead.
	so, err := measureSnapshotOverhead(cfg, tb)
	if err != nil {
		return err
	}
	rep.Snapshot = so
	fmt.Fprintf(cfg.Out, "-- snapshot registration overhead --\n")
	fmt.Fprintf(cfg.Out, "per-query snapshot: %s   reused snapshot: %s   overhead: %.1f%%\n",
		fmtKops(so.PerQueryOpsPerSec), fmtKops(so.ReusedOpsPerSec), so.OverheadPct)

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_txn.json")
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

// writerCounts returns the swept writer goroutine counts, always starting
// at zero (the idle-scan baseline).
func writerCounts() []int {
	out := []int{0}
	for _, g := range goroutineCounts() {
		if g != 0 {
			out = append(out, g)
		}
	}
	return out
}

// measureScanUnderWrites runs one scan goroutine against writers
// goroutines doing auto-commit updates, for cfg.MeasureFor; it returns
// (scan ops/sec, write ops/sec).
func measureScanUnderWrites(cfg Config, tb *engine.Table, writers, rowsN int) (float64, float64, error) {
	spec := workload.SyntheticSpec{}
	var (
		stop      atomic.Bool
		scanOps   atomic.Int64
		writeOps  atomic.Int64
		errMu     sync.Mutex
		firstErr  error
		wg        sync.WaitGroup
		recordErr = func(err error) {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
			stop.Store(true)
		}
	)
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := workload.QueryGen(0, workload.SyntheticSpan, 0.01, cfg.Seed+21)
		for !stop.Load() {
			q := gen()
			if _, _, err := tb.Exec(engine.Query{Col: spec.TargetCol(), Lo: q.Lo, Hi: q.Hi}, nil); err != nil {
				recordErr(err)
				return
			}
			scanOps.Add(1)
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := workload.PointGen(0, float64(rowsN), cfg.Seed+int64(31+w))
			for i := 0; !stop.Load(); i++ {
				pk := float64(int(gen()))
				// A changing value each round: every write creates a real
				// new version (same-value updates short-circuit).
				if err := tb.UpdateColumn(pk, 3, float64(i%97)); err != nil {
					recordErr(err)
					return
				}
				writeOps.Add(1)
			}
		}(w)
	}
	time.Sleep(cfg.MeasureFor)
	stop.Store(true)
	wg.Wait()
	if firstErr != nil {
		return 0, 0, firstErr
	}
	el := time.Since(start).Seconds()
	return float64(scanOps.Load()) / el, float64(writeOps.Load()) / el, nil
}

// measureAbortRate races g goroutines committing two-key transactions
// over the hot key set, counting commits and first-committer-wins aborts.
func measureAbortRate(cfg Config, db *engine.DB, tb *engine.Table, g int) (txnAbortPoint, error) {
	var (
		stop     atomic.Bool
		commits  atomic.Int64
		aborts   atomic.Int64
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := workload.PointGen(0, txnHotKeys, cfg.Seed+int64(51+w))
			for !stop.Load() {
				x := db.Begin()
				a := float64(int(gen()))
				b := float64(int(gen()))
				err := x.Update(tb, a, 3, a)
				if err == nil && b != a {
					err = x.Update(tb, b, 3, b+1)
				}
				if err == nil {
					_, err = x.Commit()
				} else {
					x.Rollback()
				}
				switch {
				case err == nil:
					commits.Add(1)
				case errors.Is(err, engine.ErrWriteConflict):
					aborts.Add(1)
				default:
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	time.Sleep(cfg.MeasureFor)
	stop.Store(true)
	wg.Wait()
	if firstErr != nil {
		return txnAbortPoint{}, firstErr
	}
	el := time.Since(start).Seconds()
	p := txnAbortPoint{
		Goroutines:    g,
		CommitsPerSec: float64(commits.Load()) / el,
		AbortsPerSec:  float64(aborts.Load()) / el,
	}
	if total := commits.Load() + aborts.Load(); total > 0 {
		p.AbortPct = float64(aborts.Load()) / float64(total) * 100
	}
	return p, nil
}

// measureSnapshotOverhead compares range-query throughput with a snapshot
// registered per query against a single reused snapshot handle.
func measureSnapshotOverhead(cfg Config, tb *engine.Table) (txnSnapshotOverhead, error) {
	spec := workload.SyntheticSpec{}
	run := func(query func(lo, hi float64) error) (float64, error) {
		gen := workload.QueryGen(0, workload.SyntheticSpan, 0.01, cfg.Seed+91)
		return timed(cfg, 0, func(int) error {
			q := gen()
			return query(q.Lo, q.Hi)
		})
	}
	// Warm-up: let the cost planner's per-path feedback converge before
	// either measurement, so the comparison isolates snapshot registration
	// rather than planner training order.
	perQueryRun := func(lo, hi float64) error {
		_, _, err := tb.Exec(engine.Query{Col: spec.TargetCol(), Lo: lo, Hi: hi}, nil)
		return err
	}
	if _, err := run(perQueryRun); err != nil {
		return txnSnapshotOverhead{}, err
	}
	perQuery, err := run(perQueryRun)
	if err != nil {
		return txnSnapshotOverhead{}, err
	}
	snap := tb.Snapshot()
	defer snap.Release()
	reused, err := run(func(lo, hi float64) error {
		_, _, err := tb.Exec(engine.Query{Col: spec.TargetCol(), Lo: lo, Hi: hi, Snap: snap}, nil)
		return err
	})
	if err != nil {
		return txnSnapshotOverhead{}, err
	}
	out := txnSnapshotOverhead{PerQueryOpsPerSec: perQuery, ReusedOpsPerSec: reused}
	if reused > 0 {
		out.OverheadPct = (reused - perQuery) / reused * 100
	}
	return out, nil
}
