package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hermit/internal/client"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/server"
	"hermit/internal/workload"
)

// The server experiment measures the serving tier end to end over
// loopback TCP: an embedded hermitd Server fronting a durable DB, swept
// over concurrent client counts, submission mode (one request per round
// trip vs a pipelined burst the server coalesces into engine batches),
// and workload mix (pure point reads vs 90/10 point/update). Results are
// printed and, when Config.JSONDir is set, recorded in BENCH_server.json.

// serverCaveat is recorded verbatim in the JSON artifact.
const serverCaveat = "loopback TCP on a shared-CPU CI container: absolute " +
	"rates track the container, not the protocol; the signal is relative — " +
	"pipelining amortizes per-request syscalls and lets the server coalesce " +
	"adjacent reads into batch executions, so pipelined throughput should " +
	"exceed one-shot at every client count. pipelined latency quantiles are " +
	"per-op amortized (flush latency / pipeline depth)"

// serverPipelineDepth is how many requests a pipelined client writes per
// burst before reading responses — deep enough for the server's read
// coalescing (maxCoalesce=64) to engage, shallow enough that latency
// amortization is realistic for an application batching its reads.
const serverPipelineDepth = 32

// serverSweepPoint is one (clients, mode, workload) cell of the sweep.
type serverSweepPoint struct {
	Clients    int     `json:"clients"`
	Mode       string  `json:"mode"`     // "oneshot" | "pipelined"
	Workload   string  `json:"workload"` // "point" | "mixed"
	OpsPerSec  float64 `json:"ops_per_sec"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	P999Micros float64 `json:"p999_us"`
}

// serverReport is the schema of BENCH_server.json.
type serverReport struct {
	Experiment    string             `json:"experiment"`
	Rows          int                `json:"rows"`
	Scale         float64            `json:"scale"`
	Seed          int64              `json:"seed"`
	NumCPU        int                `json:"num_cpu"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	MeasureForMS  int64              `json:"measure_for_ms"`
	PipelineDepth int                `json:"pipeline_depth"`
	Caveat        string             `json:"caveat"`
	Sweep         []serverSweepPoint `json:"sweep"`
	Coalesced     int64              `json:"coalesced_reads"`
	Requests      int64              `json:"requests"`
}

// RunServer drives the server experiment.
func RunServer(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "server", "Network serving tier: loopback throughput/latency vs clients")
	n := cfg.rows(1_000_000)
	fmt.Fprintf(cfg.Out, "rows=%d gomaxprocs=%d cpus=%d pipeline_depth=%d\n",
		n, runtime.GOMAXPROCS(0), runtime.NumCPU(), serverPipelineDepth)
	fmt.Fprintf(cfg.Out, "note: %s\n", serverCaveat)

	dir, err := os.MkdirTemp(cfg.TmpDir, "hermit-bench-server")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := engine.OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		return err
	}
	defer d.Close()
	spec := workload.SyntheticSpec{Rows: n, Fn: workload.Linear, Noise: 0.01, Seed: cfg.Seed}
	tb, err := d.CreateTable("syn", spec.Columns(), spec.PKCol())
	if err != nil {
		return err
	}
	if err := spec.Generate(func(row []float64) error {
		_, err := tb.Insert(row)
		return err
	}); err != nil {
		return err
	}

	// Admission limits sized so the sweep itself is never shed: shedding
	// behavior has its own integration test; here it would only distort
	// the throughput signal.
	srv := server.New(d, server.Options{
		MaxInflight: 4096,
		QueueDepth:  256,
		Workers:     maxGoroutines,
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer srv.Close()
	addr := srv.Addr().String()

	rep := serverReport{
		Experiment:    "server",
		Rows:          n,
		Scale:         cfg.Scale,
		Seed:          cfg.Seed,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		MeasureForMS:  cfg.MeasureFor.Milliseconds(),
		PipelineDepth: serverPipelineDepth,
		Caveat:        serverCaveat,
	}

	fmt.Fprintf(cfg.Out, "%-9s %-10s %-9s %14s %10s %10s\n",
		"clients", "mode", "workload", "throughput", "p50", "p99")
	for _, mode := range []string{"oneshot", "pipelined"} {
		for _, wl := range []string{"point", "mixed"} {
			for _, c := range goroutineCounts() {
				p, err := measureServing(cfg, addr, c, mode, wl, n)
				if err != nil {
					return err
				}
				rep.Sweep = append(rep.Sweep, p)
				fmt.Fprintf(cfg.Out, "%-9d %-10s %-9s %14s %9.0fus %9.0fus\n",
					c, mode, wl, fmtKops(p.OpsPerSec), p.P50Micros, p.P99Micros)
			}
		}
	}

	st := srv.Stats()
	rep.Coalesced = st.Coalesced
	rep.Requests = st.Requests
	fmt.Fprintf(cfg.Out, "server totals: %d requests, %d reads coalesced into batches\n",
		st.Requests, st.Coalesced)

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_server.json")
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

// measureServing runs clients goroutines, each with its own connection,
// against the server at addr for cfg.MeasureFor and returns the cell's
// aggregate throughput and merged latency quantiles.
func measureServing(cfg Config, addr string, clients int, mode, wl string, rowsN int) (serverSweepPoint, error) {
	var (
		stop     = make(chan struct{})
		mu       sync.Mutex
		totalOps int
		lats     []float64 // microseconds, per op (amortized when pipelined)
		firstErr error
		wg       sync.WaitGroup
	)
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops, samples, err := driveClient(cfg, addr, mode, wl, rowsN, w, stopped)
			mu.Lock()
			totalOps += ops
			lats = append(lats, samples...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(w)
	}
	time.Sleep(cfg.MeasureFor)
	close(stop)
	wg.Wait()
	if firstErr != nil {
		return serverSweepPoint{}, firstErr
	}
	el := time.Since(start).Seconds()
	p := serverSweepPoint{
		Clients:   clients,
		Mode:      mode,
		Workload:  wl,
		OpsPerSec: float64(totalOps) / el,
	}
	p.P50Micros, p.P99Micros, p.P999Micros = quantiles(lats)
	return p, nil
}

// driveClient is one client goroutine's measured loop. The mixed
// workload issues one update per nine point reads (90/10).
func driveClient(cfg Config, addr, mode, wl string, rowsN, w int, stopped func() bool) (int, []float64, error) {
	conn, err := client.Dial(addr, client.Options{})
	if err != nil {
		return 0, nil, err
	}
	defer conn.Close()
	gen := workload.PointGen(0, float64(rowsN), cfg.Seed+int64(101+w))
	pk := func() float64 { return float64(int(gen())) }
	ops := 0
	var lats []float64
	val := 0.0
	switch mode {
	case "oneshot":
		for i := 0; !stopped(); i++ {
			t0 := time.Now()
			if wl == "mixed" && i%10 == 9 {
				val++
				err = conn.Update("syn", pk(), 3, val)
			} else {
				_, err = conn.Point("syn", 0, pk())
			}
			if err != nil {
				return 0, nil, err
			}
			ops++
			lats = append(lats, float64(time.Since(t0).Microseconds()))
		}
	case "pipelined":
		for i := 0; !stopped(); i++ {
			p := conn.Pipeline()
			for j := 0; j < serverPipelineDepth; j++ {
				if wl == "mixed" && j%10 == 9 {
					val++
					p.Update("syn", pk(), 3, val)
				} else {
					p.Point("syn", 0, pk())
				}
			}
			t0 := time.Now()
			results, err := p.Flush()
			if err != nil {
				return 0, nil, err
			}
			for _, r := range results {
				if r.Err != nil {
					return 0, nil, r.Err
				}
			}
			ops += serverPipelineDepth
			lats = append(lats, float64(time.Since(t0).Microseconds())/serverPipelineDepth)
		}
	default:
		return 0, nil, fmt.Errorf("bench: unknown mode %q", mode)
	}
	return ops, lats, nil
}
