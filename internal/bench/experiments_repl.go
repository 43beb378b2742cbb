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
	"hermit/internal/repl"
	"hermit/internal/server"
	"hermit/internal/workload"
)

// The repl experiment measures the replication tier over loopback TCP:
// a leader with up to four tailing followers, swept two ways. First,
// read scaling — cluster clients spread point reads across 1/2/4
// follower endpoints, so aggregate read throughput should grow with the
// follower count while the leader stays write-only. Second, replication
// lag — a paced writer at increasing rates, with the follower's applied
// LSN sampled against the leader's last LSN, then the catch-up time
// after the writer stops. Results are printed and, when Config.JSONDir
// is set, recorded in BENCH_repl.json.

// replCaveat is recorded verbatim in the JSON artifact.
const replCaveat = "loopback TCP on a shared-CPU CI container: leader, " +
	"followers, and clients share cores, so absolute rates and lag track " +
	"the container. the signal is relative — read throughput should rise " +
	"with follower count, and steady-state lag should stay bounded until " +
	"the write rate saturates the apply path"

// replLagSampleEvery is how often the lag sweep samples the
// leader-to-follower LSN gap while the paced writer runs.
const replLagSampleEvery = 2 * time.Millisecond

// replReadPoint is one follower-count cell of the read-scaling sweep.
type replReadPoint struct {
	Followers  int     `json:"followers"`
	Clients    int     `json:"clients"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	P999Micros float64 `json:"p999_us"`
}

// replLagPoint is one write-rate cell of the lag sweep.
type replLagPoint struct {
	TargetWPS   int     `json:"target_writes_per_sec"`
	ObservedWPS float64 `json:"observed_writes_per_sec"`
	MeanLagLSN  float64 `json:"mean_lag_lsn"`
	MaxLagLSN   uint64  `json:"max_lag_lsn"`
	CatchupMS   float64 `json:"catchup_ms"`
}

// replReport is the schema of BENCH_repl.json.
type replReport struct {
	Experiment   string          `json:"experiment"`
	Rows         int             `json:"rows"`
	Scale        float64         `json:"scale"`
	Seed         int64           `json:"seed"`
	NumCPU       int             `json:"num_cpu"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	MeasureForMS int64           `json:"measure_for_ms"`
	Caveat       string          `json:"caveat"`
	ReadSweep    []replReadPoint `json:"read_sweep"`
	LagSweep     []replLagPoint  `json:"lag_sweep"`
}

// replCluster is a leader server plus followers, each with its own
// serving endpoint, for the duration of the experiment.
type replCluster struct {
	ld        *engine.DB
	leader    *repl.Leader
	lsrv      *server.Server
	followers []*repl.Follower
	fsrvs     []*server.Server
}

func (c *replCluster) close() {
	for _, f := range c.followers {
		f.Close()
	}
	for _, s := range c.fsrvs {
		s.Close()
	}
	if c.lsrv != nil {
		c.lsrv.Close()
	}
	if c.ld != nil {
		c.ld.Close()
	}
}

func (c *replCluster) followerAddrs(n int) []string {
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addrs[i] = c.fsrvs[i].Addr().String()
	}
	return addrs
}

// waitCaughtUp blocks until every follower has applied the leader's
// current last LSN.
func (c *replCluster) waitCaughtUp(timeout time.Duration) error {
	last := c.ld.LastLSN()
	for _, f := range c.followers {
		if err := f.WaitFor(last, timeout); err != nil {
			return err
		}
	}
	return nil
}

// startReplCluster brings up a leader serving dir plus nFollowers
// tailing followers, each under its own temp dir and wire endpoint.
func startReplCluster(cfg Config, dir string, nFollowers int) (*replCluster, error) {
	c := &replCluster{}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	var err error
	c.ld, err = engine.OpenDurable(filepath.Join(dir, "leader"), hermit.PhysicalPointers)
	if err != nil {
		return nil, err
	}
	c.leader, err = repl.NewLeader(c.ld, repl.LeaderOptions{})
	if err != nil {
		return nil, err
	}
	c.lsrv = server.New(c.ld, server.Options{
		Leader: c.leader, MaxInflight: 4096, QueueDepth: 256, Workers: maxGoroutines,
	})
	if err := c.lsrv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for i := 0; i < nFollowers; i++ {
		f, err := repl.OpenFollower(repl.FollowerOptions{
			Dir:            filepath.Join(dir, fmt.Sprintf("follower%d", i)),
			ID:             fmt.Sprintf("f%d", i),
			LeaderAddr:     c.lsrv.Addr().String(),
			Scheme:         hermit.PhysicalPointers,
			ReconnectDelay: 10 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		c.followers = append(c.followers, f)
		fsrv := server.New(f.DB(), server.Options{Follower: f})
		if err := fsrv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		c.fsrvs = append(c.fsrvs, fsrv)
		f.Start()
	}
	ok = true
	return c, nil
}

// RunRepl drives the replication experiment.
func RunRepl(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "repl", "Replication: follower read scaling; lag vs write rate")
	n := cfg.rows(500_000)
	fmt.Fprintf(cfg.Out, "rows=%d gomaxprocs=%d cpus=%d\n",
		n, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(cfg.Out, "note: %s\n", replCaveat)

	dir, err := os.MkdirTemp(cfg.TmpDir, "hermit-bench-repl")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	const maxFollowers = 4
	c, err := startReplCluster(cfg, dir, maxFollowers)
	if err != nil {
		return err
	}
	defer c.close()

	// Preload through the leader; the followers mirror every row before
	// the read sweep starts, so all endpoints serve the same data.
	spec := workload.SyntheticSpec{Rows: n, Fn: workload.Linear, Noise: 0.01, Seed: cfg.Seed}
	tb, err := c.ld.CreateTable("syn", spec.Columns(), spec.PKCol())
	if err != nil {
		return err
	}
	if err := spec.Generate(func(row []float64) error {
		_, err := tb.Insert(row)
		return err
	}); err != nil {
		return err
	}
	if err := c.waitCaughtUp(60 * time.Second); err != nil {
		return err
	}

	rep := replReport{
		Experiment:   "repl",
		Rows:         n,
		Scale:        cfg.Scale,
		Seed:         cfg.Seed,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		MeasureForMS: cfg.MeasureFor.Milliseconds(),
		Caveat:       replCaveat,
	}

	// Read scaling: the same client pool, pointed at 1, 2, then 4
	// follower endpoints.
	fmt.Fprintf(cfg.Out, "%-10s %-8s %14s %10s %10s\n",
		"followers", "clients", "throughput", "p50", "p99")
	for _, nf := range []int{1, 2, 4} {
		p, err := measureReplReads(cfg, c, nf, n)
		if err != nil {
			return err
		}
		rep.ReadSweep = append(rep.ReadSweep, p)
		fmt.Fprintf(cfg.Out, "%-10d %-8d %14s %9.0fus %9.0fus\n",
			nf, p.Clients, fmtKops(p.OpsPerSec), p.P50Micros, p.P99Micros)
	}

	// Lag sweep: a paced writer against the leader, lag sampled on the
	// first follower, catch-up timed after the writer stops.
	fmt.Fprintf(cfg.Out, "%-12s %-12s %12s %12s %12s\n",
		"target-wps", "actual-wps", "mean-lag", "max-lag", "catchup")
	nextPK := float64(n)
	for _, rate := range []int{1_000, 5_000, 20_000} {
		p, err := measureReplLag(cfg, c, rate, &nextPK)
		if err != nil {
			return err
		}
		rep.LagSweep = append(rep.LagSweep, p)
		fmt.Fprintf(cfg.Out, "%-12d %-12.0f %10.1fL %10dL %10.1fms\n",
			rate, p.ObservedWPS, p.MeanLagLSN, p.MaxLagLSN, p.CatchupMS)
	}

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_repl.json")
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

// measureReplReads spreads maxGoroutines cluster clients over the
// first nf follower endpoints for cfg.MeasureFor of point reads.
func measureReplReads(cfg Config, c *replCluster, nf, rowsN int) (replReadPoint, error) {
	var (
		stop     = make(chan struct{})
		mu       sync.Mutex
		totalOps int
		lats     []float64
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
	addrs := c.followerAddrs(nf)
	start := time.Now()
	for w := 0; w < maxGoroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.DialCluster(c.lsrv.Addr().String(), addrs, client.ClusterOptions{})
			if err == nil {
				defer cl.Close()
				gen := workload.PointGen(0, float64(rowsN), cfg.Seed+int64(301+w))
				for !stopped() {
					t0 := time.Now()
					_, err = cl.Point("syn", 0, float64(int(gen())))
					if err != nil {
						break
					}
					mu.Lock()
					totalOps++
					lats = append(lats, float64(time.Since(t0).Microseconds()))
					mu.Unlock()
				}
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(cfg.MeasureFor)
	close(stop)
	wg.Wait()
	if firstErr != nil {
		return replReadPoint{}, firstErr
	}
	el := time.Since(start).Seconds()
	p := replReadPoint{
		Followers: nf,
		Clients:   maxGoroutines,
		OpsPerSec: float64(totalOps) / el,
	}
	p.P50Micros, p.P99Micros, p.P999Micros = quantiles(lats)
	return p, nil
}

// measureReplLag writes at the target rate for cfg.MeasureFor while
// sampling the leader-to-follower LSN gap, then times catch-up.
func measureReplLag(cfg Config, c *replCluster, rate int, nextPK *float64) (replLagPoint, error) {
	f := c.followers[0]
	var (
		sampleStop = make(chan struct{})
		sampleDone = make(chan struct{})
		sumLag     float64
		nSamples   int
		maxLag     uint64
	)
	go func() {
		defer close(sampleDone)
		tick := time.NewTicker(replLagSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-sampleStop:
				return
			case <-tick.C:
				last, applied := c.ld.LastLSN(), f.AppliedLSN()
				var lag uint64
				if last > applied {
					lag = last - applied
				}
				sumLag += float64(lag)
				nSamples++
				if lag > maxLag {
					maxLag = lag
				}
			}
		}
	}()

	interval := time.Second / time.Duration(rate)
	deadline := time.Now().Add(cfg.MeasureFor)
	next := time.Now()
	writes := 0
	start := time.Now()
	for time.Now().Before(deadline) {
		if _, err := c.ld.Insert("syn", []float64{*nextPK, 0, 0, 0}); err != nil {
			close(sampleStop)
			<-sampleDone
			return replLagPoint{}, err
		}
		*nextPK++
		writes++
		next = next.Add(interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	el := time.Since(start).Seconds()
	close(sampleStop)
	<-sampleDone

	t0 := time.Now()
	if err := c.waitCaughtUp(60 * time.Second); err != nil {
		return replLagPoint{}, err
	}
	p := replLagPoint{
		TargetWPS:   rate,
		ObservedWPS: float64(writes) / el,
		MaxLagLSN:   maxLag,
		CatchupMS:   float64(time.Since(t0).Microseconds()) / 1000,
	}
	if nSamples > 0 {
		p.MeanLagLSN = sumLag / float64(nSamples)
	}
	return p, nil
}
