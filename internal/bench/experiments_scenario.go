package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/scenario"
	"hermit/internal/server"
)

// The scenarios experiment replays every canned scenario spec through
// the trace-driven harness and reports SLO-style tail latency per phase.
// Each spec compiles to a deterministic seeded op trace; the artifact
// records the trace hash alongside an independent recompile's hash, so
// benchcheck can prove the op stream reproduces — the latency numbers
// track the container, the hashes must not.

// scenarioCaveat is recorded verbatim in the JSON artifact.
const scenarioCaveat = "scenario replays share one CI container: absolute " +
	"ops/sec and latency quantiles track the machine; the durable signals " +
	"are the per-phase shape (tail vs median, abort counts under contention) " +
	"and the trace hashes, which must be identical across runs and targets " +
	"for the same spec, seed, and scale"

// scenarioClusterFollowers is the follower count behind the
// replica-fanout scenario's cluster target.
const scenarioClusterFollowers = 2

// scenarioPhase is one phase row of a scenario's result.
type scenarioPhase struct {
	Name       string  `json:"name"`
	OpenLoop   bool    `json:"open_loop"`
	Ops        int     `json:"ops"`
	Rows       int64   `json:"rows"`
	Aborts     int     `json:"aborts"`
	Errors     int     `json:"errors"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	P999Micros float64 `json:"p999_us"`
}

// scenarioResult is one canned scenario's replay.
type scenarioResult struct {
	Name     string `json:"name"`
	Target   string `json:"target"`
	SpecHash string `json:"spec_hash"`
	// TraceHash is reported by the replayer from the ops it walked;
	// TraceHashRecheck comes from an independent recompile of the spec.
	// benchcheck requires them equal — the determinism proof.
	TraceHash        string `json:"trace_hash"`
	TraceHashRecheck string `json:"trace_hash_recheck"`
	Ops              int    `json:"ops"`
	// Allocator pressure over the whole replay (runtime.ReadMemStats
	// deltas): heap objects allocated and summed stop-the-world GC pause.
	// Process-wide, so meaningful for in-process targets and indicative
	// (client side only) for wire targets.
	Mallocs       uint64          `json:"mallocs"`
	GCPauseMicros float64         `json:"gc_pause_us"`
	Phases        []scenarioPhase `json:"phases"`
}

// scenarioReport is the schema of BENCH_scenarios.json.
type scenarioReport struct {
	Experiment string           `json:"experiment"`
	Scale      float64          `json:"scale"`
	Seed       int64            `json:"seed"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Caveat     string           `json:"caveat"`
	Scenarios  []scenarioResult `json:"scenarios"`
}

// RunScenarios drives every canned scenario.
func RunScenarios(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "scenarios", "Trace-driven scenarios: per-phase SLO quantiles")
	fmt.Fprintf(cfg.Out, "scale=%g gomaxprocs=%d cpus=%d scenarios=%v\n",
		cfg.Scale, runtime.GOMAXPROCS(0), runtime.NumCPU(), scenario.CannedNames())
	fmt.Fprintf(cfg.Out, "note: %s\n", scenarioCaveat)

	rep := scenarioReport{
		Experiment: "scenarios",
		Scale:      cfg.Scale,
		Seed:       cfg.Seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Caveat:     scenarioCaveat,
	}

	for _, name := range scenario.CannedNames() {
		spec, err := scenario.Canned(name)
		if err != nil {
			return err
		}
		sr, err := runOneScenario(cfg, spec)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
		rep.Scenarios = append(rep.Scenarios, sr)
		fmt.Fprintf(cfg.Out, "\n%s (target=%s, spec=%s, trace=%s)\n",
			sr.Name, sr.Target, sr.SpecHash, sr.TraceHash)
		fmt.Fprintf(cfg.Out, "  allocator: %d mallocs, %.1fus GC pause total\n",
			sr.Mallocs, sr.GCPauseMicros)
		fmt.Fprintf(cfg.Out, "  %-12s %-6s %8s %14s %9s %9s %9s %7s\n",
			"phase", "loop", "ops", "throughput", "p50", "p99", "p999", "aborts")
		for _, ph := range sr.Phases {
			loop := "closed"
			if ph.OpenLoop {
				loop = "open"
			}
			fmt.Fprintf(cfg.Out, "  %-12s %-6s %8d %14s %8.1fus %8.1fus %8.1fus %7d\n",
				ph.Name, loop, ph.Ops, fmtKops(ph.OpsPerSec),
				ph.P50Micros, ph.P99Micros, ph.P999Micros, ph.Aborts)
		}
	}

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_scenarios.json")
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "\n[recorded %s]\n", path)
	}
	return nil
}

// RunScenarioSpec compiles and replays one spec (canned or caller-built,
// e.g. hermit-bench -scenario file.json) and prints its phase table
// through the scenarios formatting. addr optionally overrides the wire
// target's endpoint.
func RunScenarioSpec(cfg Config, spec *scenario.Spec, addr string) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "scenario", spec.Name+": "+spec.Description)
	if addr != "" && spec.Target != scenario.TargetWire {
		return fmt.Errorf("scenario %s: -addr only applies to wire-target specs (target is %q)",
			spec.Name, spec.Target)
	}
	var sr scenarioResult
	var err error
	if addr != "" {
		sr, err = replayScenario(cfg, spec, scenario.TargetWire, scenario.TargetOptions{Addr: addr})
	} else {
		sr, err = runOneScenario(cfg, spec)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "%s (target=%s, spec=%s, trace=%s)\n",
		sr.Name, sr.Target, sr.SpecHash, sr.TraceHash)
	fmt.Fprintf(cfg.Out, "  %-12s %-6s %8s %14s %9s %9s %9s %7s\n",
		"phase", "loop", "ops", "throughput", "p50", "p99", "p999", "aborts")
	for _, ph := range sr.Phases {
		loop := "closed"
		if ph.OpenLoop {
			loop = "open"
		}
		fmt.Fprintf(cfg.Out, "  %-12s %-6s %8d %14s %8.1fus %8.1fus %8.1fus %7d\n",
			ph.Name, loop, ph.Ops, fmtKops(ph.OpsPerSec),
			ph.P50Micros, ph.P99Micros, ph.P999Micros, ph.Aborts)
	}
	return nil
}

// runOneScenario provisions the spec's declared target kind — embedded,
// durable under a temp dir, a self-hosted hermitd for wire specs, or a
// leader-plus-followers cluster for cluster specs — and replays.
func runOneScenario(cfg Config, spec *scenario.Spec) (scenarioResult, error) {
	kind := spec.Target
	if kind == "" {
		kind = scenario.TargetEmbed
	}
	switch kind {
	case scenario.TargetEmbed:
		return replayScenario(cfg, spec, kind, scenario.TargetOptions{})

	case scenario.TargetDurable:
		dir, err := os.MkdirTemp(cfg.TmpDir, "hermit-scenario")
		if err != nil {
			return scenarioResult{}, err
		}
		defer os.RemoveAll(dir)
		return replayScenario(cfg, spec, kind, scenario.TargetOptions{Dir: dir})

	case scenario.TargetWire:
		dir, err := os.MkdirTemp(cfg.TmpDir, "hermit-scenario")
		if err != nil {
			return scenarioResult{}, err
		}
		defer os.RemoveAll(dir)
		d, err := engine.OpenDurable(dir, hermit.PhysicalPointers)
		if err != nil {
			return scenarioResult{}, err
		}
		defer d.Close()
		srv := server.New(d, server.Options{MaxInflight: 4096, QueueDepth: 256, Workers: maxGoroutines})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return scenarioResult{}, err
		}
		defer srv.Close()
		return replayScenario(cfg, spec, kind, scenario.TargetOptions{Addr: srv.Addr().String()})

	case scenario.TargetCluster:
		dir, err := os.MkdirTemp(cfg.TmpDir, "hermit-scenario")
		if err != nil {
			return scenarioResult{}, err
		}
		defer os.RemoveAll(dir)
		c, err := startReplCluster(cfg, dir, scenarioClusterFollowers)
		if err != nil {
			return scenarioResult{}, err
		}
		defer c.close()
		return replayScenario(cfg, spec, kind, scenario.TargetOptions{
			LeaderAddr:     c.lsrv.Addr().String(),
			FollowerAddrs:  c.followerAddrs(scenarioClusterFollowers),
			ReadYourWrites: true,
		})

	default:
		return scenarioResult{}, fmt.Errorf("unknown target kind %q", kind)
	}
}

// replayScenario compiles, replays, recompiles for the hash recheck, and
// folds latencies into the shared quantile helper.
func replayScenario(cfg Config, spec *scenario.Spec, kind string, opts scenario.TargetOptions) (scenarioResult, error) {
	tr, err := scenario.Compile(spec, cfg.Scale)
	if err != nil {
		return scenarioResult{}, err
	}
	tg, err := scenario.NewTarget(kind, opts)
	if err != nil {
		return scenarioResult{}, err
	}
	defer tg.Close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := scenario.Replay(tr, tg)
	if err != nil {
		return scenarioResult{}, err
	}
	runtime.ReadMemStats(&m1)
	recheck, err := scenario.Compile(spec, cfg.Scale)
	if err != nil {
		return scenarioResult{}, err
	}
	sr := scenarioResult{
		Name:             spec.Name,
		Target:           kind,
		SpecHash:         res.SpecHash,
		TraceHash:        res.TraceHash,
		TraceHashRecheck: recheck.TraceHash,
		Ops:              tr.Ops(),
		Mallocs:          m1.Mallocs - m0.Mallocs,
		GCPauseMicros:    float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e3,
	}
	for i := range res.Phases {
		ph := &res.Phases[i]
		row := scenarioPhase{
			Name:      ph.Name,
			OpenLoop:  ph.OpenLoop,
			Ops:       ph.Ops,
			Rows:      ph.Rows,
			Aborts:    ph.Aborts,
			Errors:    ph.Errors,
			OpsPerSec: ph.OpsPerSec(),
		}
		row.P50Micros, row.P99Micros, row.P999Micros = quantiles(ph.LatenciesUS)
		sr.Phases = append(sr.Phases, row)
	}
	return sr, nil
}
