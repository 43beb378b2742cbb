// Command hermit-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	hermit-bench -list
//	hermit-bench -exp fig4
//	hermit-bench -exp paper -scale 0.02 -measure 20ms
//	hermit-bench -exp all -scale 0.05
//	hermit-bench -exp fig16,fig17,fig18 -scale 0.1 -measure 1s
//	hermit-bench -exp durability -measure 500ms
//	hermit-bench -scenario timeseries
//	hermit-bench -scenario my-workload.json -scale 0.1
//	hermit-bench -scenario zipf-oltp -addr 127.0.0.1:7707
//
// -exp paper draws every figure of the paper (Figs. 4–30, Table 1 and the
// ablations) from one grid of trials, loading each dataset once, and
// records BENCH_paper.json: one row per printed cell. -exp all runs it once
// rather than each figure again.
//
// -scenario replays one trace-driven scenario (a canned name or a JSON
// spec file; see internal/scenario) and prints per-phase p50/p99/p999.
// -exp scenarios replays every canned scenario and records
// BENCH_scenarios.json. -addr points a wire-target spec at a running
// hermitd instead of a self-hosted one.
//
// -scale 1.0 restores the paper's dataset sizes (20M-row synthetic sweeps);
// the default 0.02 completes the full suite on a laptop in minutes. Shapes
// (who wins, by what factor, where crossovers fall) are preserved across
// scales; absolute numbers are machine-dependent.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hermit/internal/bench"
	"hermit/internal/scenario"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id(s), comma separated, or 'all'")
		list       = flag.Bool("list", false, "list available experiments")
		scale      = flag.Float64("scale", 0.02, "dataset scale factor (1.0 = paper size)")
		measure    = flag.Duration("measure", 300*time.Millisecond, "measurement time per plotted point")
		seed       = flag.Int64("seed", 1, "workload generation seed")
		jsonDir    = flag.String("json", ".", "directory for machine-readable BENCH_*.json results ('' disables)")
		scen       = flag.String("scenario", "", "replay one scenario: a canned name or a JSON spec file")
		addr       = flag.String("addr", "", "with -scenario: address of a running hermitd for wire-target specs")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile (pb.gz) covering the run to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile (pb.gz) at exit to this file")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProfiles()

	if *scen != "" {
		cfg := bench.DefaultConfig(os.Stdout)
		cfg.Scale = *scale
		cfg.MeasureFor = *measure
		cfg.Seed = *seed
		cfg.JSONDir = *jsonDir
		spec, err := loadScenario(*scen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		var runErr error
		pprof.Do(context.Background(), pprof.Labels("scenario", spec.Name), func(context.Context) {
			runErr = bench.RunScenarioSpec(cfg, spec, *addr)
		})
		if runErr != nil {
			stopProfiles()
			fmt.Fprintf(os.Stderr, "scenario %s failed: %v\n", spec.Name, runErr)
			os.Exit(1)
		}
		return
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range bench.Registry {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id>[,<id>...] or -exp all")
		}
		return
	}

	cfg := bench.DefaultConfig(os.Stdout)
	cfg.Scale = *scale
	cfg.MeasureFor = *measure
	cfg.Seed = *seed
	cfg.JSONDir = *jsonDir

	var ids []string
	if *exp == "all" {
		ids = bench.AllIDs()
	} else {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := bench.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		var runErr error
		pprof.Do(context.Background(), pprof.Labels("experiment", id), func(context.Context) {
			runErr = e.Run(cfg)
		})
		if runErr != nil {
			stopProfiles()
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, runErr)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %s]\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// startProfiles begins CPU profiling and arranges the allocation profile
// dump; the returned stop function (idempotent) finishes both. Profiles
// are the gzipped protobuf go tool pprof reads directly.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "create mem profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers; alloc totals are cumulative
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "write mem profile: %v\n", err)
			}
		}
	}, nil
}

// loadScenario resolves -scenario: a path to a JSON spec file when one
// exists (or the argument looks like one), else a canned scenario name.
func loadScenario(arg string) (*scenario.Spec, error) {
	if data, err := os.ReadFile(arg); err == nil {
		return scenario.Parse(data)
	} else if strings.ContainsAny(arg, "/.") {
		return nil, fmt.Errorf("read scenario spec %s: %w", arg, err)
	}
	return scenario.Canned(arg)
}
