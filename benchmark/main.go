// Command benchmark is the repository's benchmark: four workloads made
// from a seed, three end-to-end metrics measured with tracing off, and a
// traced pass that reports the timings and attributes them to layers. See README.md in this
// directory; BENCHMARK.json at the repository root is the driver's view
// of the same contract.
//
//	go run ./benchmark -workload hermit-read -seed 1         one run, JSON on the last line
//	go run ./benchmark                                       every workload, then the traced pass
//	go run ./benchmark -selfcheck 5                          two sets of 5 runs, compared
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload in this process (default: all, one process each)")
		seed      = flag.Uint64("seed", 1, "input seed (2 is the held-out seed)")
		seconds   = flag.Float64("seconds", runSeconds, "measured window the fixed round count is scaled to, in seconds")
		scale     = flag.Float64("scale", 1, "row-count multiplier (0.01 for a smoke run)")
		trace     = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics; -1 with no -workload: both passes")
		selfcheck = flag.Int("selfcheck", 0, "run two alternating sets of N full runs per workload and compare their medians")
		jsonOnly  = flag.Bool("json", false, "print only result lines (one JSON object per run)")
		outDir    = flag.String("out", "benchmark/out", "directory for scratch databases and trace files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	switch {
	case *selfcheck > 0:
		os.Exit(runSelfcheck(*selfcheck, *seed, *seconds, *scale, *outDir))
	case *workload == "":
		os.Exit(runAll(*seed, *seconds, *scale, *trace, *jsonOnly, *outDir))
	}
	spec, ok := workloadSpecs[*workload]
	if !ok {
		fatalf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *scale <= 0 {
		fatalf("-seconds and -scale must be positive")
	}
	o := runOpts{
		seed: *seed, seconds: *seconds, scale: *scale,
		trace: *trace == 1, outDir: *outDir,
		verbose: func(format string, args ...any) {
			if !*jsonOnly {
				fmt.Printf("# "+format+"\n", args...)
			}
		},
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	o.verbose("workload=%s seed=%d seconds=%g scale=%g trace=%v gomaxprocs=2 flush_policy=SyncNever",
		spec.Name, o.seed, o.seconds, o.scale, o.trace)
	run := runSingle
	if spec.Streams > 1 {
		run = runWire
	}
	out, err := run(spec, o)
	if err != nil {
		fatalf("%s: %v", spec.Name, err)
	}
	o.verbose("trace_hash=%s", out.hash)
	for _, ex := range out.examples {
		o.verbose("FAILED %s", ex)
	}
	line, err := out.resultLine(o.trace)
	if err != nil {
		fatalf("%s: %v", spec.Name, err)
	}
	if !*jsonOnly {
		printMetrics(os.Stdout, spec.Name, line)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(enc))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// resultLine turns a run's outcome into the driver's result object: every
// end-to-end metric untraced, every per-layer metric traced.
func (out *outcome) resultLine(traced bool) (resultLine, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			return line, fmt.Errorf("metric %s is %v", d.Name, v)
		case !traced && (!ok || v <= 0):
			return line, fmt.Errorf("end-to-end metric %s missing or not positive (%v)", d.Name, v)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit} // a layer the workload bypasses reads 0
	}
	for name := range out.metrics {
		if _, ok := line.Metrics[name]; !ok {
			return line, fmt.Errorf("metric %s is not declared in spec.go", name)
		}
	}
	return line, nil
}

func printMetrics(w *os.File, workload string, line resultLine) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := line.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "%-14s %-28s %16.4f %s\n", workload, d.Name, v.Value, v.Unit)
			}
		}
	}
}

// child runs one workload in its own process (this binary again) and
// returns its result line and trace hash.
func child(workload string, seed uint64, seconds, scale float64, trace int, outDir string, echo bool) (resultLine, string, error) {
	self, err := os.Executable()
	if err != nil {
		return resultLine{}, "", err
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-scale", fmt.Sprint(scale), "-trace", fmt.Sprint(trace), "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return resultLine{}, "", fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, "", fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	hash := ""
	for _, l := range lines[:len(lines)-1] {
		if h, ok := strings.CutPrefix(l, "# trace_hash="); ok {
			hash = h
		}
		if echo {
			fmt.Println(l)
		}
	}
	return line, hash, nil
}

// runAll is the one command: every workload as its own process with
// tracing off, every metric printed by name with its unit, then the
// traced pass. It exits non-zero if any op failed or the hermit-read and
// btree-read traces differ.
func runAll(seed uint64, seconds, scale float64, trace int, jsonOnly bool, outDir string) int {
	bad := false
	hashes := map[string]string{}
	for _, pass := range []int{0, 1} {
		if trace >= 0 && trace != pass {
			continue
		}
		for _, w := range workloadNames() {
			line, hash, err := child(w, seed, seconds, scale, pass, outDir, !jsonOnly)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			hashes[w] = hash
			if jsonOnly {
				enc, _ := json.Marshal(struct {
					Workload string `json:"workload"`
					Trace    int    `json:"trace"`
					resultLine
				}{w, pass, line})
				fmt.Println(string(enc))
			}
			if !line.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d ops failed\n", w, line.Failed, line.Attempted)
				bad = true
			}
		}
		if hashes["hermit-read"] != hashes["btree-read"] {
			fmt.Fprintf(os.Stderr, "benchmark: hermit-read and btree-read ran different traces (%s vs %s)\n",
				hashes["hermit-read"], hashes["btree-read"])
			bad = true
		}
	}
	if bad {
		return 1
	}
	return 0
}
