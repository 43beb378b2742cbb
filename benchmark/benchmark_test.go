package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// benchmarkFile is the schema of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

// layerDef is a per-layer metric: no bound.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantBenchmarkFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	return f
}

// TestBenchmarkJSON lints BENCHMARK.json against the driver's limits and
// against spec.go, the list the program actually reports.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(wantBenchmarkFile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; run go test ./benchmark -run TestBenchmarkJSON -update")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("%d top-level keys, want exactly 6", len(keys))
	}

	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range f.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
		spec, ok := workloadSpecs[w.Name]
		if !ok {
			t.Errorf("workload %s has no spec", w.Name)
		}
		if want := fmt.Sprintf("%d measured rounds", spec.Rounds); !strings.Contains(w.Why, want) && w.Name != "btree-read" {
			t.Errorf("workload %s: why does not record its %q", w.Name, want)
		}
	}
	hasSetup := false
	for _, m := range f.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range f.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range f.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

func compiledHash(spec workloadSpec, seed uint64) string {
	streams := make([]*stream, spec.Streams)
	var ops []op
	for j := range streams {
		s := newStream(seed, j, spec.Streams, scaled(spec.Rows, 0.01)/spec.Streams, spec.Cold, spec.Mix, 0)
		s.hashRows()
		for r := 0; r < 2; r++ {
			ops = s.compile(ops)
			s.hashOps(ops)
		}
		streams[j] = s
	}
	return traceHash(streams)
}

// TestTraceDeterminism: a seed fixes the inputs, another seed changes
// them, and the Hermit workload and its B+-tree baseline get the same ones.
func TestTraceDeterminism(t *testing.T) {
	for name, spec := range workloadSpecs {
		a, b := compiledHash(spec, 1), compiledHash(spec, 1)
		if a != b {
			t.Errorf("%s: same seed, different traces", name)
		}
		if c := compiledHash(spec, 2); c == a {
			t.Errorf("%s: seeds 1 and 2 give the same trace", name)
		}
	}
	if h, b := compiledHash(workloadSpecs["hermit-read"], 1), compiledHash(workloadSpecs["btree-read"], 1); h != b {
		t.Errorf("hermit-read trace %s != btree-read trace %s", h, b)
	}
}

func (s *stream) liOf(pk int64) int { return int(pk / int64(s.of)) }

// TestOracleAgainstBruteForce replays compiled rounds on a plain slice of
// rows and counts every query's matches by scanning it.
func TestOracleAgainstBruteForce(t *testing.T) {
	mix := roundMix{Range: 40, Point: 40, PKRead: 10, ColdRead: 10, Insert: 30, Update: 20, Delete: 20}
	for id := 0; id < 2; id++ {
		s := newStream(7, id, 2, 3000, 0.25, mix, 0)
		cur := map[int64]float64{} // pk -> colC of live rows
		for li, k := range s.kCur {
			cur[s.pkOf(li)] = colC(k)
		}
		var ops []op
		for r := 0; r < 20; r++ {
			ops = s.compile(ops)
			for _, o := range ops {
				switch o.kind {
				case opRange, opPoint:
					var n int32
					for _, c := range cur {
						if c >= o.lo && c <= o.hi {
							n++
						}
					}
					if n != o.expect {
						t.Fatalf("stream %d round %d: query [%v,%v] expects %d, scan finds %d", id, r, o.lo, o.hi, o.expect, n)
					}
					if o.kind == opPoint && n < 1 {
						t.Fatalf("point query on %v matches nothing", o.lo)
					}
				case opPKRead, opColdRead:
					if c, ok := cur[o.pk]; !ok || c != colC(o.k) {
						t.Fatalf("key read pk %d expects colC %v, rows have %v (live %v)", o.pk, colC(o.k), c, ok)
					}
					if o.kind == opColdRead && s.liOf(o.pk) >= s.cold {
						t.Fatalf("cold read of warm key %d", o.pk)
					}
				case opInsert:
					if _, dup := cur[o.pk]; dup {
						t.Fatalf("insert of live key %d", o.pk)
					}
					cur[o.pk] = colC(o.k)
				case opUpdate:
					if old, ok := cur[o.pk]; !ok || old == colC(o.k) || s.liOf(o.pk) < s.cold {
						t.Fatalf("update of pk %d: live %v, old %v new %v", o.pk, ok, old, colC(o.k))
					}
					cur[o.pk] = colC(o.k)
				case opDelete:
					if _, ok := cur[o.pk]; !ok || s.liOf(o.pk) < s.cold {
						t.Fatalf("delete of dead or cold key %d", o.pk)
					}
					delete(cur, o.pk)
				}
				if o.kind >= opInsert && o.kind != opDelete && (o.k < writeMargin || o.k >= quanta-writeMargin) {
					t.Fatalf("written quantum %d outside the write margin", o.k)
				}
			}
			if len(cur) != s.live {
				t.Fatalf("round %d: %d live rows, oracle says %d", r, len(cur), s.live)
			}
		}
	}
}

func TestSchedule(t *testing.T) {
	mix := workloadSpecs["hermit-read"].Mix
	sched := schedule(mix)
	var n [numOpKinds]int
	for _, k := range sched {
		n[k]++
	}
	if len(sched) != mix.total() || n[opRange] != mix.Range || n[opPoint] != mix.Point || n[opInsert] != mix.Insert ||
		n[opUpdate] != mix.Update || n[opDelete] != mix.Delete {
		t.Fatalf("schedule counts %v do not match mix %+v", n, mix)
	}
	// Evenly spread: every sixth of the round holds a sixth of the ranges.
	for part := 0; part < 6; part++ {
		r := 0
		for _, k := range sched[part*len(sched)/6 : (part+1)*len(sched)/6] {
			if k == opRange {
				r++
			}
		}
		if math.Abs(float64(r)-float64(mix.Range)/6) > 2 {
			t.Errorf("part %d holds %d range queries, want about %d", part, r, mix.Range/6)
		}
	}
}

func TestQuantiles(t *testing.T) {
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	if got := quantile([]uint32{10, 20, 30}, 0.99); math.Abs(got-29.8) > 1e-9 {
		t.Errorf("p99 of 10,20,30 = %v", got)
	}
	if got := median([]float64{}); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	vals := []float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37}
	if got, want := iqrShare(vals), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

// TestCompareSets: the selfcheck's gap does not depend on which set is the
// worse one.
func TestCompareSets(t *testing.T) {
	a, b := []float64{10, 11, 12, 13, 14}, []float64{15, 16, 18, 20, 21}
	_, _, gapAB, spreadAB := compareSets(a, b)
	_, _, gapBA, spreadBA := compareSets(b, a)
	if gapAB != gapBA || math.Abs(gapAB-0.5) > 1e-12 {
		t.Errorf("gap = %v and %v, want 0.5 both ways", gapAB, gapBA)
	}
	if spreadAB != spreadBA || spreadAB != max(iqrShare(a), iqrShare(b)) {
		t.Errorf("spread = %v and %v", spreadAB, spreadBA)
	}
}

// TestSmoke runs every workload, untraced and traced, at 1 % of its size.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	dir := t.TempDir()
	for _, w := range workloadDefs {
		spec := workloadSpecs[w.Name]
		for _, traced := range []bool{false, true} {
			o := runOpts{seed: 1, seconds: 0.25, scale: 0.01, trace: traced, outDir: dir,
				verbose: func(string, ...any) {}}
			run := runSingle
			if spec.Streams > 1 {
				run = runWire
			}
			out, err := run(spec, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", w.Name, traced, out.failed, out.attempted, out.examples)
			}
			if _, err := out.resultLine(traced); err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
			}
			if traced {
				if _, err := os.Stat(dir + "/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.IsDir() || !regexp.MustCompile(`^trace-.*\.json$`).MatchString(e.Name()) {
			t.Errorf("run left %s behind", e.Name())
		}
	}
}
