// Command benchcheck validates the machine-readable BENCH_*.json
// artifacts the bench suite emits: every artifact must parse as JSON and
// record the experiment id, the generation seed, and the CPU topology
// (num_cpu, gomaxprocs) the numbers were measured under — without those
// a stored artifact cannot be compared against a later run. CI runs it
// after `make bench-all` via `make bench-check`.
//
// BENCH_hotpath.json must carry every tracked workload at GOMAXPROCS 1 and
// at the recording machine's num_cpu; BENCH_durability.json every sync
// policy at 1, 8 and 64 writers, with group commit's point — more writers,
// more records per fsync — visible in it; BENCH_compaction.json both
// cold-read classes, with the open blocks holding at most 2 bytes per
// flushed row (an index and a bloom, not the rows).
//
// BENCH_scenarios.json gets deeper validation: at least four scenarios,
// each with a spec hash, matching trace_hash and trace_hash_recheck (the
// compile-determinism proof), and per-phase quantiles present and
// ordered p50 <= p99 <= p999.
//
// Usage:
//
//	go run ./internal/tools/benchcheck [-dir .]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// artifact is the header every BENCH_*.json report shares; experiment
// files carry more fields, which benchcheck deliberately ignores.
type artifact struct {
	Experiment string          `json:"experiment"`
	Seed       *int64          `json:"seed"`
	NumCPU     int             `json:"num_cpu"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Caveat     string          `json:"caveat"`
	Raw        json.RawMessage `json:"-"`
}

func main() {
	dir := flag.String("dir", ".", "directory holding BENCH_*.json artifacts")
	flag.Parse()

	paths, err := filepath.Glob(filepath.Join(*dir, "BENCH_*.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	if len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: no BENCH_*.json artifacts in %s\n", *dir)
		os.Exit(1)
	}
	sort.Strings(paths)

	bad := 0
	for _, path := range paths {
		if err := check(path); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", filepath.Base(path), err)
			bad++
			continue
		}
		fmt.Printf("benchcheck: %s ok\n", filepath.Base(path))
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %d of %d artifacts failed\n", bad, len(paths))
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %d artifacts ok\n", len(paths))
}

// check validates one artifact file.
func check(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var a artifact
	if err := json.Unmarshal(raw, &a); err != nil {
		return fmt.Errorf("not valid JSON: %v", err)
	}
	if a.Experiment == "" {
		return fmt.Errorf("missing \"experiment\"")
	}
	if a.Seed == nil {
		return fmt.Errorf("missing \"seed\"")
	}
	if a.NumCPU <= 0 {
		return fmt.Errorf("\"num_cpu\" is %d, want > 0", a.NumCPU)
	}
	if a.GOMAXPROCS <= 0 {
		return fmt.Errorf("\"gomaxprocs\" is %d, want > 0", a.GOMAXPROCS)
	}
	if a.Experiment == "scenarios" {
		return checkScenarios(raw)
	}
	if a.Experiment == "hotpath" {
		return checkHotpath(raw, a.NumCPU)
	}
	if a.Experiment == "durability" {
		return checkDurability(raw)
	}
	if a.Experiment == "compaction" {
		return checkCompaction(raw)
	}
	return nil
}

// hotpathArtifact is the slice of BENCH_hotpath.json benchcheck verifies
// beyond the shared header.
type hotpathArtifact struct {
	Lanes []struct {
		Workload    string   `json:"workload"`
		GOMAXPROCS  int      `json:"gomaxprocs"`
		Ops         int      `json:"ops"`
		NsPerOp     *float64 `json:"ns_per_op"`
		AllocsPerOp *float64 `json:"allocs_per_op"`
		OpsPerSec   *float64 `json:"ops_per_sec"`
		HeapPerRow  float64  `json:"heap_bytes_per_live_row"`
	} `json:"lanes"`
}

// hotpathLaneProcs are the GOMAXPROCS values every hotpath workload must
// record a lane for: one core, and every core of the machine that recorded
// the artifact (its num_cpu) — the same lane on a one-core machine.
func hotpathLaneProcs(numCPU int) []int { return []int{1, numCPU} }

// hotpathWorkloads are the operations the hotpath artifact must record: the
// read paths under the zero-alloc contract, the durable and wire paths
// (one-shot point read, and an insert sent in depth-64 pipelined bursts:
// the path whose cost is the session's flushes and the WAL's writes), and
// the write path and primary-index hop (mem_insert, mem_update, mem_delete,
// logical_range), whose ns/op is where a change to the primary index shows,
// and the write churn at constant live rows, which also records the heap it
// holds per live row.
var hotpathWorkloads = []string{
	"point_read", "range_scan", "partitioned_scan", "durable_insert", "wire_point",
	"wire_insert_pipelined", "mem_insert", "mem_update", "mem_delete", "logical_range", "churn",
}

// checkHotpath enforces the hotpath artifact's extra contract: every
// tracked workload is present and carries a complete measurement (ops,
// ns/op, allocs/op, throughput) at both GOMAXPROCS lanes, so allocation
// regressions on one core and on all of them are both checkable from the
// stored artifact.
func checkHotpath(raw []byte, numCPU int) error {
	var ha hotpathArtifact
	if err := json.Unmarshal(raw, &ha); err != nil {
		return fmt.Errorf("hotpath block: %v", err)
	}
	if len(ha.Lanes) == 0 {
		return fmt.Errorf("no lanes recorded")
	}
	procsSeen := map[string]map[int]bool{}
	for _, l := range ha.Lanes {
		if l.Workload == "" {
			return fmt.Errorf("lane with empty workload")
		}
		if l.GOMAXPROCS <= 0 {
			return fmt.Errorf("%s: lane \"gomaxprocs\" is %d, want > 0", l.Workload, l.GOMAXPROCS)
		}
		if l.Ops <= 0 {
			return fmt.Errorf("%s@%d: no ops recorded", l.Workload, l.GOMAXPROCS)
		}
		if l.NsPerOp == nil || *l.NsPerOp <= 0 {
			return fmt.Errorf("%s@%d: missing ns_per_op", l.Workload, l.GOMAXPROCS)
		}
		if l.AllocsPerOp == nil || *l.AllocsPerOp < 0 {
			return fmt.Errorf("%s@%d: missing allocs_per_op", l.Workload, l.GOMAXPROCS)
		}
		if l.OpsPerSec == nil || *l.OpsPerSec <= 0 {
			return fmt.Errorf("%s@%d: missing ops_per_sec", l.Workload, l.GOMAXPROCS)
		}
		if l.Workload == "churn" && l.HeapPerRow <= 0 {
			return fmt.Errorf("churn@%d: missing heap_bytes_per_live_row", l.GOMAXPROCS)
		}
		if procsSeen[l.Workload] == nil {
			procsSeen[l.Workload] = map[int]bool{}
		}
		procsSeen[l.Workload][l.GOMAXPROCS] = true
	}
	for _, w := range hotpathWorkloads {
		if procsSeen[w] == nil {
			return fmt.Errorf("%s: workload not recorded", w)
		}
	}
	for w, seen := range procsSeen {
		for _, p := range hotpathLaneProcs(numCPU) {
			if !seen[p] {
				return fmt.Errorf("%s: no GOMAXPROCS=%d lane (want lanes at 1 and num_cpu=%d)", w, p, numCPU)
			}
		}
	}
	return nil
}

// durabilityArtifact is the slice of BENCH_durability.json benchcheck
// verifies beyond the shared header.
type durabilityArtifact struct {
	Throughput []struct {
		Policy     string  `json:"policy"`
		Goroutines int     `json:"goroutines"`
		Ops        int     `json:"ops"`
		OpsPerSec  float64 `json:"ops_per_sec"`
	} `json:"insert_throughput"`
}

// checkDurability enforces the durability artifact's shape: every sync
// policy measured at 1, 8 and 64 writers with inserts recorded, and
// group-commit faster at 64 writers than at 1 — the one thing the policy
// exists for, and what a commit path that releases its waiters one at a
// time loses first.
func checkDurability(raw []byte) error {
	var da durabilityArtifact
	if err := json.Unmarshal(raw, &da); err != nil {
		return fmt.Errorf("durability block: %v", err)
	}
	rate := map[string]map[int]float64{}
	for _, p := range da.Throughput {
		if p.Ops <= 0 || p.OpsPerSec <= 0 {
			return fmt.Errorf("%s x%d: no inserts recorded", p.Policy, p.Goroutines)
		}
		if rate[p.Policy] == nil {
			rate[p.Policy] = map[int]float64{}
		}
		rate[p.Policy][p.Goroutines] = p.OpsPerSec
	}
	for _, policy := range []string{"no-sync", "group-commit", "sync-every-op"} {
		for _, writers := range []int{1, 8, 64} {
			if rate[policy][writers] == 0 {
				return fmt.Errorf("%s x%d: lane not recorded", policy, writers)
			}
		}
	}
	if one, many := rate["group-commit"][1], rate["group-commit"][64]; many <= one {
		return fmt.Errorf("group-commit: %.0f inserts/s at 64 writers, %.0f at 1 — the fsync is not being shared", many, one)
	}
	return nil
}

// compactionArtifact is the slice of BENCH_compaction.json benchcheck
// verifies beyond the shared header.
type compactionArtifact struct {
	ColdReads []struct {
		Kind      string   `json:"kind"`
		Reads     int      `json:"reads"`
		NSPerRead float64  `json:"ns_per_read"`
		Resident  *float64 `json:"resident_bytes_per_flushed_row"`
	} `json:"cold_reads"`
}

// maxResidentPerFlushedRow bounds what the open blocks may keep in memory
// per entry of the tier: a page index and a 10-bit bloom come to about 1.6
// bytes; a block tier that keeps decoded rows holds forty.
const maxResidentPerFlushedRow = 2.0

// checkCompaction enforces the compaction artifact's cold-read contract:
// both classes measured, each next to the memory that serves it, and that
// memory an index and a filter — not a second copy of the rows.
func checkCompaction(raw []byte) error {
	var ca compactionArtifact
	if err := json.Unmarshal(raw, &ca); err != nil {
		return fmt.Errorf("compaction block: %v", err)
	}
	if len(ca.ColdReads) < 2 {
		return fmt.Errorf("%d cold-read classes recorded, want present and absent keys", len(ca.ColdReads))
	}
	for _, p := range ca.ColdReads {
		if p.Reads <= 0 || p.NSPerRead <= 0 {
			return fmt.Errorf("cold reads of %s keys: nothing recorded", p.Kind)
		}
		if p.Resident == nil || *p.Resident <= 0 {
			return fmt.Errorf("cold reads of %s keys: missing resident_bytes_per_flushed_row", p.Kind)
		}
		if *p.Resident > maxResidentPerFlushedRow {
			return fmt.Errorf("cold reads of %s keys: open blocks hold %.2f B per flushed row, want <= %.0f",
				p.Kind, *p.Resident, maxResidentPerFlushedRow)
		}
	}
	return nil
}

// scenariosArtifact is the slice of BENCH_scenarios.json benchcheck
// verifies beyond the shared header.
type scenariosArtifact struct {
	Scenarios []struct {
		Name             string `json:"name"`
		Target           string `json:"target"`
		SpecHash         string `json:"spec_hash"`
		TraceHash        string `json:"trace_hash"`
		TraceHashRecheck string `json:"trace_hash_recheck"`
		Phases           []struct {
			Name       string   `json:"name"`
			Ops        int      `json:"ops"`
			P50Micros  *float64 `json:"p50_us"`
			P99Micros  *float64 `json:"p99_us"`
			P999Micros *float64 `json:"p999_us"`
		} `json:"phases"`
	} `json:"scenarios"`
}

// checkScenarios enforces the scenario artifact's extra contract: the
// canned-spec coverage floor, the trace-hash determinism proof, and
// complete, ordered tail quantiles per phase.
func checkScenarios(raw []byte) error {
	var sa scenariosArtifact
	if err := json.Unmarshal(raw, &sa); err != nil {
		return fmt.Errorf("scenarios block: %v", err)
	}
	if len(sa.Scenarios) < 4 {
		return fmt.Errorf("only %d scenarios recorded, want >= 4", len(sa.Scenarios))
	}
	for _, s := range sa.Scenarios {
		if s.Name == "" || s.Target == "" {
			return fmt.Errorf("scenario with empty name/target")
		}
		if s.SpecHash == "" || s.TraceHash == "" || s.TraceHashRecheck == "" {
			return fmt.Errorf("%s: missing spec/trace hashes", s.Name)
		}
		if s.TraceHash != s.TraceHashRecheck {
			return fmt.Errorf("%s: trace_hash %s != trace_hash_recheck %s — op trace is not deterministic",
				s.Name, s.TraceHash, s.TraceHashRecheck)
		}
		if len(s.Phases) == 0 {
			return fmt.Errorf("%s: no phases", s.Name)
		}
		for _, ph := range s.Phases {
			if ph.Ops <= 0 {
				return fmt.Errorf("%s/%s: no ops recorded", s.Name, ph.Name)
			}
			if ph.P50Micros == nil || ph.P99Micros == nil || ph.P999Micros == nil {
				return fmt.Errorf("%s/%s: missing p50/p99/p999", s.Name, ph.Name)
			}
			if *ph.P50Micros <= 0 || *ph.P99Micros < *ph.P50Micros || *ph.P999Micros < *ph.P99Micros {
				return fmt.Errorf("%s/%s: quantiles out of order: p50=%g p99=%g p999=%g",
					s.Name, ph.Name, *ph.P50Micros, *ph.P99Micros, *ph.P999Micros)
			}
		}
	}
	return nil
}
