package main

// This file is the benchmark's contract: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics.
// BENCHMARK.json at the repository root repeats the same lists for the
// driver; benchmark_test.go fails if the two drift apart.

// runSeconds is the measured window the round counts below are tuned to
// (BENCHMARK.json run_seconds). The driver makes 4 + 22 x 4 = 92 runs
// inside 3420 s, so a run — build check, set-up, warm-up, the measured
// rounds and the closing audit — has to fit in about 35 s even when the
// box is in its slow phase; that rules out the 20-35 s ISSUE.md asked for.
const runSeconds = 15

// metricDef names one reported number.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"hermit-read", "paper headline path: Hermit index on colC hosted on colB, embedded, 1M rows; trstree+hermit+btree+engine do the work; 100 measured rounds of 6000 ops"},
	{"btree-read", "paper baseline and bypass: byte-identical trace (same 100 rounds), complete B+-tree on colC; trstree/hermit changes must not move it"},
	{"durable-write", "WAL+block+checkpoint path dominates: durable DB, 200 measured rounds of 5000 ops (80% writes), checkpoint+compaction every 100k writes, recovery, audit"},
	{"wire-mixed", "serving tier dominates: in-process server, 4 partitions, 2 closed-loop connections, 110 measured rounds of a one-shot and a pipelined segment"},
}

// endToEnd lists the gating metrics. Every workload reports every one of
// them (the driver's contract), so metrics that exist only on some
// workloads (disk bytes, recovery time) are per-layer. So are all the
// timings of the measured rounds: ISSUE.md fixes their bound at 10 % and
// says that a metric which cannot be held inside its bound is demoted, not
// given a wider one, and on this box the plain median of 100 000 timed
// calls moves by more than that between runs of the same binary
// (README.md "Noise budget"). setup_s must stay, by the driver's contract,
// which also tells to give it the largest bound; its spread over ten runs
// reaches 27 %. The byte metrics carry ISSUE.md's bounds: the index bytes
// are those of the one preloaded table and repeat to the byte, the heap
// follows the seed's trace and moves 0.4 % at most from seed to seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"index_bytes_per_row", "B/row", "lower", 0.01},
	{"heap_bytes_per_row", "B/row", "lower", 0.02},
}

// perLayer lists the layer metrics of the traced run. A workload that
// bypasses a layer reports 0 for it: that zero is the bypass.
var perLayer = []metricDef{
	// trstree: the succinct index structure itself.
	{"trstree.lookup_us", "us", "lower", 0},
	{"trstree.leaves_per_lookup", "count", "lower", 0},
	{"trstree.ranges_per_lookup", "count", "lower", 0},
	{"trstree.insert_us", "us", "lower", 0},
	{"trstree.build_s", "s", "lower", 0},
	{"trstree.size_bytes", "B", "lower", 0},
	{"trstree.leaves", "count", "lower", 0},
	{"trstree.height", "count", "lower", 0},
	{"trstree.outlier_frac", "fraction", "lower", 0},
	// hermit: the lookup mechanism around the tree.
	{"hermit.fp_ratio", "fraction", "lower", 0},
	{"hermit.point_fp_ratio", "fraction", "lower", 0},
	{"hermit.validate_us", "us", "lower", 0},
	// btree: host, primary and baseline indexes.
	{"btree.scan_us", "us", "lower", 0},
	{"btree.primary_us", "us", "lower", 0},
	{"btree.insert_us", "us", "lower", 0},
	{"btree.build_s", "s", "lower", 0},
	{"btree.size_bytes", "B", "lower", 0},
	// storage: the row store.
	{"storage.table_bytes_per_row", "B/row", "lower", 0},
	{"storage.insert_us", "us", "lower", 0},
	// engine: planning, visibility, commit, checkpoint, recovery.
	{"engine.range_self_us", "us", "lower", 0},
	{"engine.point_self_us", "us", "lower", 0},
	{"engine.write_self_us", "us", "lower", 0},
	{"engine.durable_self_us", "us", "lower", 0},
	{"engine.path_hermit_frac", "fraction", "higher", 0},
	{"engine.path_btree_frac", "fraction", "higher", 0},
	{"engine.path_scan_frac", "fraction", "lower", 0},
	{"engine.gc_ms", "ms", "lower", 0},
	{"engine.checkpoint_ms", "ms", "lower", 0},
	{"engine.compact_ms", "ms", "lower", 0},
	{"engine.checkpoints", "count", "higher", 0},
	{"engine.recovery_s", "s", "lower", 0},
	{"engine.recovery_records", "count", "lower", 0},
	{"engine.disk_bytes_per_row", "B/row", "lower", 0},
	{"engine.index_bytes_per_row_end", "B/row", "lower", 0},
	{"engine.ops_per_s", "ops/s", "higher", 0},
	{"engine.range_p50_us", "us", "lower", 0},
	{"engine.point_p50_us", "us", "lower", 0},
	{"engine.write_p50_us", "us", "lower", 0},
	{"engine.range_p99_us", "us", "lower", 0},
	{"engine.point_p99_us", "us", "lower", 0},
	{"engine.write_p99_us", "us", "lower", 0},
	{"engine.wall_ops_per_s", "ops/s", "higher", 0},
	{"engine.range_quiet_us", "us", "lower", 0},
	// wal: the write-ahead log.
	{"wal.append_us", "us", "lower", 0},
	{"wal.fsync_append_us", "us", "lower", 0},
	{"wal.bytes_per_write", "B", "lower", 0},
	// block: checkpoint blocks and compaction.
	{"block.write_amp", "ratio", "lower", 0},
	{"block.flushes", "count", "lower", 0},
	{"block.compactions", "count", "lower", 0},
	{"block.bytes_per_row", "B/row", "lower", 0},
	{"block.max_level", "count", "lower", 0},
	{"block.backlog_end", "count", "lower", 0},
	{"block.compact_errors", "count", "lower", 0},
	{"block.probes_per_cold_read", "count", "lower", 0},
	{"block.cold_read_us", "us", "lower", 0},
	// partition: scatter-gather over hash partitions.
	{"partition.gather_self_us", "us", "lower", 0},
	{"partition.route_self_us", "us", "lower", 0},
	{"partition.fanout", "count", "lower", 0},
	// proto: the wire codec.
	{"proto.encode_req_us", "us", "lower", 0},
	{"proto.decode_req_us", "us", "lower", 0},
	{"proto.encode_resp_us", "us", "lower", 0},
	{"proto.decode_resp_us", "us", "lower", 0},
	{"proto.bytes_per_req", "B", "lower", 0},
	{"proto.bytes_per_resp", "B", "lower", 0},
	// server and client: sessions, sockets, coalescing.
	{"server.self_us", "us", "lower", 0},
	{"server.coalesce_ratio", "ratio", "higher", 0},
	{"server.rejected", "count", "lower", 0},
	{"client.ops_per_s", "ops/s", "higher", 0},
	{"client.range_p50_us", "us", "lower", 0},
	{"client.point_p50_us", "us", "lower", 0},
	{"client.write_p50_us", "us", "lower", 0},
	{"client.range_p99_us", "us", "lower", 0},
	{"client.point_p99_us", "us", "lower", 0},
	{"client.write_p99_us", "us", "lower", 0},
	{"client.oneshot_ops_per_s", "ops/s", "higher", 0},
	{"client.pipeline_ops_per_s", "ops/s", "higher", 0},
	// share: where the traced run's time went, by layer group.
	{"share.index", "fraction", "lower", 0},
	{"share.durable", "fraction", "lower", 0},
	{"share.serving", "fraction", "lower", 0},
	{"share.engine", "fraction", "lower", 0},
	{"share.range_sum_ratio", "ratio", "lower", 0},
	{"share.point_sum_ratio", "ratio", "lower", 0},
	// proc: process-wide Go runtime accounting over the untraced phase.
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.alloc_bytes_per_op", "B", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.cpu_us_per_op", "us", "lower", 0},
	// bench: validity of the numbers above.
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
	{"bench.samples_range", "count", "higher", 0},
	{"bench.samples_point", "count", "higher", 0},
	{"bench.samples_write", "count", "higher", 0},
	{"bench.rounds", "count", "higher", 0},
}

// roundMix is the fixed op count of one round of one driver goroutine.
type roundMix struct {
	Range, Point, PKRead, ColdRead int
	Insert, Update, Delete         int
}

func (m roundMix) writes() int { return m.Insert + m.Update + m.Delete }
func (m roundMix) total() int  { return m.Range + m.Point + m.PKRead + m.ColdRead + m.writes() }

// workloadSpec is everything that shapes a workload's inputs. Row counts
// are at -scale 1.
type workloadSpec struct {
	Name    string
	Rows    int      // preloaded rows
	Streams int      // driver goroutines, each with its own key domain
	Cold    float64  // leading share of each stream's rows that no write ever touches
	Mix     roundMix // per stream, per round (wire-mixed: per segment)
	// WarmRounds run untimed before measuring; Rounds is the fixed number
	// of measured rounds at -seconds = runSeconds (other values scale it),
	// tuned so that the measured phase takes about that long on this box.
	// The op count of a run is therefore a function of the flags alone,
	// never of how fast the machine or the change happened to be, and
	// trace_hash covers every op of it.
	WarmRounds, Rounds int
	// GCEvery runs a version GC pass between rounds every n rounds
	// (embedded workloads; the durable ones GC inside compaction).
	GCEvery int
	// CheckpointEvery checkpoints and drains compaction, between rounds,
	// after this many writes (durable-write).
	CheckpointEvery int
	// TailWrites is the un-checkpointed WAL tail the recovery cycles replay.
	TailWrites int
}

// selectivity is the share of the colC domain one range query covers.
const selectivity = 0.0002

var workloadSpecs = map[string]workloadSpec{
	"hermit-read": {
		Name: "hermit-read", Rows: 1_000_000, Streams: 1,
		Mix:        roundMix{Range: 1000, Point: 4000, Insert: 500, Update: 250, Delete: 250},
		WarmRounds: 10, Rounds: 100, GCEvery: 10,
	},
	"btree-read": {
		Name: "btree-read", Rows: 1_000_000, Streams: 1,
		Mix:        roundMix{Range: 1000, Point: 4000, Insert: 500, Update: 250, Delete: 250},
		WarmRounds: 10, Rounds: 100, GCEvery: 10,
	},
	"durable-write": {
		Name: "durable-write", Rows: 200_000, Streams: 1, Cold: 0.25,
		Mix:        roundMix{Range: 200, PKRead: 400, ColdRead: 400, Insert: 1400, Update: 1200, Delete: 1400},
		WarmRounds: 10, Rounds: 200, CheckpointEvery: 100_000, TailWrites: 40_000,
	},
	"wire-mixed": {
		Name: "wire-mixed", Rows: 200_000, Streams: 2,
		Mix:        roundMix{Range: 100, Point: 1000, Insert: 70, Update: 60, Delete: 70},
		WarmRounds: 4, Rounds: 110,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}
