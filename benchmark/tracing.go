package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// The traced run measures layers from outside the program: it turns the
// engine's own per-phase profile on (SetProfile / WithProfile /
// InsertProfiled) and, after each end-to-end call, calls the lower
// layers' public functions again with the same arguments ("shadow"
// calls). Every call is a span; a layer's self time is its span minus the
// spans it caused. End-to-end metrics never come from this run.

// maxSpans bounds the span file; sampling of layer times goes on after it.
const maxSpans = 200_000

// span is one call at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: caused by the benchmark itself
	Op     int64  `json:"op"`     // spans of one request share it
}

// tracer keeps spans and layer samples in memory until the run ends.
type tracer struct {
	epoch   time.Time
	spans   []span
	op      int64
	samples map[string][]float64 // microseconds or counts, by metric name
	sums    map[string]float64   // plain accumulators (shares, ratios)
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		spans:   make([]span, 0, maxSpans),
		samples: map[string][]float64{},
		sums:    map[string]float64{},
	}
}

// nextOp starts a new request; later spans carry its id.
func (t *tracer) nextOp() { t.op++ }

// span records [start, end) under parent and returns the span's id.
func (t *tracer) span(name string, start, end time.Time, parent int32) int32 {
	return t.spanAt(name, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds(), parent)
}

func (t *tracer) spanAt(name string, startNs, endNs int64, parent int32) int32 {
	if len(t.spans) >= maxSpans {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Start: startNs, End: endNs, ID: id, Parent: parent, Op: t.op})
	return id
}

// phases lays the program's own per-phase durations out as consecutive
// child spans of parent starting at start, and returns their sum.
func (t *tracer) phases(parent int32, start time.Time, names []string, durs []time.Duration) time.Duration {
	at := start.Sub(t.epoch).Nanoseconds()
	var sum time.Duration
	for i, d := range durs {
		if d > 0 {
			t.spanAt(names[i], at, at+d.Nanoseconds(), parent)
		}
		at += d.Nanoseconds()
		sum += d
	}
	return sum
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func (t *tracer) sample(name string, v float64) { t.samples[name] = append(t.samples[name], v) }
func (t *tracer) add(name string, v float64)    { t.sums[name] += v }
func (t *tracer) med(name string) float64       { return median(t.samples[name]) }

// merge folds another goroutine's tracer into t.
func (t *tracer) merge(o *tracer) {
	shift := o.epoch.Sub(t.epoch).Nanoseconds()
	base := int32(len(t.spans))
	for _, s := range o.spans {
		if len(t.spans) >= maxSpans {
			break
		}
		s.Start, s.End, s.ID = s.Start+shift, s.End+shift, s.ID+base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Op += t.op
		t.spans = append(t.spans, s)
	}
	t.op += o.op
	for k, v := range o.samples {
		t.samples[k] = append(t.samples[k], v...)
	}
	for k, v := range o.sums {
		t.sums[k] += v
	}
}

// write stores the spans as JSON, one span per line inside an array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString("[\n")
	for i := range t.spans {
		if i > 0 {
			w.WriteString(",")
		}
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shares turns the accumulated group times into fractions of all traced
// end-to-end time. Groups: index = trstree+hermit, durable = wal+block,
// serving = proto+server+client+partition, engine = everything else
// (btree, storage, engine).
func (t *tracer) shares(m map[string]float64) {
	total := t.sums["time.total"]
	if total <= 0 {
		return
	}
	idx, dur, srv := t.sums["time.index"], t.sums["time.durable"], t.sums["time.serving"]
	m["share.index"] = idx / total
	m["share.durable"] = dur / total
	m["share.serving"] = srv / total
	m["share.engine"] = (total - idx - dur - srv) / total
}

// timingLayers reports what the measured (untraced) rounds yield: the
// plain medians and tails of the individually timed calls, the median and
// whole-phase rates, the quiet-state reading, runtime accounting and sample
// counts. None of the timings holds a 10 % bound on this box, which is why
// they are per-layer and not end-to-end (README.md "Noise budget").
func timingLayers(m map[string]float64, prefix string, rec *recorder, before, after procStats, census spaceCensus) {
	for c, name := range map[class]string{classRange: "range", classPoint: "point", classWrite: "write"} {
		m[prefix+"."+name+"_p50_us"] = quantileUs(0.5, rec.lat[c])
		m[prefix+"."+name+"_p99_us"] = quantileUs(0.99, rec.lat[c])
	}
	m[prefix+".ops_per_s"] = median(slices.Clone(rec.rates))
	if prefix == "engine" {
		m["engine.wall_ops_per_s"] = float64(rec.ops) / rec.wall.Seconds()
		m["engine.range_quiet_us"] = quietMedian(rec.lat[classRange]) / 1e3
	}
	ops := float64(max(rec.ops, 1))
	m["proc.allocs_per_op"] = float64(after.mallocs-before.mallocs) / ops
	m["proc.alloc_bytes_per_op"] = float64(after.bytes-before.bytes) / ops
	m["proc.gc_cycles"] = float64(after.gcs - before.gcs)
	m["proc.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	m["proc.cpu_us_per_op"] = us(after.cpu-before.cpu) / ops
	m["bench.samples_range"] = float64(len(rec.lat[classRange]))
	m["bench.samples_point"] = float64(len(rec.lat[classPoint]))
	m["bench.samples_write"] = float64(len(rec.lat[classWrite]))
	m["bench.rounds"] = float64(len(rec.rates))
	live := float64(max(census.liveRows, 1))
	m["storage.table_bytes_per_row"] = float64(census.tableBytes) / live
	m["engine.index_bytes_per_row_end"] = float64(census.indexBytes) / live
}

// tracePhase runs the traced rounds and fills the per-layer metrics.
func tracePhase(sys system, spec workloadSpec, o runOpts, st *stream, untraced *recorder, t *tally, rounds int, round *int, m map[string]float64) error {
	if err := sys.beginTrace(st); err != nil {
		return err
	}
	tr := newTracer()
	var ops []op
	for ; rounds > 0; rounds-- {
		ops = st.compile(ops)
		st.hashOps(ops)
		for i := range ops {
			op := &ops[i]
			tr.nextOp()
			got, err := sys.execTraced(op, tr)
			t.check(op, got, err)
		}
		*round++
		sys.betweenRounds(*round)
	}
	for _, name := range []string{
		"trstree.lookup_us", "trstree.insert_us", "hermit.validate_us",
		"btree.scan_us", "btree.primary_us", "btree.insert_us", "storage.insert_us",
		"engine.range_self_us", "engine.point_self_us", "engine.write_self_us", "engine.durable_self_us",
		"wal.append_us", "block.cold_read_us",
	} {
		m[name] = tr.med(name)
	}
	m["trstree.leaves_per_lookup"] = mean(tr.samples["trstree.leaves"])
	m["trstree.ranges_per_lookup"] = mean(tr.samples["trstree.ranges"])
	if c := tr.sums["range.candidates"]; c > 0 {
		m["hermit.fp_ratio"] = 1 - tr.sums["range.rows"]/c
	}
	if c := tr.sums["point.candidates"]; c > 0 {
		m["hermit.point_fp_ratio"] = 1 - tr.sums["point.rows"]/c
	}
	if q := tr.sums["path.queries"]; q > 0 {
		m["engine.path_hermit_frac"] = tr.sums["path.hermit"] / q
		m["engine.path_btree_frac"] = tr.sums["path.btree"] / q
		m["engine.path_scan_frac"] = tr.sums["path.scan"] / q
	}
	tr.shares(m)
	// The workload's headline class gives the tracing overhead: the write on
	// durable-write (the only one that traces writes end to end), the range
	// query elsewhere.
	headline, traced := classRange, tr.med("e2e.range_us")
	if w := tr.med("e2e.write_us"); w > 0 {
		headline, traced = classWrite, w
	}
	m["bench.trace_overhead_ratio"] = traced / quantileUs(0.5, untraced.lat[headline])
	// The layers' median self times must add up to the traced end-to-end
	// median of a range query, or the decomposition is lying.
	if e2e := tr.med("e2e.range_us"); e2e > 0 {
		m["share.range_sum_ratio"] = (tr.med("phase.trstree_us") + m["btree.scan_us"] + m["btree.primary_us"] +
			tr.med("phase.base_us") + m["engine.range_self_us"]) / e2e
	}
	if err := sys.endTrace(tr, m); err != nil {
		return err
	}
	return tr.write(filepath.Join(o.outDir, "trace-"+spec.Name+".json"))
}
