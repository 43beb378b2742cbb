package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	hermitdb "hermit"
)

// tracedShare: a traced run plays the run's rounds untraced, as every run
// does, which yields the timing layers and the denominator of the tracing
// overhead, and then this share of them again, traced.
const tracedShare = 0.2

// runOpts are the parsed flags of one workload run.
type runOpts struct {
	seed    uint64
	seconds float64
	scale   float64
	trace   bool
	outDir  string // scratch and trace files; inside the checkout
	verbose func(format string, args ...any)
}

// spaceCensus is the space a system reports at the census point.
type spaceCensus struct {
	indexBytes, tableBytes uint64
	liveRows               int
}

// system is one single-driver workload's database.
type system interface {
	// build creates the database from scratch: load, indexes, and for the
	// durable workloads the first checkpoint. Its wall time is setup_s.
	build(streams []*stream) error
	// exec runs one op and returns what it observed, to compare with
	// op.expect: rows returned by a query, 1 for a write that took effect.
	exec(o *op) (int32, error)
	// betweenRounds runs the maintenance that fires at fixed op counts.
	betweenRounds(round int)
	space() spaceCensus
	// finish runs after the measured phase: recovery cycles, audit, final
	// sizes. It returns extra per-layer numbers.
	finish(s *stream, t *tally) (map[string]float64, error)
	close()

	// The traced run (trace_*.go): beginTrace switches the program's
	// profiling on and prepares the shadows, execTraced is exec plus spans
	// and layer samples, endTrace reports the layer metrics that are not
	// plain medians of samples and releases the shadows.
	beginTrace(st *stream) error
	execTraced(o *op, tr *tracer) (int32, error)
	endTrace(tr *tracer, m map[string]float64) error
}

// tally counts attempted and failed ops; a failed op is one that returned
// an error or an answer other than the oracle's.
type tally struct {
	attempted, failed int64
	examples          []string
}

func (t *tally) check(o *op, got int32, err error) {
	t.attempted++
	if err == nil && got == o.expect {
		return
	}
	t.failed++
	if len(t.examples) < 5 {
		t.examples = append(t.examples, fmt.Sprintf("op kind=%d pk=%d [%v,%v]: got %d want %d err=%v",
			o.kind, o.pk, o.lo, o.hi, got, o.expect, err))
	}
}

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.examples) < 5 {
		t.examples = append(t.examples, fmt.Sprintf(format, args...))
	}
}

// outcome is what one run reports.
type outcome struct {
	tally
	hash    string
	metrics map[string]float64
}

// playRound executes one round; with a recorder each op is timed on its
// own and the round's ops/wall is kept.
func playRound(sys system, ops []op, rec *recorder, t *tally) {
	start := time.Now()
	for i := range ops {
		o := &ops[i]
		t0 := time.Now()
		got, err := sys.exec(o)
		t1 := time.Now()
		t.check(o, got, err)
		if rec != nil {
			rec.add(o.kind.class(), t1.Sub(t0))
		}
	}
	if rec != nil {
		rec.round(len(ops), time.Since(start))
	}
}

// drainCompaction merges blocks until no run is left to merge, so the
// bytes on disk are those of a settled store.
func drainCompaction(d *hermitdb.DurableDB) error {
	for {
		merged, err := d.Compact()
		if err != nil || !merged {
			return err
		}
	}
}

// scaled applies -scale to a row or op count, keeping it usable.
func scaled(n int, scale float64) int { return max(int(float64(n)*scale), min(n, 2000)) }

// rounds returns the run's fixed round count, Rounds scaled by -seconds,
// and the number of traced rounds that follow it in a traced run.
func (o runOpts) rounds(spec workloadSpec) (measured, traced int) {
	measured = max(2, int(math.Round(float64(spec.Rounds)*o.seconds/runSeconds)))
	if o.trace {
		traced = max(1, int(tracedShare*float64(measured)))
	}
	return measured, traced
}

// database is anything set-up builds from scratch and a run tears down.
type database interface {
	build(streams []*stream) error
	close()
}

// setUp builds the database from scratch, once: set-ups of one run share
// the machine's phase, so repeating them steadies nothing that the median
// over runs does not, and costs run time. It returns the build's wall time
// and HeapAlloc as it stood before, so that heap_bytes_per_row can leave
// out the benchmark's own oracle and buffers.
func setUp(o runOpts, db database, streams []*stream) (wall float64, heapBase uint64, err error) {
	heapBase = heapAfterGC()
	t0 := time.Now()
	if err := db.build(streams); err != nil {
		db.close()
		return 0, 0, fmt.Errorf("set-up: %w", err)
	}
	wall = time.Since(t0).Seconds()
	o.verbose("set-up: %.3f s", wall)
	return wall, heapBase, nil
}

// endToEnd fills in the end-to-end metrics: set-up time, the new index's
// bytes per row as built, and the heap per row at the end of the run.
func (out *outcome) endToEnd(setup float64, built, end spaceCensus, heap uint64) {
	m := out.metrics
	m["setup_s"] = setup
	m["index_bytes_per_row"] = float64(built.indexBytes) / float64(built.liveRows)
	m["heap_bytes_per_row"] = float64(heap) / float64(end.liveRows)
}

func newSystem(spec workloadSpec, o runOpts) system {
	switch spec.Name {
	case "hermit-read", "btree-read":
		return &embedded{hermit: spec.Name == "hermit-read", gcEvery: spec.GCEvery}
	default: // durable-write
		dir := filepath.Join(o.outDir, fmt.Sprintf("durable-%d", os.Getpid()))
		return &durable{dir: dir, spec: spec}
	}
}

// runSingle runs a single-driver workload: set-up, the untimed warm-up
// rounds, the measured rounds, then the closing census. With o.trace the
// traced rounds follow and the per-layer metrics are reported.
func runSingle(spec workloadSpec, o runOpts) (*outcome, error) {
	runtime.GOMAXPROCS(2)
	rows := scaled(spec.Rows, o.scale)
	if spec.TailWrites > 0 {
		spec.TailWrites = scaled(spec.TailWrites, o.scale)
		spec.CheckpointEvery = scaled(spec.CheckpointEvery, o.scale)
	}
	measured, traced := o.rounds(spec)
	mix := spec.Mix
	rec := newRecorder(measured, measured*mix.Range, measured*(mix.Point+mix.PKRead+mix.ColdRead), measured*mix.writes())
	spare := (spec.WarmRounds+measured+traced)*mix.Insert + spec.TailWrites // the oracle must not grow either
	st := newStream(o.seed, 0, 1, rows, spec.Cold, mix, spare)
	st.hashRows()
	ops := make([]op, 0, mix.total())
	out := &outcome{metrics: map[string]float64{}}

	sys := newSystem(spec, o)
	setup, heapBase, err := setUp(o, sys, []*stream{st})
	if err != nil {
		return nil, err
	}
	defer sys.close()
	built := sys.space()

	round := 0
	play := func(n int, rec *recorder) {
		for ; n > 0; n-- {
			ops = st.compile(ops)
			st.hashOps(ops)
			playRound(sys, ops, rec, &out.tally)
			round++
			sys.betweenRounds(round)
		}
	}
	play(spec.WarmRounds, nil)
	runtime.GC()
	before := readProc()
	play(measured, rec)
	after := readProc()

	// The closing census follows a fixed op count, so the heap it reads is
	// that of the same state on every run of a seed.
	heap := heapAfterGC()
	end := sys.space()
	if st.live != end.liveRows {
		out.fail("live rows after the measured rounds: table has %d, oracle %d", end.liveRows, st.live)
	}

	m := out.metrics
	if !o.trace {
		out.endToEnd(setup, built, end, heap-heapBase)
		o.verbose("rounds=%d measured=%.1f s; per-layer, not gated: %s", measured, rec.wall.Seconds(), rec.timings())
	} else {
		timingLayers(m, "engine", rec, before, after, end)
		if err := tracePhase(sys, spec, o, st, rec, &out.tally, traced, &round, m); err != nil {
			return nil, err
		}
	}
	extra, err := sys.finish(st, &out.tally)
	if err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	if o.trace {
		for k, v := range extra {
			m[k] = v
		}
	}
	out.hash = traceHash([]*stream{st})
	return out, nil
}
