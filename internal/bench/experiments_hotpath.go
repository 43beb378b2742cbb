package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hermit/internal/client"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/partition"
	"hermit/internal/server"
)

// The hotpath experiment measures the allocator cost of the engine's
// hottest operations — embedded PK point read, embedded range scan,
// partitioned scatter-gather scan, durable WAL-logged insert, a
// wire-protocol point read through hermitd, an insert sent to hermitd in
// depth-64 pipelined bursts, the ones that go through the primary index by
// key (an in-memory insert of ascending keys, on the table and by name
// through the database, an update, an update of a table whose rows have
// moved, a delete/re-insert cycle, and a Hermit range query under logical
// pointers, whose every candidate takes the primary-index hop), and a write
// churn at constant live
// rows (the lane
// that also records the heap it holds per live row; every write lane
// reclaims the versions it ends, as every commit does) — as allocs/op, bytes/op,
// ns/op, and throughput, each at GOMAXPROCS 1 and NumCPU. The artifact is the
// regression baseline for the zero-alloc read-path contract: the same
// numbers `testing.AllocsPerRun` guards enforce in tier-1 are recorded
// here with throughput context, so a speed pass can prove its allocation
// wins from artifacts alone.

// hotpathCaveat is recorded verbatim in the JSON artifact.
const hotpathCaveat = "ns/op and ops/sec track the container; the durable " +
	"signal is allocs/op (deterministic for a fixed code version and " +
	"workload) and its ratio across GOMAXPROCS lanes — allocation-free " +
	"paths must stay allocation-free on multi-core runs"

// hotpathProcs is the GOMAXPROCS lanes every workload is measured under: one
// core, and every core the machine has — never more, which would measure
// the scheduler. The all-cores lane is what shows that pooled paths stay
// allocation-free when the GC and scatter-gather workers run in parallel.
var hotpathProcs = func() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}()

// hotpathPartitions is the partition fan-out of the partitioned_scan lane.
const hotpathPartitions = 4

// hotpathSpan is the row span of each range/partitioned scan.
const hotpathSpan = 256

// hotpathLane is one (workload, GOMAXPROCS) measurement.
type hotpathLane struct {
	Workload    string  `json:"workload"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	// HeapPerLiveRow is what the churn fixture holds per live row after
	// its set-up turnovers (churn lanes only).
	HeapPerLiveRow float64 `json:"heap_bytes_per_live_row,omitempty"`
}

// hotpathReport is the schema of BENCH_hotpath.json.
type hotpathReport struct {
	Experiment string        `json:"experiment"`
	Rows       int           `json:"rows"`
	Scale      float64       `json:"scale"`
	Seed       int64         `json:"seed"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Caveat     string        `json:"caveat"`
	Lanes      []hotpathLane `json:"lanes"`
}

// hotpathWorkload is one measured operation: setup builds the fixture and
// returns the op closure (driven by one goroutine) plus its teardown.
type hotpathWorkload struct {
	name  string
	setup func(cfg Config, n int) (op func() error, teardown func(), err error)
	// heap, where a workload has one, receives from setup the heap the
	// fixture holds per live row.
	heap *float64
}

// hotpathWorkloads lists the measured operations in report order.
func hotpathWorkloads() []hotpathWorkload {
	churnHeap := new(float64)
	return []hotpathWorkload{
		{name: "point_read", setup: setupHotpathPoint},
		{name: "range_scan", setup: setupHotpathRange},
		{name: "partitioned_scan", setup: setupHotpathPartitioned},
		{name: "durable_insert", setup: setupHotpathDurableInsert},
		{name: "wire_point", setup: setupHotpathWirePoint},
		{name: "wire_insert_pipelined", setup: setupHotpathWireInsertPipelined},
		{name: "mem_insert", setup: setupHotpathInsert},
		{name: "db_insert", setup: setupHotpathDBInsert},
		{name: "mem_update", setup: setupHotpathUpdate},
		{name: "mem_update_churned", setup: setupHotpathUpdateChurned},
		{name: "mem_delete", setup: setupHotpathDelete},
		{name: "logical_range", setup: setupHotpathLogicalRange},
		{name: "churn", heap: churnHeap, setup: func(cfg Config, n int) (func() error, func(), error) {
			return setupHotpathChurn(cfg, n, churnHeap)
		}},
	}
}

// hotpathCols is the two-column schema every hotpath fixture uses.
func hotpathCols() []string { return []string{"pk", "val"} }

// buildHotpathTable fills an embedded table with n rows, pk = 0..n-1.
func buildHotpathTable(n int) (*engine.Table, error) {
	db := engine.NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("hot", hotpathCols(), 0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if _, err := tb.Insert([]float64{float64(i), float64(i) * 0.5}); err != nil {
			return nil, err
		}
	}
	return tb, nil
}

// setupHotpathPoint measures a PK point read of the whole row into a
// reused buffer — the path the zero-alloc contract covers.
func setupHotpathPoint(cfg Config, n int) (func() error, func(), error) {
	tb, err := buildHotpathTable(n)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	var dst []float64
	op := func() error {
		v := float64(rng.Intn(n))
		rows, st, err := tb.Exec(engine.Query{Col: 0, Lo: v, Hi: v, Path: engine.PathPrimary}, dst[:0])
		if err != nil {
			return err
		}
		if st.Rows != 1 {
			return fmt.Errorf("point read matched %d rows, want 1", st.Rows)
		}
		dst = rows
		return nil
	}
	return op, func() {}, nil
}

// setupHotpathRange measures a primary-index range scan spanning
// hotpathSpan rows, again into a reused buffer.
func setupHotpathRange(cfg Config, n int) (func() error, func(), error) {
	tb, err := buildHotpathTable(n)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	var dst []float64
	op := func() error {
		lo := float64(rng.Intn(n - hotpathSpan))
		rows, st, err := tb.Exec(engine.Query{Col: 0, Lo: lo, Hi: lo + hotpathSpan - 1, Path: engine.PathPrimary}, dst[:0])
		if err != nil {
			return err
		}
		if st.Rows != hotpathSpan {
			return fmt.Errorf("range scan matched %d rows, want %d", st.Rows, hotpathSpan)
		}
		dst = rows
		return nil
	}
	return op, func() {}, nil
}

// setupHotpathInsert measures an auto-commit Insert into an embedded table
// with no secondary index, keys ascending past the n loaded: the head lookup
// and the primary entry's append at the rightmost leaf, the version row, and
// the stamp and freeze in one hold of the MVCC latch — the load loop of every
// preloaded table.
func setupHotpathInsert(_ Config, n int) (func() error, func(), error) {
	tb, err := buildHotpathTable(n)
	if err != nil {
		return nil, nil, err
	}
	row := []float64{float64(n), 0}
	op := func() error {
		row[0]++
		row[1] = row[0] * 0.5
		_, err := tb.Insert(row)
		return err
	}
	return op, func() {}, nil
}

// setupHotpathDBInsert is setupHotpathInsert through the database by table
// name, DB.Insert on an in-memory database: the by-name write path
// (DB.submit → mutate) that partition.Table.Insert and the repository
// benchmark's load take, the table resolved from the catalog per row.
func setupHotpathDBInsert(_ Config, n int) (func() error, func(), error) {
	db := engine.NewDB(hermit.PhysicalPointers)
	if _, err := db.CreateTable("hot", hotpathCols(), 0); err != nil {
		return nil, nil, err
	}
	row := make([]float64, 2)
	for i := 0; i < n; i++ {
		row[0], row[1] = float64(i), float64(i)*0.5
		if _, err := db.Insert("hot", row); err != nil {
			return nil, nil, err
		}
	}
	op := func() error {
		row[0]++
		row[1] = row[0] * 0.5
		_, err := db.Insert("hot", row)
		return err
	}
	return op, func() {}, nil
}

// hotpathChurnedUpdates is the share of rows setupHotpathUpdateChurned
// moves before it measures: 1 in 40, about what the repository benchmark's
// hermit-read trace moves of its table.
const hotpathChurnedUpdates = 40

// setupHotpathUpdateChurned is setupHotpathUpdate on a table whose rows
// have moved: each update takes the row slot another update freed, far from
// the row ids of its key's neighbours, so the primary-index swap keeps the
// new id as an exception of the leaf's id frame — the path most updates of
// a written table take — rather than rewriting a code in place.
func setupHotpathUpdateChurned(cfg Config, n int) (func() error, func(), error) {
	tb, err := buildHotpathTable(n)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	gen := float64(n)
	op := func() error {
		gen++
		return tb.UpdateColumn(float64(rng.Intn(n)), 1, gen)
	}
	for i := 0; i < n/hotpathChurnedUpdates; i++ {
		if err := op(); err != nil {
			return nil, nil, err
		}
	}
	return op, func() {}, nil
}

// setupHotpathUpdate measures an auto-commit UpdateColumn of a random key:
// head lookup through the primary index, version row, primary-entry swap
// and stamp at commit, then the superseded version reclaimed: its index
// entry, header and row slot, which the next op's version takes.
func setupHotpathUpdate(cfg Config, n int) (func() error, func(), error) {
	tb, err := buildHotpathTable(n)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 23))
	gen := float64(n)
	op := func() error {
		gen++
		return tb.UpdateColumn(float64(rng.Intn(n)), 1, gen)
	}
	return op, func() {}, nil
}

// setupHotpathDelete measures the delete of a random live key followed by
// its re-insert over the dead chain — the cycle that keeps the table full
// for as long as the lane runs, so one op is a Delete plus an Insert: two
// head lookups, a header write, the dead chain reclaimed with its primary
// entry, a version row and a primary entry put back.
func setupHotpathDelete(cfg Config, n int) (func() error, func(), error) {
	tb, err := buildHotpathTable(n)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 29))
	row := make([]float64, 2)
	op := func() error {
		row[0], row[1] = float64(rng.Intn(n)), 1
		if found, err := tb.Delete(row[0]); err != nil || !found {
			return fmt.Errorf("delete of live key %v: found=%v err=%v", row[0], found, err)
		}
		_, err := tb.Insert(row)
		return err
	}
	return op, func() {}, nil
}

// hotpathChurnTurnovers is how many times the churn fixture rewrites every
// row before its heap is read and its lanes run.
const hotpathChurnTurnovers = 3

// setupHotpathChurn measures the write path with reclamation on it: a
// table with a secondary B+-tree held at n live rows while every op either
// updates a random row or deletes it and inserts a row under a fresh key.
// Each commit reclaims the version it ends, so the next version lands in the
// slot it freed; the DB.GC call once per n/10 ops, which used to be where
// reclamation happened, finds nothing to do. The fixture is turned over
// hotpathChurnTurnovers times first; *heap receives what the process then
// holds per live row.
func setupHotpathChurn(cfg Config, n int, heap *float64) (func() error, func(), error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	db := engine.NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("hot", hotpathCols(), 0)
	if err != nil {
		return nil, nil, err
	}
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i)
		if _, err := tb.Insert([]float64{keys[i], keys[i] * 0.5}); err != nil {
			return nil, nil, err
		}
	}
	if _, err := tb.CreateBTreeIndex(1, false); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 37))
	next, ops := float64(n), 0
	row := make([]float64, 2)
	op := func() error {
		i := rng.Intn(n)
		if rng.Intn(2) == 0 {
			if err := tb.UpdateColumn(keys[i], 1, rng.Float64()*float64(n)); err != nil {
				return err
			}
		} else {
			if found, err := tb.Delete(keys[i]); err != nil || !found {
				return fmt.Errorf("delete of live key %v: found=%v err=%v", keys[i], found, err)
			}
			row[0], row[1] = next, rng.Float64()*float64(n)
			if _, err := tb.Insert(row); err != nil {
				return err
			}
			keys[i] = next
			next++
		}
		if ops++; ops%(n/10) == 0 {
			db.GC()
		}
		return nil
	}
	for i := 0; i < hotpathChurnTurnovers*n; i++ {
		if err := op(); err != nil {
			return nil, nil, err
		}
	}
	if tb.Len() != n {
		return nil, nil, fmt.Errorf("churn fixture holds %d live rows, want %d", tb.Len(), n)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	*heap = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(n) // keys included: 8 B/row
	return op, func() {}, nil
}

// setupHotpathLogicalRange measures a Hermit range query of hotpathSpan
// rows under logical pointers: TRS-Tree lookup, host-index scan, then the
// primary-index hop for every harvested key (sorted, probed front to
// back) and the chain walk to the visible version, then validation.
func setupHotpathLogicalRange(cfg Config, n int) (func() error, func(), error) {
	db := engine.NewDB(hermit.LogicalPointers)
	tb, err := db.CreateTable("hot", []string{"pk", "host", "target"}, 0)
	if err != nil {
		return nil, nil, err
	}
	// Keys are laid out against the target order, so the keys of one range
	// are spread over the primary index rather than adjacent in one leaf.
	stride := 7919 // prime, coprime to every n the experiment uses
	for i := 0; i < n; i++ {
		c := float64(i * stride % n)
		if _, err := tb.Insert([]float64{float64(i), 2*c + 100, c}); err != nil {
			return nil, nil, err
		}
	}
	if _, err := tb.CreateBTreeIndex(1, false); err != nil {
		return nil, nil, err
	}
	if _, err := tb.CreateHermitIndex(2, 1); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	var dst []float64
	op := func() error {
		lo := float64(rng.Intn(n - hotpathSpan))
		rows, st, err := tb.Exec(engine.Query{Col: 2, Lo: lo, Hi: lo + hotpathSpan - 1, Path: engine.PathHermit}, dst[:0])
		if err != nil {
			return err
		}
		if st.Rows != hotpathSpan {
			return fmt.Errorf("logical range matched %d rows, want %d", st.Rows, hotpathSpan)
		}
		dst = rows
		return nil
	}
	return op, func() {}, nil
}

// setupHotpathPartitioned measures a scatter-gather range scan across
// hotpathPartitions hash partitions (every partition contributes rows, so
// the k-way merge and per-partition result plumbing are all on the path).
func setupHotpathPartitioned(cfg Config, n int) (func() error, func(), error) {
	pt, err := partition.New(hermit.PhysicalPointers, "hot", hotpathCols(), 0,
		partition.Options{Partitions: hotpathPartitions})
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		if _, err := pt.Insert([]float64{float64(i), float64(i) * 0.5}); err != nil {
			return nil, nil, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	var dst []float64
	op := func() error {
		lo := float64(rng.Intn(n - hotpathSpan))
		rows, st, err := pt.Exec(engine.Query{Col: 0, Lo: lo, Hi: lo + hotpathSpan - 1, Path: engine.PathPrimary}, dst[:0])
		if err != nil {
			return err
		}
		if st.Rows != hotpathSpan {
			return fmt.Errorf("partitioned scan matched %d rows, want %d", st.Rows, hotpathSpan)
		}
		dst = rows
		return nil
	}
	return op, func() {}, nil
}

// setupHotpathDurableInsert measures a WAL-logged single-row insert (frame
// encode, appender hand-off, ticket wait all on the path).
func setupHotpathDurableInsert(cfg Config, n int) (func() error, func(), error) {
	dir, err := os.MkdirTemp(cfg.TmpDir, "hermit-bench-hotpath")
	if err != nil {
		return nil, nil, err
	}
	d, err := engine.OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	if _, err := d.CreateTable("hot", hotpathCols(), 0); err != nil {
		d.Close()
		os.RemoveAll(dir)
		return nil, nil, err
	}
	pk := 0.0
	row := make([]float64, 2)
	op := func() error {
		pk++
		row[0], row[1] = pk, pk*0.5
		_, err := d.Insert("hot", row)
		return err
	}
	teardown := func() {
		d.Close()
		os.RemoveAll(dir)
	}
	return op, teardown, nil
}

// startHotpathServer serves a fresh durable database on a loopback socket
// and dials it: the fixture of the two wire lanes. create builds the
// table(s) before the server starts.
func startHotpathServer(cfg Config, create func(d *engine.DB) error) (*client.Conn, func(), error) {
	dir, err := os.MkdirTemp(cfg.TmpDir, "hermit-bench-hotpath")
	if err != nil {
		return nil, nil, err
	}
	d, err := engine.OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	stop := func() {
		d.Close()
		os.RemoveAll(dir)
	}
	if err := create(d); err != nil {
		stop()
		return nil, nil, err
	}
	srv := server.New(d, server.Options{MaxInflight: 4096, QueueDepth: 256, Workers: maxGoroutines})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		stop()
		return nil, nil, err
	}
	conn, err := client.Dial(srv.Addr().String(), client.Options{})
	if err != nil {
		srv.Close()
		stop()
		return nil, nil, err
	}
	return conn, func() {
		conn.Close()
		srv.Close()
		stop()
	}, nil
}

// setupHotpathWirePoint measures one pipeline-depth-1 point read through
// hermitd's wire protocol on a loopback socket: request encode, frame
// write, server decode/execute, response encode, client decode.
func setupHotpathWirePoint(cfg Config, n int) (func() error, func(), error) {
	conn, teardown, err := startHotpathServer(cfg, func(d *engine.DB) error {
		tb, err := d.CreateTable("hot", hotpathCols(), 0)
		for i := 0; i < n && err == nil; i++ {
			_, err = tb.Insert([]float64{float64(i), float64(i) * 0.5})
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 19))
	op := func() error {
		rows, err := conn.Point("hot", 0, float64(rng.Intn(n)))
		if err != nil {
			return err
		}
		if len(rows) != 1 {
			return fmt.Errorf("wire point read matched %d rows, want 1", len(rows))
		}
		return nil
	}
	return op, teardown, nil
}

// hotpathPipelineDepth is the burst size of the wire_insert_pipelined lane
// (the session's maxCoalesce, and what a bulk load sends).
const hotpathPipelineDepth = 64

// setupHotpathWireInsertPipelined measures a WAL-logged insert into a
// hash-partitioned table sent in pipelined bursts of hotpathPipelineDepth:
// one op queues a request, and every hotpathPipelineDepth-th op flushes
// the burst and reads its responses, so ns/op is the burst's cost per
// insert — request decode, partition routing, apply, WAL append, response
// encode, and the burst's share of the socket and log writes.
func setupHotpathWireInsertPipelined(cfg Config, _ int) (func() error, func(), error) {
	conn, teardown, err := startHotpathServer(cfg, func(d *engine.DB) error {
		return d.CreatePartitionedTable("hot", hotpathCols(), 0, hotpathPartitions)
	})
	if err != nil {
		return nil, nil, err
	}
	p := conn.Pipeline()
	rows := make([][2]float64, hotpathPipelineDepth)
	pk := 0.0
	op := func() error {
		row := rows[p.Len()][:]
		pk++
		row[0], row[1] = pk, pk*0.5
		p.Insert("hot", row)
		if p.Len() < hotpathPipelineDepth {
			return nil
		}
		results, err := p.Flush()
		if err != nil {
			return err
		}
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}
	return op, teardown, nil
}

// measureHotpathLane drives op from one goroutine for cfg.MeasureFor and
// reports allocs/op and bytes/op from runtime.ReadMemStats deltas (whole-
// process counters, so background work — GC, WAL appender, scatter-gather
// workers — is attributed to the ops that caused it, which is the honest
// accounting for a speed pass).
func measureHotpathLane(cfg Config, name string, procs int, op func() error) (hotpathLane, error) {
	const batch = 64
	for i := 0; i < 2*batch; i++ { // warm caches, pools, and buffer growth
		if err := op(); err != nil {
			return hotpathLane{}, err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ops := 0
	for time.Since(start) < cfg.MeasureFor {
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return hotpathLane{}, err
			}
		}
		ops += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return hotpathLane{
		Workload:    name,
		GOMAXPROCS:  procs,
		Ops:         ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
		OpsPerSec:   float64(ops) / elapsed.Seconds(),
	}, nil
}

// RunHotpath drives the hot-path allocation/latency sweep.
func RunHotpath(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "hotpath", "Hot-path allocs/op and ns/op at GOMAXPROCS 1 and NumCPU")
	n := cfg.rows(1_000_000)
	fmt.Fprintf(cfg.Out, "rows=%d gomaxprocs=%d cpus=%d lanes=%v\n",
		n, runtime.GOMAXPROCS(0), runtime.NumCPU(), hotpathProcs)
	fmt.Fprintf(cfg.Out, "note: %s\n", hotpathCaveat)

	rep := hotpathReport{
		Experiment: "hotpath",
		Rows:       n,
		Scale:      cfg.Scale,
		Seed:       cfg.Seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Caveat:     hotpathCaveat,
	}

	fmt.Fprintf(cfg.Out, "\n%-18s %6s %10s %12s %12s %12s %14s\n",
		"workload", "procs", "ops", "ns/op", "allocs/op", "B/op", "throughput")
	for _, w := range hotpathWorkloads() {
		op, teardown, err := w.setup(cfg, n)
		if err != nil {
			return fmt.Errorf("hotpath %s: %w", w.name, err)
		}
		for _, procs := range hotpathProcs {
			prev := runtime.GOMAXPROCS(procs)
			lane, err := measureHotpathLane(cfg, w.name, procs, op)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				teardown()
				return fmt.Errorf("hotpath %s@%d: %w", w.name, procs, err)
			}
			if w.heap != nil {
				lane.HeapPerLiveRow = *w.heap
			}
			rep.Lanes = append(rep.Lanes, lane)
			fmt.Fprintf(cfg.Out, "%-18s %6d %10d %12.0f %12.2f %12.1f %14s\n",
				lane.Workload, lane.GOMAXPROCS, lane.Ops, lane.NsPerOp,
				lane.AllocsPerOp, lane.BytesPerOp, fmtKops(lane.OpsPerSec))
		}
		if w.heap != nil {
			fmt.Fprintf(cfg.Out, "%-18s heap after %d turnovers: %.1f B/live row\n", w.name, hotpathChurnTurnovers, *w.heap)
		}
		teardown()
	}

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_hotpath.json")
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
