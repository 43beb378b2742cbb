package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	hermitdb "hermit"
)

// wire is the system behind wire-mixed: an in-process server with
// hermitd's default options over a durable directory, one table hash
// partitioned four ways with Hermit on colC, and one client connection
// per stream, each driven closed-loop by its own goroutine. Each stream
// owns half of the colC domain and its own keys, so its expected counts do
// not depend on how the two connections interleave. Public API only.
type wire struct {
	dir   string
	d     *hermitdb.DurableDB
	srv   *hermitdb.Server
	conns []*hermitdb.ClientConn
	pt    *hermitdb.PartitionedTable
}

const (
	wireTable      = "syn"
	wirePartitions = 4
	// preloadDepth and pipelineDepth keep 2 connections under the
	// server's default per-session queue (128) and admission cap (256).
	preloadDepth  = 64
	pipelineDepth = 16
)

func (w *wire) build(streams []*stream) error {
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	d, err := hermitdb.OpenDurable(w.dir, hermitdb.PhysicalPointers) // hermitd's default scheme
	if err != nil {
		return err
	}
	w.d = d
	w.srv = hermitdb.NewServer(d, hermitdb.ServerOptions{})
	if err := w.srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	for range streams {
		c, err := hermitdb.Dial(w.srv.Addr().String(), hermitdb.ClientOptions{})
		if err != nil {
			return err
		}
		w.conns = append(w.conns, c)
	}
	if err := w.conns[0].CreateTable(wireTable, tableCols, colPK, wirePartitions); err != nil {
		return err
	}
	errs := make([]error, len(streams))
	w.each(func(j int) { errs[j] = w.preload(w.conns[j], streams[j]) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := w.conns[0].CreateBTreeIndex(wireTable, colHost); err != nil {
		return err
	}
	// The Hermit index is created on the in-process handle with the paper's
	// default TRS-Tree parameters. At this commit the wire DDL
	// (ClientConn.CreateHermitIndex) passes zero parameters, which the tree
	// clamps to one leaf holding every row as an outlier: 16 B/row and a
	// linear scan per lookup, which would make this workload measure that
	// scan and not the serving tier.
	hermitDef := hermitdb.IndexDef{Kind: "hermit", Col: colKey, Host: colHost, Params: hermitdb.DefaultParams()}
	if err := d.CreateIndex(wireTable, hermitDef); err != nil {
		return err
	}
	if err := d.Checkpoint(); err != nil {
		return err
	}
	w.pt, err = hermitdb.OpenPartitionedDurable(d, wireTable, hermitdb.PartitionOptions{})
	return err
}

// each runs fn(j) on one goroutine per connection and waits for all.
func (w *wire) each(fn func(j int)) {
	var wg sync.WaitGroup
	for j := range w.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(j)
		}()
	}
	wg.Wait()
}

func (w *wire) preload(c *hermitdb.ClientConn, s *stream) error {
	p := c.Pipeline()
	var rows [preloadDepth][4]float64
	flush := func() error {
		res, err := p.Flush()
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}
	for li, k := range s.kIns {
		row := rows[li%preloadDepth][:]
		fillRow(row, s.pkOf(li), k, k)
		p.Insert(wireTable, row)
		if p.Len() == preloadDepth {
			if err := flush(); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
		}
	}
	return flush()
}

// rowsMatch checks that every returned row satisfies the predicate.
func rowsMatch(rows [][]float64, o *op) bool {
	for _, r := range rows {
		if len(r) != 4 || r[colKey] < o.lo || r[colKey] > o.hi {
			return false
		}
	}
	return true
}

// oneShot sends one request and waits for its response.
func (w *wire) oneShot(c *hermitdb.ClientConn, o *op, row []float64) (int32, error) {
	switch o.kind {
	case opRange:
		rows, err := c.Range(wireTable, colKey, o.lo, o.hi)
		if err != nil || !rowsMatch(rows, o) {
			return -1, err
		}
		return int32(len(rows)), nil
	case opPoint:
		rows, err := c.Point(wireTable, colKey, o.lo)
		if err != nil || !rowsMatch(rows, o) {
			return -1, err
		}
		return int32(len(rows)), nil
	case opInsert:
		fillRow(row, o.pk, o.k, o.k)
		return 1, c.Insert(wireTable, row)
	case opUpdate:
		return 1, c.Update(wireTable, float64(o.pk), colKey, colC(o.k))
	case opDelete:
		found, err := c.Delete(wireTable, float64(o.pk))
		if !found {
			return 0, err
		}
		return 1, err
	}
	return 0, fmt.Errorf("op kind %d not part of this workload", o.kind)
}

// pipelined sends ops in bursts of pipelineDepth requests and checks every
// response against the oracle.
func (w *wire) pipelined(c *hermitdb.ClientConn, ops []op, t *tally) {
	p := c.Pipeline()
	var rows [pipelineDepth][4]float64
	for base := 0; base < len(ops); base += pipelineDepth {
		chunk := ops[base:min(base+pipelineDepth, len(ops))]
		for i := range chunk {
			o := &chunk[i]
			switch o.kind {
			case opRange:
				p.Range(wireTable, colKey, o.lo, o.hi)
			case opPoint:
				p.Point(wireTable, colKey, o.lo)
			case opInsert:
				fillRow(rows[i][:], o.pk, o.k, o.k)
				p.Insert(wireTable, rows[i][:])
			case opUpdate:
				p.Update(wireTable, float64(o.pk), colKey, colC(o.k))
			case opDelete:
				p.Delete(wireTable, float64(o.pk))
			}
		}
		res, err := p.Flush()
		if err != nil {
			for i := range chunk {
				t.check(&chunk[i], -1, err)
			}
			return
		}
		for i := range chunk {
			o, r := &chunk[i], res[i]
			got := int32(1)
			switch {
			case r.Err != nil:
				got = -1
			case o.kind == opRange || o.kind == opPoint:
				got = int32(len(r.Rows))
				if !rowsMatch(r.Rows, o) {
					got = -1
				}
			case o.kind == opDelete && !r.Found:
				got = 0
			}
			t.check(o, got, r.Err)
		}
	}
}

func (w *wire) space() spaceCensus {
	m := w.pt.Memory()
	return spaceCensus{indexBytes: m.NewBytes, tableBytes: m.TableBytes, liveRows: w.pt.Len()}
}

func (w *wire) close() {
	for _, c := range w.conns {
		c.Close()
	}
	w.conns = nil
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.d != nil {
		w.d.Close() // the directory is removed next; nothing left to lose
		w.d = nil
	}
	os.RemoveAll(w.dir)
}

// wireLane is one connection's driver state: ops, samples and failures are
// per goroutine and merged after the run.
type wireLane struct {
	st        *stream
	oneOps    []op
	pipeOps   []op
	rec       *recorder
	tally     tally
	row       [4]float64
	traceLane *wireTraceLane // traced phase only
}

// runWire runs wire-mixed. A round is a one-shot segment (every request
// timed send-to-response; feeds the *_p50_us metrics) followed by a
// pipelined segment of the same mix (its ops/wall feeds ops_per_s); both
// connections start each segment together.
func runWire(spec workloadSpec, o runOpts) (*outcome, error) {
	runtime.GOMAXPROCS(2)
	rows := scaled(spec.Rows, o.scale)
	measured, traced := o.rounds(spec)
	mix := spec.Mix
	lanes := make([]*wireLane, spec.Streams)
	streams := make([]*stream, spec.Streams)
	for j := range lanes {
		spare := 2 * (spec.WarmRounds + measured + traced) * mix.Insert // two segments a round
		st := newStream(o.seed, j, spec.Streams, rows/spec.Streams, 0, mix, spare)
		st.hashRows()
		streams[j] = st
		lanes[j] = &wireLane{st: st, rec: newRecorder(0, measured*mix.Range, measured*mix.Point, measured*mix.writes())}
	}
	out := &outcome{metrics: map[string]float64{}}

	w := &wire{dir: filepath.Join(o.outDir, fmt.Sprintf("wire-%d", os.Getpid()))}
	setup, heapBase, err := setUp(o, w, streams)
	if err != nil {
		return nil, err
	}
	defer w.close()
	built := w.space()

	compile := func() {
		for _, l := range lanes {
			l.oneOps = l.st.compile(l.oneOps)
			l.st.hashOps(l.oneOps)
			l.pipeOps = l.st.compile(l.pipeOps)
			l.st.hashOps(l.pipeOps)
		}
	}
	// A one-shot sample counts only while every connection is still
	// driving: the lane that finishes its segment last runs its final
	// requests against an otherwise idle server, which is another workload.
	var driving atomic.Int32
	oneShotSegment := func(timed bool) {
		driving.Store(int32(len(lanes)))
		w.each(func(j int) {
			l, c := lanes[j], w.conns[j]
			for i := range l.oneOps {
				op := &l.oneOps[i]
				t0 := time.Now()
				got, err := w.oneShot(c, op, l.row[:])
				d := time.Since(t0)
				l.tally.check(op, got, err)
				if timed && int(driving.Load()) == len(lanes) {
					l.rec.add(op.kind.class(), d)
				}
			}
			driving.Add(-1)
		})
	}
	pipelineSegment := func() {
		w.each(func(j int) { w.pipelined(w.conns[j], lanes[j].pipeOps, &lanes[j].tally) })
	}

	for r := 0; r < spec.WarmRounds; r++ {
		compile()
		oneShotSegment(false)
		pipelineSegment()
	}
	runtime.GC()

	statsBefore := w.srv.Stats()
	before := readProc()
	segOps := spec.Streams * mix.total()
	all := newRecorder(measured, 0, 0, 0) // the rounds, and after them every lane's samples
	var oneWall, pipeWall time.Duration
	for r := 0; r < measured; r++ {
		compile()
		t0 := time.Now()
		oneShotSegment(true)
		t1 := time.Now()
		pipelineSegment()
		t2 := time.Now()
		oneWall, pipeWall = oneWall+t1.Sub(t0), pipeWall+t2.Sub(t1)
		all.round(segOps, t2.Sub(t1)) // the rate is the pipelined segment's
	}
	all.ops *= 2 // the one-shot segments' ops
	for _, l := range lanes {
		for c := range all.lat {
			all.lat[c] = append(all.lat[c], l.rec.lat[c]...)
		}
	}
	after := readProc()
	statsAfter := w.srv.Stats()

	// The closing census follows the measured rounds, a fixed op count.
	heap := heapAfterGC()
	end := w.space()
	oracleLive := func() (n int) {
		for _, l := range lanes {
			n += l.st.live
		}
		return n
	}
	if want := oracleLive(); end.liveRows != want {
		out.fail("live rows after the measured rounds: table has %d, oracle %d", end.liveRows, want)
	}

	m := out.metrics
	if !o.trace {
		out.endToEnd(setup, built, end, heap-heapBase)
		o.verbose("rounds=%d measured=%.1f s; per-layer, not gated: %s", measured, (oneWall + pipeWall).Seconds(), all.timings())
	} else {
		timingLayers(m, "client", all, before, after, end)
		total := float64(measured * segOps)
		m["client.oneshot_ops_per_s"] = total / oneWall.Seconds()
		m["client.pipeline_ops_per_s"] = total / pipeWall.Seconds()
		if reqs := statsAfter.Requests - statsBefore.Requests; reqs > 0 {
			m["server.coalesce_ratio"] = float64(statsAfter.Coalesced-statsBefore.Coalesced) / float64(reqs)
		}
		m["server.rejected"] = float64(statsAfter.Rejected + statsAfter.QuotaRejected)
		if err := traceWire(w, spec, o, lanes, m, traced, compile); err != nil {
			return nil, err
		}
	}
	out.hash = traceHash(streams)
	for _, l := range lanes {
		out.attempted += l.tally.attempted
		out.failed += l.tally.failed
		out.examples = append(out.examples, l.tally.examples...)
	}

	// Closing audit: the table holds exactly the oracle's live rows, then
	// a final checkpoint and compaction drain for the bytes on disk.
	liveWant := oracleLive()
	if got := w.pt.Len(); got != liveWant {
		out.fail("closing audit: table has %d live rows, oracle %d", got, liveWant)
	} else {
		out.attempted++
	}
	if o.trace {
		if err := w.d.Checkpoint(); err != nil {
			return nil, err
		}
		if err := drainCompaction(w.d); err != nil {
			return nil, err
		}
		disk, err := dirBytes(w.dir)
		if err != nil {
			return nil, err
		}
		ss := w.d.StorageStats()
		live := float64(liveWant)
		m["engine.disk_bytes_per_row"] = float64(disk) / live
		m["block.write_amp"] = ss.WriteAmplification
		m["block.flushes"] = float64(ss.Flushes)
		m["block.compactions"] = float64(ss.Compactions)
		m["block.bytes_per_row"] = float64(ss.BlockBytes) / live
		m["block.max_level"] = float64(ss.MaxLevel)
		m["block.backlog_end"] = float64(ss.CompactionBacklog)
		m["block.compact_errors"] = float64(ss.CompactErrors)
	}
	return out, nil
}
