package main

import (
	"fmt"
	"path/filepath"
	"time"

	hermitdb "hermit"
	"hermit/internal/server/proto"
)

// Traced run of wire-mixed. After each timed one-shot request the same
// goroutine repeats, in process, what the layers under the client did for
// it: the four codec steps on the same payloads, the embedded execution
// of the same query on the same partitioned table, the scatter-gather on
// a one-worker wrapper (so a gather's self time is its wall minus its
// partition calls), the TRS-Tree lookups, and for writes the WAL append.
// What remains of the client's wall time is the serving tier's own:
// sockets, session queue, goroutine hand-offs (server.self_us).

// routeEvery: one point in this many also probes the pk routing path.
const routeEvery = 8

type wireTraceLane struct {
	tr       *tracer
	wal      *walShadow
	reqBuf   []byte
	respBuf  []byte
	dst      []hermitdb.RID
	points   int
	reqBytes float64
	rspBytes float64
	frames   float64
}

func traceWire(w *wire, spec workloadSpec, o runOpts, lanes []*wireLane, m map[string]float64, rounds int, compile func()) error {
	seq, err := hermitdb.OpenPartitionedDurable(w.d, wireTable, hermitdb.PartitionOptions{Workers: 1})
	if err != nil {
		return err
	}
	for j, l := range lanes {
		ws, err := openWalShadow(fmt.Sprintf("%s.shadow-wal-%d", w.dir, j))
		if err != nil {
			return err
		}
		l.traceLane = &wireTraceLane{tr: newTracer(), wal: ws}
	}
	errs := make([]error, len(lanes))
	for ; rounds > 0; rounds-- {
		compile()
		w.each(func(j int) {
			l := lanes[j]
			for i := range l.oneOps {
				op := &l.oneOps[i]
				got, err := w.tracedOneShot(w.conns[j], seq, op, l)
				l.tally.check(op, got, err)
				if err != nil && errs[j] == nil {
					errs[j] = err
				}
			}
		})
		w.each(func(j int) { w.pipelined(w.conns[j], lanes[j].pipeOps, &lanes[j].tally) })
	}
	tr := lanes[0].traceLane.tr
	var reqBytes, rspBytes, frames float64
	for j, l := range lanes {
		tl := l.traceLane
		if j > 0 {
			tr.merge(tl.tr)
		}
		reqBytes, rspBytes, frames = reqBytes+tl.reqBytes, rspBytes+tl.rspBytes, frames+tl.frames
		per, err := tl.wal.finish()
		if err != nil {
			return err
		}
		m["wal.bytes_per_write"] = per // the lanes log the same mix
		if errs[j] != nil {
			return errs[j]
		}
	}

	for _, name := range []string{
		"proto.encode_req_us", "proto.decode_req_us", "proto.encode_resp_us", "proto.decode_resp_us",
		"server.self_us", "partition.gather_self_us", "partition.route_self_us",
		"wal.append_us", "trstree.lookup_us", "engine.point_self_us", "engine.range_self_us",
	} {
		m[name] = tr.med(name)
	}
	m["partition.fanout"] = mean(tr.samples["partition.fanout"])
	m["trstree.leaves_per_lookup"] = mean(tr.samples["trstree.leaves"])
	m["trstree.ranges_per_lookup"] = mean(tr.samples["trstree.ranges"])
	if frames > 0 {
		m["proto.bytes_per_req"] = reqBytes / frames
		m["proto.bytes_per_resp"] = rspBytes / frames
	}
	if e2e := tr.med("e2e.point_us"); e2e > 0 {
		m["bench.trace_overhead_ratio"] = e2e / m["client.point_p50_us"]
		m["share.point_sum_ratio"] = (m["proto.encode_req_us"] + m["proto.decode_req_us"] + m["proto.encode_resp_us"] +
			m["proto.decode_resp_us"] + m["engine.point_self_us"] + m["server.self_us"]) / e2e
	}
	tr.shares(m)
	return tr.write(filepath.Join(o.outDir, "trace-"+spec.Name+".json"))
}

// tracedOneShot is oneShot plus the shadow calls for the same request.
func (w *wire) tracedOneShot(c *hermitdb.ClientConn, seq *hermitdb.PartitionedTable, o *op, l *wireLane) (int32, error) {
	tl := l.traceLane
	tr := tl.tr
	tr.nextOp()
	t0 := time.Now()
	got, err := w.oneShot(c, o, l.row[:])
	t1 := time.Now()
	if err != nil {
		return got, err
	}
	tr.span("client."+opNames[o.kind], t0, t1, 0)
	wall := t1.Sub(t0)

	if o.kind != opRange && o.kind != opPoint {
		_, err := tl.wal.append(wireTable, o, l.row[:], tr)
		return got, err
	}

	// Codec on the request.
	req := proto.Request{Type: proto.ReqRange, Table: wireTable, Col: colKey, Lo: o.lo, Hi: o.hi}
	if o.kind == opPoint {
		req.Type = proto.ReqPoint
	}
	a0 := time.Now()
	frame, err := proto.AppendRequest(tl.reqBuf[:0], &req)
	a1 := time.Now()
	if err != nil {
		return got, err
	}
	tl.reqBuf = frame
	_, err = proto.DecodeRequest(frame[4:]) // the payload follows the u32 length prefix
	a2 := time.Now()
	if err != nil {
		return got, err
	}
	tr.span("proto.AppendRequest(shadow)", a0, a1, 0)
	tr.span("proto.DecodeRequest(shadow)", a1, a2, 0)

	// Embedded execution of the same query, rows materialised as the
	// server's backend does.
	e0 := time.Now()
	rids, _, err := w.pt.RangeQuery(colKey, o.lo, o.hi)
	if err != nil {
		return got, err
	}
	rows := make([][]float64, 0, len(rids))
	for _, rid := range rids {
		row, err := w.pt.FetchRow(rid)
		if err != nil {
			return got, err
		}
		rows = append(rows, row)
	}
	e1 := time.Now()
	exec := tr.span("partition.RangeQuery+fetch(shadow)", e0, e1, 0)

	// Codec on the response.
	resp := proto.Response{Type: proto.RespRows, Rows: rows}
	r0 := time.Now()
	rframe, err := proto.AppendResponse(tl.respBuf[:0], &resp)
	r1 := time.Now()
	if err != nil {
		return got, err
	}
	tl.respBuf = rframe
	_, err = proto.DecodeResponse(rframe[4:])
	r2 := time.Now()
	if err != nil {
		return got, err
	}
	tr.span("proto.AppendResponse(shadow)", r0, r1, 0)
	tr.span("proto.DecodeResponse(shadow)", r1, r2, 0)

	// Scatter-gather self time on the one-worker wrapper.
	g0 := time.Now()
	_, pst, err := seq.RangeQuery(colKey, o.lo, o.hi)
	g1 := time.Now()
	if err != nil {
		return got, err
	}
	gather := tr.span("partition.gather(shadow)", g0, g1, 0)
	var inParts, inTrees time.Duration
	for i := 0; i < seq.Partitions(); i++ {
		part := seq.Part(i)
		p0 := time.Now()
		prids, _, err := part.RangeQueryInto(colKey, o.lo, o.hi, tl.dst)
		p1 := time.Now()
		if err != nil {
			return got, err
		}
		tl.dst = prids
		tr.span("engine.RangeQuery(shadow)", p0, p1, gather)
		inParts += p1.Sub(p0)
		if hx := part.Hermit(colKey); hx != nil {
			x0 := time.Now()
			res := hx.Tree().Lookup(o.lo, o.hi)
			x1 := time.Now()
			tr.span("trstree.Lookup(shadow)", x0, x1, exec)
			inTrees += x1.Sub(x0)
			if o.kind == opRange {
				tr.sample("trstree.lookup_us", us(x1.Sub(x0)))
				tr.sample("trstree.leaves", float64(res.LeavesVisited))
				tr.sample("trstree.ranges", float64(len(res.Ranges)))
			}
		}
	}
	gatherSelf := max(g1.Sub(g0)-inParts, 0)
	codec := a2.Sub(a0) + r2.Sub(r0)
	execWall := e1.Sub(e0)
	self := wall - codec - execWall

	// The shadow calls ran one partition after another, the real gather
	// two at a time: the TRS-Tree's share of the partition calls is applied
	// to the embedded execution's wall time.
	engineWall := max(execWall-gatherSelf, 0)
	tr.add("time.total", us(wall))
	tr.add("time.serving", us(wall-engineWall))
	if inParts > 0 {
		tr.add("time.index", us(engineWall)*min(1, float64(inTrees)/float64(inParts)))
	}
	if o.kind == opRange {
		tr.sample("partition.gather_self_us", us(gatherSelf))
		tr.sample("partition.fanout", float64(pst.FanOut))
		tr.sample("engine.range_self_us", us(execWall))
		return got, nil
	}
	tr.sample("e2e.point_us", us(wall))
	tr.sample("proto.encode_req_us", us(a1.Sub(a0)))
	tr.sample("proto.decode_req_us", us(a2.Sub(a1)))
	tr.sample("proto.encode_resp_us", us(r1.Sub(r0)))
	tr.sample("proto.decode_resp_us", us(r2.Sub(r1)))
	tr.sample("engine.point_self_us", us(execWall))
	tr.sample("server.self_us", us(self))
	tl.reqBytes += float64(len(frame))
	tl.rspBytes += float64(len(rframe))
	tl.frames++

	// Routing: a pk point goes to one partition; its self time is the
	// routed call minus the owner partition's own query.
	tl.points++
	if tl.points%routeEvery == 0 && len(rows) > 0 {
		pk := rows[0][colPK]
		q0 := time.Now()
		prids, _, err := w.pt.PointQuery(colPK, pk)
		q1 := time.Now()
		if err != nil || len(prids) != 1 {
			return got, fmt.Errorf("route probe pk %v: %d rows, err %v", pk, len(prids), err)
		}
		routed := tr.span("partition.route(shadow)", q0, q1, 0)
		o0 := time.Now()
		orids, _, err := w.pt.Part(prids[0].Part).PointQueryInto(colPK, pk, tl.dst)
		o1 := time.Now()
		if err != nil {
			return got, err
		}
		tl.dst = orids
		tr.span("engine.PointQuery(shadow)", o0, o1, routed)
		tr.sample("partition.route_self_us", us(max(q1.Sub(q0)-o1.Sub(o0), 0)))
	}
	return got, nil
}
