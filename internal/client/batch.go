package client

import (
	"hermit/internal/server/proto"
)

// This file is the batch and pipelining surface. Batch is server-side
// atomicity (one request, all-or-nothing mutations); Pipeline is a wire
// optimisation (many requests written before any response is read, which
// the server coalesces into engine batch executions).

// OpKind names a batchable operation.
type OpKind int

// Batchable operation kinds.
const (
	// OpPoint is an equality query on Col with value Lo.
	OpPoint OpKind = iota
	// OpRange is a range query on Col over [Lo, Hi].
	OpRange
	// OpRange2 is a conjunctive two-column range query.
	OpRange2
	// OpInsert inserts Row.
	OpInsert
	// OpUpdate sets Col of the row with key PK to Value.
	OpUpdate
	// OpDelete removes the row with key PK.
	OpDelete
)

// Op is one operation inside a Batch.
type Op struct {
	Kind     OpKind
	Table    string
	Col      int
	Lo, Hi   float64
	BCol     int
	BLo, BHi float64
	Row      []float64
	PK       float64
	Value    float64
}

// Result is one operation's outcome inside a batch (or pipeline).
type Result struct {
	// Rows are a query's matches.
	Rows [][]float64
	// Found reports a delete's outcome.
	Found bool
	// Err is the per-op failure: inside an atomic batch a failing
	// mutation carries its own error and every sibling mutation reports
	// ErrAborted.
	Err error
}

func (op *Op) toRequest() proto.Request {
	r := proto.Request{
		Table: op.Table, Col: uint16(op.Col), Lo: op.Lo, Hi: op.Hi,
		BCol: uint16(op.BCol), BLo: op.BLo, BHi: op.BHi,
		Row: op.Row, PK: op.PK, Value: op.Value,
	}
	switch op.Kind {
	case OpPoint:
		r.Type = proto.ReqPoint
	case OpRange:
		r.Type = proto.ReqRange
	case OpRange2:
		r.Type = proto.ReqRange2
	case OpInsert:
		r.Type = proto.ReqInsert
	case OpUpdate:
		r.Type = proto.ReqUpdate
	case OpDelete:
		r.Type = proto.ReqDelete
	}
	return r
}

func resultOf(resp proto.Response) Result {
	var res Result
	switch resp.Type {
	case proto.RespRows:
		res.Rows = resp.Rows
	case proto.RespFound:
		res.Found = resp.Found
	case proto.RespError:
		res.Err = &Error{Code: resp.Code, Msg: resp.Msg}
	}
	return res
}

// Batch executes ops as one atomic server-side batch: mutations commit as
// a single transaction (all or nothing), queries read the batch's
// snapshot. Results align positionally with ops. The returned error
// covers batch-level failures only; per-op failures are in Result.Err.
func (c *Conn) Batch(ops []Op) ([]Result, error) {
	req := proto.Request{Type: proto.ReqBatch, Ops: make([]proto.Request, len(ops))}
	for i := range ops {
		req.Ops[i] = ops[i].toRequest()
	}
	resp, err := c.roundTrip(&req)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(resp.Results))
	for i, r := range resp.Results {
		results[i] = resultOf(r)
	}
	return results, nil
}

// Pipeline queues requests client-side and writes them all in one burst;
// Flush then reads every response in order. Unlike Batch, pipelined ops
// are independent auto-commit requests — no atomicity across them — but
// the server coalesces adjacent reads into engine batch executions, so a
// pipeline of point queries executes on the engine's worker pool instead
// of lockstep round trips.
//
// Flush encodes the burst into the connection's write scratch and writes
// it at once, and decodes the responses through its read scratch, as a
// single round trip does: a burst of writes allocates its []Result and
// nothing per request. A queued insert keeps its caller's row until Flush;
// Flush lets go of it.
type Pipeline struct {
	c    *Conn
	reqs []proto.Request
	err  error
}

// Pipeline starts an empty pipeline on the connection. The connection
// must not be used for other requests until Flush returns.
func (c *Conn) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Ping queues a no-op.
func (p *Pipeline) Ping() { p.add(proto.Request{Type: proto.ReqPing}) }

// Point queues an equality query.
func (p *Pipeline) Point(table string, col int, v float64) {
	p.add(proto.Request{Type: proto.ReqPoint, Table: table, Col: uint16(col), Lo: v})
}

// Range queues a range query.
func (p *Pipeline) Range(table string, col int, lo, hi float64) {
	p.add(proto.Request{Type: proto.ReqRange, Table: table, Col: uint16(col), Lo: lo, Hi: hi})
}

// Insert queues an insert.
func (p *Pipeline) Insert(table string, row []float64) {
	p.add(proto.Request{Type: proto.ReqInsert, Table: table, Row: row})
}

// Update queues a column update.
func (p *Pipeline) Update(table string, pk float64, col int, v float64) {
	p.add(proto.Request{Type: proto.ReqUpdate, Table: table, PK: pk, Col: uint16(col), Value: v})
}

// Delete queues a delete.
func (p *Pipeline) Delete(table string, pk float64) {
	p.add(proto.Request{Type: proto.ReqDelete, Table: table, PK: pk})
}

// Op queues any batchable op.
func (p *Pipeline) Op(op Op) { p.add(op.toRequest()) }

// Len reports the number of queued requests.
func (p *Pipeline) Len() int { return len(p.reqs) }

func (p *Pipeline) add(r proto.Request) { p.reqs = append(p.reqs, r) }

// Flush writes every queued request, reads every response in order, and
// resets the pipeline. Per-request failures (including overload
// rejections) land in the matching Result.Err; the returned error is a
// transport failure only.
func (p *Pipeline) Flush() ([]Result, error) {
	if p.err != nil {
		return nil, p.err
	}
	c, n := p.c, len(p.reqs)
	frames := c.wbuf[:0]
	var err error
	for i := range p.reqs {
		if frames, err = proto.AppendRequest(frames, &p.reqs[i]); err != nil {
			break
		}
	}
	clear(p.reqs) // the burst's rows and table names are the caller's again
	p.reqs = p.reqs[:0]
	if err == nil {
		err = c.send(frames)
	}
	if err != nil {
		p.err = err
		return nil, err
	}
	results := make([]Result, n)
	for i := range results {
		resp, err := c.recv()
		if err != nil {
			p.err = err
			return nil, err
		}
		results[i] = resultOf(resp)
	}
	return results, nil
}
