package server

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"hermit/internal/engine"
	"hermit/internal/server/proto"
)

// backend adapts the wire protocol's operation surface onto a DurableDB.
// Every read takes one road (answer): the database's read of the table the
// op names (engine.DB.Exec), plain or partitioned, at a snapshot, its legs
// on at most workers goroutines, answered with the rows. A read run holds
// one snapshot for the run; an atomic batch or a wire transaction reads at
// its transaction's.
//
// Tenant namespaces are pure name mangling at this layer: tenant "acme"'s
// table "users" is the engine table "acme@users". '@' is reserved in
// client-supplied names so tenants cannot collide or escape, and '#' is
// reserved by the partitioning layer.
type backend struct {
	d       *engine.DurableDB
	workers int
}

func newBackend(d *engine.DurableDB, workers int) *backend {
	return &backend{d: d, workers: workers}
}

// errReject wraps a proto error code so session code can map engine
// failures onto wire responses without string matching.
type errReject struct {
	code proto.ErrCode
	msg  string
}

func (e errReject) Error() string { return e.msg }

func reject(code proto.ErrCode, format string, args ...any) error {
	return errReject{code: code, msg: fmt.Sprintf(format, args...)}
}

// errorResponse maps an error — errReject or a raw engine error — onto a
// wire error response.
func errorResponse(err error) proto.Response {
	code := proto.CodeInternal
	var rej errReject
	switch {
	case errors.As(err, &rej):
		code = rej.code
	case errors.Is(err, engine.ErrWriteConflict):
		code = proto.CodeConflict
	case errors.Is(err, engine.ErrTxnAborted):
		code = proto.CodeAborted
	case errors.Is(err, engine.ErrTxnDone):
		code = proto.CodeTxnUnknown
	case errors.Is(err, engine.ErrNoSuchTable):
		code = proto.CodeNoTable
	case errors.Is(err, engine.ErrDupKey), errors.Is(err, engine.ErrDupTable):
		code = proto.CodeDupKey
	}
	msg := err.Error()
	if len(msg) > 512 {
		msg = msg[:512]
	}
	return proto.Response{Type: proto.RespError, Code: code, Msg: msg}
}

// physical maps a client-visible table name into the tenant's namespace,
// rejecting names that could cross namespaces or collide with the
// partition layer's physical names.
func physical(tenant, table string) (string, error) {
	if table == "" || strings.ContainsAny(table, "@#") {
		return "", reject(proto.CodeBadRequest, "invalid table name %q", table)
	}
	if tenant == "" {
		return table, nil
	}
	return tenant + "@" + table, nil
}

// validTenant rejects tenant names that could escape the '@' mangling.
func validTenant(tenant string) error {
	if len(tenant) > 64 || strings.ContainsAny(tenant, "@#") {
		return reject(proto.CodeBadRequest, "invalid tenant name %q", tenant)
	}
	return nil
}

// engineOp converts a wire op into an engine.Op against physical table
// names. Only the six batchable kinds appear here (proto enforces that).
func engineOp(tenant string, r *proto.Request) (engine.Op, error) {
	name, err := physical(tenant, r.Table)
	if err != nil {
		return engine.Op{}, err
	}
	op := engine.Op{Table: name}
	switch r.Type {
	case proto.ReqPoint:
		op.Kind, op.Query = engine.OpQuery, engine.Query{Col: int(r.Col), Lo: r.Lo, Hi: r.Lo}
	case proto.ReqRange:
		op.Kind, op.Query = engine.OpQuery, engine.Query{Col: int(r.Col), Lo: r.Lo, Hi: r.Hi}
	case proto.ReqRange2:
		op.Kind, op.Query = engine.OpQuery, engine.Query{Col: int(r.Col), Lo: r.Lo, Hi: r.Hi,
			And: &engine.Pred{Col: int(r.BCol), Lo: r.BLo, Hi: r.BHi}}
	case proto.ReqInsert:
		op.Kind, op.Row = engine.OpInsert, r.Row
	case proto.ReqUpdate:
		op.Kind, op.PK, op.Col, op.Value = engine.OpUpdate, r.PK, int(r.Col), r.Value
	case proto.ReqDelete:
		op.Kind, op.PK = engine.OpDelete, r.PK
	default:
		return engine.Op{}, reject(proto.CodeBadRequest, "op type %d not batchable", r.Type)
	}
	return op, nil
}

// engineOps converts the requests of a run that are still unanswered into
// engine ops in sc.ops, answering the ones that do not convert; sc.idx maps
// each op back to its request.
func (sc *runScratch) engineOps(tenant string, reqs []proto.Request, out []proto.Response) {
	for i := range reqs {
		if out[i].Type != respNone {
			continue
		}
		op, err := engineOp(tenant, &reqs[i])
		if err != nil {
			out[i] = errorResponse(err)
			continue
		}
		sc.ops, sc.idx = append(sc.ops, op), append(sc.idx, i)
	}
}

// answer runs one read op on its table at op.Query.Snap: one Exec.
func (b *backend) answer(op engine.Op) proto.Response {
	return rowsAnswer(b.d.Exec(op.Table, op.Query, b.workers, nil))
}

// rowsAnswer answers one read from its outcome: st.Rows whole rows, back to back
// in flat.
func rowsAnswer(flat []float64, st engine.GatherStats, err error) proto.Response {
	if err != nil {
		return errorResponse(err)
	}
	resp := proto.Response{Type: proto.RespRows}
	if n := st.Rows; n > 0 {
		resp.Rows = engine.SplitRows(flat, len(flat)/n, make([][]float64, 0, n))
	}
	return resp
}

// written answers one mutation from its outcome.
func written(op engine.Op, found bool, err error) proto.Response {
	switch {
	case err != nil:
		return errorResponse(err)
	case op.Kind == engine.OpDelete:
		return proto.Response{Type: proto.RespFound, Found: found}
	}
	return proto.Response{Type: proto.RespOK}
}

// runReads executes a coalesced group of auto-commit read requests — the
// session's pipelining unit — on the engine's read pool at one snapshot.
// Responses land in out at their request's position; a position the
// session has already answered (quota, role) is left alone.
func (b *backend) runReads(tenant string, reqs []proto.Request, out []proto.Response, sc *runScratch) {
	sc.engineOps(tenant, reqs, out)
	snap := b.d.Snapshot()
	defer snap.Release()
	for i := range sc.ops {
		sc.ops[i].Query.Snap = snap
	}
	resps := engine.Parallel(sc.ops, b.workers, b.answer)
	for k, resp := range resps {
		out[sc.idx[k]] = resp
	}
}

// runBatch executes a wire batch through the database's ExecuteBatch, one
// logged Txn: queries on any table read the batch-start snapshot,
// mutations on any table commit all-or-nothing, and each op is answered on
// its own — a missing table fails its op, never the batch.
func (b *backend) runBatch(tenant string, r *proto.Request) proto.Response {
	ops := make([]engine.Op, len(r.Ops))
	for i := range r.Ops {
		op, err := engineOp(tenant, &r.Ops[i])
		if err != nil {
			return errorResponse(err)
		}
		ops[i] = op
	}
	results := make([]proto.Response, len(ops))
	for i, res := range b.d.ExecuteBatch(ops, b.workers) {
		if ops[i].Kind == engine.OpQuery {
			results[i] = rowsAnswer(res.Rows, res.Stats, res.Err)
		} else {
			results[i] = written(ops[i], res.Found, res.Err)
		}
	}
	return proto.Response{Type: proto.RespBatch, Results: results}
}

// runWrites executes a run of auto-commit mutation requests — the write
// side of the session's pipelining unit — through one ApplyEach: each
// request is its own mutation with its own outcome, and the run waits for
// the log once. Responses land in out like runReads'.
func (b *backend) runWrites(tenant string, reqs []proto.Request, out []proto.Response, sc *runScratch) {
	sc.engineOps(tenant, reqs, out)
	sc.results = slices.Grow(sc.results[:0], len(sc.ops))[:len(sc.ops)]
	b.d.ApplyEach(sc.ops, sc.results)
	for k := range sc.results {
		out[sc.idx[k]] = written(sc.ops[k], sc.results[k].Found, sc.results[k].Err)
	}
}

// runTxnQuery executes a read inside an open transaction, at the
// transaction's snapshot.
func (b *backend) runTxnQuery(tenant string, tx *engine.Txn, r *proto.Request) proto.Response {
	op, err := engineOp(tenant, r)
	if err != nil {
		return errorResponse(err)
	}
	op.Query.Snap = tx.Snapshot()
	return b.answer(op)
}

// runTxnMutation buffers one mutation into an open transaction.
func runTxnMutation(tenant string, tx *engine.Txn, r *proto.Request) proto.Response {
	op, err := engineOp(tenant, r)
	if err != nil {
		return errorResponse(err)
	}
	found, err := tx.Mutate(op)
	return written(op, found, err)
}

// runDDL executes a create-table or create-index request.
func (b *backend) runDDL(tenant string, r *proto.Request) proto.Response {
	name, err := physical(tenant, r.Table)
	if err != nil {
		return errorResponse(err)
	}
	switch r.Type {
	case proto.ReqCreateTable:
		if len(r.Cols) == 0 || int(r.PKCol) >= len(r.Cols) {
			return errorResponse(reject(proto.CodeBadRequest,
				"create table %q: %d columns, pk %d", r.Table, len(r.Cols), r.PKCol))
		}
		if r.Parts > 0 {
			err = b.d.CreatePartitionedTable(name, r.Cols, int(r.PKCol), int(r.Parts))
		} else {
			_, err = b.d.CreateTable(name, r.Cols, int(r.PKCol))
		}
	case proto.ReqCreateIndex:
		def := engine.IndexDef{Col: int(r.Col)}
		switch r.Kind {
		case proto.IndexBTree:
			def.Kind = "btree"
		case proto.IndexHermit:
			def.Kind = "hermit"
			def.Host = int(r.Host)
		}
		err = b.d.CreateIndex(name, def)
	default:
		return errorResponse(reject(proto.CodeBadRequest, "type %d is not DDL", r.Type))
	}
	if err != nil {
		return errorResponse(err)
	}
	return proto.Response{Type: proto.RespOK}
}
