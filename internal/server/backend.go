package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"hermit/internal/engine"
	"hermit/internal/partition"
	"hermit/internal/server/proto"
)

// backend adapts the wire protocol's operation surface onto a DurableDB.
// Every table it serves is a partition.Table — an unpartitioned table is
// its own only partition — so every read takes one road (answer): resolve
// the table, query it at a snapshot, fetch the rows under that same
// snapshot, answer. The snapshot is what keeps the query's rows: a version
// it can see is not reclaimed while it is registered, so the RIDs the query
// returns stay good through the fetch. A read run holds one snapshot for
// the run; an atomic batch or a wire transaction reads at its
// transaction's.
//
// Tenant namespaces are pure name mangling at this layer: tenant "acme"'s
// table "users" is the engine table "acme@users". '@' is reserved in
// client-supplied names so tenants cannot collide or escape, and '#' is
// reserved by the partitioning layer.
type backend struct {
	d       *engine.DurableDB
	workers int

	mu     sync.Mutex
	tables map[string]*partition.Table
}

func newBackend(d *engine.DurableDB, workers int) *backend {
	return &backend{d: d, workers: workers, tables: make(map[string]*partition.Table)}
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

// resolve returns the served table behind a physical (tenant-mangled)
// name, opening its partition.Table wrapper on first use. A wrapper holds
// the engine tables of its partitions, which DDL changes in place, so it
// stays good for the life of the database.
func (b *backend) resolve(name string) (*partition.Table, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if pt, ok := b.tables[name]; ok {
		return pt, nil
	}
	pt, err := partition.OpenDurable(b.d, name, partition.Options{Workers: b.workers})
	if err != nil {
		return nil, err
	}
	b.tables[name] = pt
	return pt, nil
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
		op.Kind, op.Col, op.Lo = engine.OpPoint, int(r.Col), r.Lo
	case proto.ReqRange:
		op.Kind, op.Col, op.Lo, op.Hi = engine.OpRange, int(r.Col), r.Lo, r.Hi
	case proto.ReqRange2:
		op.Kind, op.Col, op.Lo, op.Hi = engine.OpRange2, int(r.Col), r.Lo, r.Hi
		op.BCol, op.BLo, op.BHi = int(r.BCol), r.BLo, r.BHi
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
// engine ops, answering the ones that do not convert; idx maps each op back
// to its request.
func engineOps(tenant string, reqs []proto.Request, out []proto.Response) (ops []engine.Op, idx []int) {
	ops, idx = make([]engine.Op, 0, len(reqs)), make([]int, 0, len(reqs))
	for i := range reqs {
		if out[i].Type != respNone {
			continue
		}
		op, err := engineOp(tenant, &reqs[i])
		if err != nil {
			out[i] = errorResponse(err)
			continue
		}
		ops, idx = append(ops, op), append(idx, i)
	}
	return ops, idx
}

// answer runs one read op on its table at snap and fetches the rows under
// the same snapshot, which pins them until the fetch is done.
func (b *backend) answer(snap *engine.Snapshot, op engine.Op) proto.Response {
	pt, err := b.resolve(op.Table)
	if err != nil {
		return errorResponse(err)
	}
	res := pt.QueryAt(snap, op)
	if res.Err != nil {
		return errorResponse(res.Err)
	}
	rows := make([][]float64, len(res.RIDs))
	for i, rid := range res.RIDs {
		if rows[i], err = pt.FetchRow(rid); err != nil {
			return errorResponse(err)
		}
	}
	return proto.Response{Type: proto.RespRows, Rows: rows}
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
func (b *backend) runReads(tenant string, reqs []proto.Request, out []proto.Response) {
	ops, idx := engineOps(tenant, reqs, out)
	snap := b.d.Snapshot()
	defer snap.Release()
	resps := engine.Parallel(ops, b.workers, func(op engine.Op) proto.Response { return b.answer(snap, op) })
	for k, resp := range resps {
		out[idx[k]] = resp
	}
}

// runBatch executes a wire batch under the engine's batch contract
// (engine.ExecBatch) in one DurableTxn: queries on any table read the
// batch-start snapshot, mutations on any table commit all-or-nothing, and
// each op is answered on its own — a missing table fails its op, never the
// batch.
func (b *backend) runBatch(tenant string, r *proto.Request) proto.Response {
	ops := make([]engine.Op, len(r.Ops))
	for i := range r.Ops {
		op, err := engineOp(tenant, &r.Ops[i])
		if err != nil {
			return errorResponse(err)
		}
		ops[i] = op
	}
	return proto.Response{Type: proto.RespBatch, Results: engine.ExecBatch(b.d.Begin(), ops, b.workers, b.answer, written)}
}

// runWrites executes a run of auto-commit mutation requests — the write
// side of the session's pipelining unit — through one ApplyEach: each
// request is its own mutation with its own outcome, and the run waits for
// the log once. Responses land in out like runReads'.
func (b *backend) runWrites(tenant string, reqs []proto.Request, out []proto.Response) {
	ops, idx := engineOps(tenant, reqs, out)
	for k, res := range b.d.ApplyEach(ops) {
		out[idx[k]] = written(ops[k], res.Found, res.Err)
	}
}

// runTxnQuery executes a read inside an open transaction, at the
// transaction's snapshot.
func (b *backend) runTxnQuery(tenant string, tx *engine.DurableTxn, r *proto.Request) proto.Response {
	op, err := engineOp(tenant, r)
	if err != nil {
		return errorResponse(err)
	}
	return b.answer(tx.Snapshot(), op)
}

// runTxnMutation buffers one mutation into an open transaction.
func runTxnMutation(tenant string, tx *engine.DurableTxn, r *proto.Request) proto.Response {
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
