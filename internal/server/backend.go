package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"hermit/internal/engine"
	"hermit/internal/partition"
	"hermit/internal/server/proto"
	"hermit/internal/storage"
)

// isQuery reports whether an op kind is one of the three read kinds.
func isQuery(k engine.OpKind) bool {
	switch k {
	case engine.OpPoint, engine.OpRange, engine.OpRange2:
		return true
	}
	return false
}

// backend adapts the wire protocol's operation surface onto a DurableDB.
// It owns the two impedance mismatches the engine does not hide:
//
//   - Partitioned logical tables. DurableDB mutations auto-route to hash
//     partitions, but queries on a partitioned logical name must go
//     through a partition.Table wrapper (the engine only knows the t#i
//     physical tables). The backend caches one wrapper per partitioned
//     table and routes per request.
//
//   - RID lifetime. Queries return version RIDs; between the query and
//     the row fetch, the next commit to supersede a version reclaims it.
//     Every query path here holds a guard snapshot — registered before the
//     query's own snapshot, so its timestamp is no newer — across the
//     fetch, which pins the reclaim horizon below anything the query can
//     see.
//
// Tenant namespaces are pure name mangling at this layer: tenant "acme"'s
// table "users" is the engine table "acme@users". '@' is reserved in
// client-supplied names so tenants cannot collide or escape, and '#' is
// reserved by the partitioning layer.
type backend struct {
	d       *engine.DurableDB
	workers int

	mu    sync.Mutex
	parts map[string]*partition.Table
}

func newBackend(d *engine.DurableDB, workers int) *backend {
	return &backend{d: d, workers: workers, parts: make(map[string]*partition.Table)}
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

// resolve returns the partition wrapper for a partitioned logical table,
// or nil for a plain table. name is already physical (tenant-mangled).
func (b *backend) resolve(name string) (*partition.Table, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if pt, ok := b.parts[name]; ok {
		return pt, nil
	}
	n, err := b.d.Partitions(name)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	pt, err := partition.OpenDurable(b.d, name, partition.Options{Workers: b.workers})
	if err != nil {
		return nil, err
	}
	b.parts[name] = pt
	return pt, nil
}

// forget drops a cached wrapper (used when DDL changes a table's shape —
// currently only index creation, which the wrapper reflects lazily enough
// that a re-open is the simplest correctness story).
func (b *backend) forget(name string) {
	b.mu.Lock()
	delete(b.parts, name)
	b.mu.Unlock()
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

// fetchPlain materialises query-result rows from a plain engine table.
func (b *backend) fetchPlain(table string, rids []storage.RID) ([][]float64, error) {
	tb, err := b.d.Table(table)
	if err != nil {
		return nil, err
	}
	rows, err := tb.FetchRows(rids, nil)
	if err != nil {
		return nil, err
	}
	// FetchRows reuses one backing buffer per call; copy before the next
	// fetch (and before the response outlives the guard snapshot scope).
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out, nil
}

// fetchPart materialises query-result rows from a partitioned table.
func fetchPart(pt *partition.Table, rids []partition.RID) ([][]float64, error) {
	out := make([][]float64, 0, len(rids))
	for _, rid := range rids {
		row, err := pt.FetchRow(rid)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// runReads executes a coalesced group of auto-commit read requests — the
// session's pipelining unit. Plain-table ops funnel into one
// DurableDB.ExecuteBatch call (shared snapshot, worker pool); ops on each
// partitioned table funnel into that table's ExecuteBatch. A guard
// snapshot taken before either call covers the row fetches. Responses land
// in out at their request's position; a position the session has already
// answered (quota, role) is left alone.
func (b *backend) runReads(tenant string, reqs []proto.Request, out []proto.Response) {
	guard := b.d.Snapshot()
	defer guard.Release()

	var plainOps []engine.Op
	var plainIdx []int
	partOps := make(map[*partition.Table][]engine.Op)
	partIdx := make(map[*partition.Table][]int)

	for i := range reqs {
		if out[i].Type != respNone {
			continue
		}
		op, err := engineOp(tenant, &reqs[i])
		if err != nil {
			out[i] = errorResponse(err)
			continue
		}
		pt, err := b.resolve(op.Table)
		if err != nil {
			out[i] = errorResponse(err)
			continue
		}
		if pt == nil {
			plainOps, plainIdx = append(plainOps, op), append(plainIdx, i)
		} else {
			partOps[pt], partIdx[pt] = append(partOps[pt], op), append(partIdx[pt], i)
		}
	}

	if len(plainOps) > 0 {
		results := b.d.ExecuteBatch(plainOps, b.workers)
		for k, res := range results {
			i := plainIdx[k]
			if res.Err != nil {
				out[i] = errorResponse(res.Err)
				continue
			}
			rows, err := b.fetchPlain(plainOps[k].Table, res.RIDs)
			if err != nil {
				out[i] = errorResponse(err)
				continue
			}
			out[i] = proto.Response{Type: proto.RespRows, Rows: rows}
		}
	}
	for pt, ops := range partOps {
		results := pt.ExecuteBatch(ops, b.workers)
		for k, res := range results {
			i := partIdx[pt][k]
			if res.Err != nil {
				out[i] = errorResponse(res.Err)
				continue
			}
			rows, err := fetchPart(pt, res.RIDs)
			if err != nil {
				out[i] = errorResponse(err)
				continue
			}
			out[i] = proto.Response{Type: proto.RespRows, Rows: rows}
		}
	}
}

// runBatch executes a wire batch atomically. All-plain batches go through
// DurableDB.ExecuteBatch; a batch whose ops all target one partitioned
// table goes through that table's cross-partition ExecuteBatch. A batch
// that queries a partitioned table while also touching other tables is
// refused (the engine executor cannot resolve partitioned logical names
// for reads) — mutations on partitioned tables inside mixed batches are
// fine, since the transaction layer auto-routes them.
func (b *backend) runBatch(tenant string, r *proto.Request) proto.Response {
	if len(r.Ops) == 0 {
		return proto.Response{Type: proto.RespBatch}
	}
	ops := make([]engine.Op, len(r.Ops))
	for i := range r.Ops {
		op, err := engineOp(tenant, &r.Ops[i])
		if err != nil {
			return errorResponse(err)
		}
		ops[i] = op
	}

	// Classify the referenced tables.
	var singlePart *partition.Table
	singleTable, mixed := ops[0].Table, false
	for _, op := range ops {
		if op.Table != singleTable {
			mixed = true
		}
	}
	if !mixed {
		pt, err := b.resolve(singleTable)
		if err != nil {
			return errorResponse(err)
		}
		singlePart = pt
	}

	guard := b.d.Snapshot()
	defer guard.Release()

	var results []engine.OpResult
	var partResults []partition.OpResult
	if singlePart != nil {
		partResults = singlePart.ExecuteBatch(ops, b.workers)
	} else {
		for _, op := range ops {
			if !isQuery(op.Kind) {
				continue
			}
			pt, err := b.resolve(op.Table)
			if err != nil {
				return errorResponse(err)
			}
			if pt != nil {
				return errorResponse(reject(proto.CodeBadRequest,
					"query on partitioned table %q in a multi-table batch", op.Table))
			}
		}
		results = b.d.ExecuteBatch(ops, b.workers)
	}

	resp := proto.Response{Type: proto.RespBatch, Results: make([]proto.Response, len(ops))}
	for i, op := range ops {
		var err error
		var found bool
		var rows [][]float64
		if singlePart != nil {
			res := partResults[i]
			err, found = res.Err, res.Found
			if err == nil && isQuery(op.Kind) {
				rows, err = fetchPart(singlePart, res.RIDs)
			}
		} else {
			res := results[i]
			err, found = res.Err, res.Found
			if err == nil && isQuery(op.Kind) {
				rows, err = b.fetchPlain(op.Table, res.RIDs)
			}
		}
		switch {
		case err != nil:
			resp.Results[i] = errorResponse(err)
		case isQuery(op.Kind):
			resp.Results[i] = proto.Response{Type: proto.RespRows, Rows: rows}
		case op.Kind == engine.OpDelete:
			resp.Results[i] = proto.Response{Type: proto.RespFound, Found: found}
		default:
			resp.Results[i] = proto.Response{Type: proto.RespOK}
		}
	}
	return resp
}

// runWrites executes a run of auto-commit mutation requests — the write
// side of the session's pipelining unit — through one ApplyEach: each
// request is its own mutation with its own outcome, and the run waits for
// the log once. Responses land in out like runReads'.
func (b *backend) runWrites(tenant string, reqs []proto.Request, out []proto.Response) {
	ops := make([]engine.Op, 0, len(reqs))
	idx := make([]int, 0, len(reqs))
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
	for k, res := range b.d.ApplyEach(ops) {
		switch i := idx[k]; {
		case res.Err != nil:
			out[i] = errorResponse(res.Err)
		case ops[k].Kind == engine.OpDelete:
			out[i] = proto.Response{Type: proto.RespFound, Found: res.Found}
		default:
			out[i] = proto.Response{Type: proto.RespOK}
		}
	}
}

// runTxnQuery executes a read inside an open transaction, at the
// transaction's snapshot.
func (b *backend) runTxnQuery(tenant string, tx *engine.DurableTxn, r *proto.Request) proto.Response {
	op, err := engineOp(tenant, r)
	if err != nil {
		return errorResponse(err)
	}
	pt, err := b.resolve(op.Table)
	if err != nil {
		return errorResponse(err)
	}
	snap := tx.Snapshot()
	if snap == nil {
		return errorResponse(engine.ErrTxnDone)
	}
	var rows [][]float64
	if pt != nil {
		var rids []partition.RID
		switch op.Kind {
		case engine.OpPoint:
			rids, _, err = pt.PointQueryAt(snap, op.Col, op.Lo)
		case engine.OpRange:
			rids, _, err = pt.RangeQueryAt(snap, op.Col, op.Lo, op.Hi)
		case engine.OpRange2:
			rids, _, err = pt.RangeQuery2At(snap, op.Col, op.Lo, op.Hi, op.BCol, op.BLo, op.BHi)
		}
		if err == nil {
			rows, err = fetchPart(pt, rids)
		}
	} else {
		var tb *engine.Table
		if tb, err = b.d.Table(op.Table); err == nil {
			var rids []storage.RID
			switch op.Kind {
			case engine.OpPoint:
				rids, _, err = tb.PointQueryAt(snap, op.Col, op.Lo)
			case engine.OpRange:
				rids, _, err = tb.RangeQueryAt(snap, op.Col, op.Lo, op.Hi)
			case engine.OpRange2:
				rids, _, err = tb.RangeQuery2At(snap, op.Col, op.Lo, op.Hi, op.BCol, op.BLo, op.BHi)
			}
			if err == nil {
				rows, err = b.fetchPlain(op.Table, rids)
			}
		}
	}
	if err != nil {
		return errorResponse(err)
	}
	return proto.Response{Type: proto.RespRows, Rows: rows}
}

// runTxnMutation buffers one mutation into an open transaction.
func runTxnMutation(tenant string, tx *engine.DurableTxn, r *proto.Request) proto.Response {
	name, err := physical(tenant, r.Table)
	if err != nil {
		return errorResponse(err)
	}
	switch r.Type {
	case proto.ReqInsert:
		if err := tx.Insert(name, r.Row); err != nil {
			return errorResponse(err)
		}
		return proto.Response{Type: proto.RespOK}
	case proto.ReqUpdate:
		if err := tx.Update(name, r.PK, int(r.Col), r.Value); err != nil {
			return errorResponse(err)
		}
		return proto.Response{Type: proto.RespOK}
	case proto.ReqDelete:
		found, err := tx.Delete(name, r.PK)
		if err != nil {
			return errorResponse(err)
		}
		return proto.Response{Type: proto.RespFound, Found: found}
	}
	return errorResponse(reject(proto.CodeBadRequest, "type %d is not a mutation", r.Type))
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
		if err = b.d.CreateIndex(name, def); err == nil {
			b.forget(name)
		}
	default:
		return errorResponse(reject(proto.CodeBadRequest, "type %d is not DDL", r.Type))
	}
	if err != nil {
		return errorResponse(err)
	}
	return proto.Response{Type: proto.RespOK}
}
