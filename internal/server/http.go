package server

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"hermit/internal/server/proto"
)

// This file is the HTTP/JSON fallback endpoint: the same operation
// surface as the binary protocol (minus transactions, which need session
// state a stateless POST cannot carry), mapped onto one POST route. It
// exists for debuggability — curl a running hermitd — not performance.
//
//	POST /v1/exec          {"op":"range","table":"t","col":1,"lo":0,"hi":9}
//	GET  /v1/stats         server counters as JSON
//	GET  /healthz          200 once serving
//	GET  /debug/pprof/...  live profiling (net/http/pprof handlers)
//
// Supported ops: ping, point, range, range2, insert, update, delete,
// batch (ops array of the six data ops), create-table, create-index.
// An optional "tenant" field selects the namespace per call.

// httpOp is the JSON request body of POST /v1/exec.
type httpOp struct {
	Op     string    `json:"op"`
	Tenant string    `json:"tenant,omitempty"`
	Table  string    `json:"table,omitempty"`
	Col    int       `json:"col,omitempty"`
	Lo     float64   `json:"lo,omitempty"`
	Hi     float64   `json:"hi,omitempty"`
	BCol   int       `json:"bcol,omitempty"`
	BLo    float64   `json:"blo,omitempty"`
	BHi    float64   `json:"bhi,omitempty"`
	PK     float64   `json:"pk,omitempty"`
	Value  float64   `json:"value,omitempty"`
	Row    []float64 `json:"row,omitempty"`
	Ops    []httpOp  `json:"ops,omitempty"`
	Cols   []string  `json:"cols,omitempty"`
	PKCol  int       `json:"pk_col,omitempty"`
	Parts  int       `json:"parts,omitempty"`
	Kind   string    `json:"kind,omitempty"`
	Host   int       `json:"host,omitempty"`
}

// httpResult is the JSON response body of POST /v1/exec.
type httpResult struct {
	OK      bool         `json:"ok"`
	Rows    [][]float64  `json:"rows,omitempty"`
	Found   *bool        `json:"found,omitempty"`
	Results []httpResult `json:"results,omitempty"`
	Code    int          `json:"code,omitempty"`
	Error   string       `json:"error,omitempty"`
}

// toRequest maps a JSON op onto a wire request (the shared execution
// path), or an unknown-op error.
func (h *httpOp) toRequest() (proto.Request, error) {
	r := proto.Request{
		Table: h.Table, Col: uint16(h.Col), Lo: h.Lo, Hi: h.Hi,
		BCol: uint16(h.BCol), BLo: h.BLo, BHi: h.BHi,
		PK: h.PK, Value: h.Value, Row: h.Row,
		PKCol: uint16(h.PKCol), Parts: uint16(h.Parts), Cols: h.Cols,
		Host: uint16(h.Host),
	}
	switch h.Op {
	case "ping":
		r.Type = proto.ReqPing
	case "point":
		r.Type = proto.ReqPoint
	case "range":
		r.Type = proto.ReqRange
	case "range2":
		r.Type = proto.ReqRange2
	case "insert":
		r.Type = proto.ReqInsert
	case "update":
		r.Type = proto.ReqUpdate
	case "delete":
		r.Type = proto.ReqDelete
	case "batch":
		r.Type = proto.ReqBatch
		for i := range h.Ops {
			op, err := h.Ops[i].toRequest()
			if err != nil {
				return r, err
			}
			r.Ops = append(r.Ops, op)
		}
	case "create-table":
		r.Type = proto.ReqCreateTable
	case "create-index":
		r.Type = proto.ReqCreateIndex
		switch h.Kind {
		case "", "btree":
			r.Kind = proto.IndexBTree
		case "hermit":
			r.Kind = proto.IndexHermit
		default:
			return r, reject(proto.CodeBadRequest, "unknown index kind %q", h.Kind)
		}
	default:
		return r, reject(proto.CodeBadRequest, "unknown op %q", h.Op)
	}
	return r, nil
}

// fromResponse maps a wire response back onto the JSON shape.
func fromResponse(resp proto.Response) httpResult {
	switch resp.Type {
	case proto.RespRows:
		rows := resp.Rows
		if rows == nil {
			rows = [][]float64{}
		}
		return httpResult{OK: true, Rows: rows}
	case proto.RespFound:
		f := resp.Found
		return httpResult{OK: true, Found: &f}
	case proto.RespBatch:
		out := httpResult{OK: true, Results: make([]httpResult, len(resp.Results))}
		for i, r := range resp.Results {
			out.Results[i] = fromResponse(r)
		}
		return out
	case proto.RespError:
		return httpResult{Code: int(resp.Code), Error: resp.Msg}
	default:
		return httpResult{OK: true}
	}
}

// execHTTP runs one JSON op through the same backend paths the binary
// protocol uses (auto-commit only: no session, no txns, no pipelining).
func (sv *server) execHTTP(h *httpOp) httpResult {
	req, err := h.toRequest()
	if err != nil {
		return fromResponse(errorResponse(err))
	}
	if err := validTenant(h.Tenant); err != nil {
		return fromResponse(errorResponse(err))
	}
	if !sv.acquireInflight() {
		sv.stats.Rejected.Add(1)
		return httpResult{Code: int(proto.CodeOverloaded), Error: "server overloaded; retry later"}
	}
	defer sv.releaseInflight()
	sv.stats.Requests.Add(1)

	cost := int64(1)
	if req.Type == proto.ReqBatch {
		cost = int64(len(req.Ops))
	}
	if !sv.quotaFor(h.Tenant).charge(cost) {
		sv.stats.QuotaRejected.Add(1)
		return httpResult{Code: int(proto.CodeQuota), Error: "tenant op quota exhausted"}
	}

	b := sv.be()
	if sv.follower.Load() != nil && isMutating(&req) {
		return fromResponse(errNotLeader)
	}
	var resp proto.Response
	run := make([]proto.Response, 1) // a read or a write is a run of one
	switch req.Type {
	case proto.ReqPing:
		resp = proto.Response{Type: proto.RespOK}
	case proto.ReqPoint, proto.ReqRange, proto.ReqRange2:
		b.runReads(h.Tenant, []proto.Request{req}, run)
		resp = run[0]
	case proto.ReqInsert, proto.ReqUpdate, proto.ReqDelete:
		b.runWrites(h.Tenant, []proto.Request{req}, run)
		resp = sv.quorumGate(run[0])
	case proto.ReqBatch:
		resp = b.runBatch(h.Tenant, &req)
		if isMutating(&req) {
			resp = sv.quorumGate(resp)
		}
	case proto.ReqCreateTable, proto.ReqCreateIndex:
		resp = sv.quorumGate(b.runDDL(h.Tenant, &req))
	}
	return fromResponse(resp)
}

// serveHTTP starts the fallback endpoint, returning its stop function
// and bound listener. The caller stores both under the server's lock.
func (sv *server) serveHTTP(addr string) (func() error, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/exec", func(w http.ResponseWriter, r *http.Request) {
		var op httpOp
		if err := json.NewDecoder(r.Body).Decode(&op); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res := sv.execHTTP(&op)
		w.Header().Set("Content-Type", "application/json")
		if res.Error != "" {
			w.WriteHeader(httpStatus(proto.ErrCode(res.Code)))
		}
		json.NewEncoder(w).Encode(res)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode((&Server{s: sv}).Stats())
	})
	mux.HandleFunc("POST /v1/promote", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if sv.promote == nil {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]any{"ok": false, "error": "promotion not configured"})
			return
		}
		if err := sv.promote(); err != nil {
			w.WriteHeader(http.StatusConflict)
			json.NewEncoder(w).Encode(map[string]any{"ok": false, "error": err.Error()})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if sv.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
	// Live profiling endpoints (go tool pprof http://addr/debug/pprof/...).
	// The custom mux never sees net/http/pprof's DefaultServeMux
	// registrations, so the handlers are wired explicitly.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go hs.Serve(ln)
	return func() error { return hs.Close() }, ln, nil
}

// httpStatus maps wire error codes onto HTTP statuses.
func httpStatus(code proto.ErrCode) int {
	switch code {
	case proto.CodeBadRequest:
		return http.StatusBadRequest
	case proto.CodeOverloaded, proto.CodeDraining:
		return http.StatusServiceUnavailable
	case proto.CodeQuota:
		return http.StatusTooManyRequests
	case proto.CodeNoTable:
		return http.StatusNotFound
	case proto.CodeConflict, proto.CodeAborted, proto.CodeDupKey, proto.CodeFenced:
		return http.StatusConflict
	case proto.CodeNotLeader:
		return http.StatusMisdirectedRequest
	default:
		return http.StatusInternalServerError
	}
}
