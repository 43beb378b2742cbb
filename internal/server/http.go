package server

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// This file is the HTTP endpoint beside the binary protocol: what an
// operator reads with curl, no data operations (the binary protocol carries
// every one of those).
//
//	GET  /v1/stats         server counters as JSON
//	POST /v1/promote       promote a follower to leader
//	GET  /healthz          200 once serving
//	GET  /debug/pprof/...  live profiling (net/http/pprof handlers)

// serveHTTP starts the HTTP endpoint, returning its stop function and bound
// listener. The caller stores both under the server's lock.
func (sv *server) serveHTTP(addr string) (func() error, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
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
