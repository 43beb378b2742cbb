// Package server is hermitd's serving tier: a TCP listener speaking the
// internal/server/proto wire protocol (plus an optional HTTP endpoint for
// stats, health, promotion and pprof, see http.go), per-connection sessions holding open
// transactions, pipelined requests drained in runs (reads into the engine's
// batch executor, writes into one wait for the log) and answered in one
// flush per drained queue, server-wide admission control, per-tenant
// namespaces with op quotas, and graceful drain on shutdown.
//
// Layering: proto knows bytes, this package knows connections and
// sessions, and backend.go is the only file that touches the engine — the
// separation ROADMAP item 1 asks for, so a replication router can later
// sit where the backend sits today.
package server

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hermit/internal/engine"
	"hermit/internal/repl"
	"hermit/internal/server/proto"
)

// Options tunes a Server. The zero value picks sensible defaults.
type Options struct {
	// MaxInflight caps requests admitted server-wide at once (queued or
	// executing, until their response is written). Beyond it, requests
	// are answered with CodeOverloaded instead of executing. Default 256.
	MaxInflight int
	// QueueDepth is each session's pipelining queue capacity. Default 128.
	QueueDepth int
	// Workers is the goroutine count of the engine's read pool for a run
	// of reads or a read-only batch (<= 0 selects GOMAXPROCS), and the
	// bound on each read's own goroutines: the goroutine running the read
	// plus at most Workers-1 run its per-partition legs (engine.DB.Exec).
	// It bounds each read on its own, not the legs in flight across reads;
	// a read of a table served without partitions has one leg and runs on
	// the goroutine that runs it.
	Workers int
	// TenantOps caps the total operations a tenant may issue over the
	// server's lifetime (a deliberately simple quota: batches cost their
	// op count). 0 means unlimited.
	TenantOps int64
	// DrainTimeout bounds Close's graceful drain before connections are
	// force-closed. Default 5s.
	DrainTimeout time.Duration
	// HTTPAddr, when non-empty, also serves the HTTP endpoint (stats,
	// health, promotion, pprof) on that address.
	HTTPAddr string
	// Leader, when non-nil, enables replication subscriptions on this
	// server (and quorum write gating when the leader is configured for
	// AckQuorum).
	Leader *repl.Leader
	// Follower, when non-nil, puts the server in read-only follower mode:
	// mutations, transactions and DDL are refused with CodeNotLeader, and
	// reads serve from the follower's database at its applied watermark.
	Follower *repl.Follower
	// Promote, when non-nil, is invoked by POST /v1/promote — typically
	// wired by hermitd to promote a follower into a leader in place.
	Promote func() error
}

func (o Options) sanitized() Options {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 128
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	return o
}

// Stats are the server's monotonic counters (except the two gauges,
// ConnsActive and TxnsOpen). Snapshot them with Server.Stats.
type Stats struct {
	// Conns counts accepted connections; ConnsActive is the live gauge.
	Conns, ConnsActive atomic.Int64
	// Requests counts requests dequeued for handling (including rejected
	// ones); Coalesced counts requests that rode along in a pipelined run
	// of reads or of writes instead of executing alone.
	Requests, Coalesced atomic.Int64
	// Rejected counts admission-control rejections; QuotaRejected counts
	// tenant-quota rejections.
	Rejected, QuotaRejected atomic.Int64
	// TxnsOpen is the gauge of wire transactions currently open.
	TxnsOpen atomic.Int64
}

// StatsSnapshot is a plain-value copy of Stats (JSON-friendly for the
// HTTP endpoint), plus the engine's block-storage counters — block
// counts, compaction backlog and write amplification — so an operator
// can watch the storage tier from the same /v1/stats poll.
type StatsSnapshot struct {
	Conns         int64 `json:"conns"`
	ConnsActive   int64 `json:"conns_active"`
	Requests      int64 `json:"requests"`
	Coalesced     int64 `json:"coalesced"`
	Rejected      int64 `json:"rejected"`
	QuotaRejected int64 `json:"quota_rejected"`
	TxnsOpen      int64 `json:"txns_open"`

	Storage engine.StorageStats `json:"storage"`
	Repl    *ReplStats          `json:"repl,omitempty"`
}

// ReplStats is the replication section of StatsSnapshot: the node's role
// plus the matching side's watermarks (per-follower lag on a leader, the
// applied/durable LSNs on a follower).
type ReplStats struct {
	Role     string              `json:"role"` // "leader" | "follower"
	Leader   *repl.LeaderStats   `json:"leader,omitempty"`
	Follower *repl.FollowerStats `json:"follower,omitempty"`
}

// tenantQuota is one tenant's remaining op budget.
type tenantQuota struct {
	remaining atomic.Int64
	unlimited bool
}

func (q *tenantQuota) charge(n int64) bool {
	if q == nil || q.unlimited {
		return true
	}
	if q.remaining.Add(-n) < 0 {
		// Leave the counter floored so one huge batch cannot be retried
		// into a free pass once the budget is gone.
		return false
	}
	return true
}

// Server serves a database over the wire protocol. Create with New,
// start with Serve or Start, stop with Close.
type Server struct{ s *server }

// server is the implementation (kept unexported so the session/backend
// files talk to a narrow internal surface).
type server struct {
	opts  Options
	stats Stats

	// backend is swappable: a follower's snapshot bootstrap replaces the
	// engine underneath the server (see SwapEngine), and promotion can
	// change the node's role. Sessions re-read these per request.
	backend  atomic.Pointer[backend]
	leader   atomic.Pointer[repl.Leader]
	follower atomic.Pointer[repl.Follower]
	promote  func() error

	// inflight counts the requests admitted and not yet answered, at most
	// opts.MaxInflight (see acquireInflight).
	inflight atomic.Int64

	quotaMu sync.Mutex
	quotas  map[string]*tenantQuota

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	lnMu     sync.Mutex
	ln       net.Listener
	httpLn   net.Listener
	httpStop func() error
	draining atomic.Bool
	closed   atomic.Bool
	wg       sync.WaitGroup

	serveErr chan error
}

// New wraps an open database in a Server. The database must outlive the
// server; the server never closes it.
func New(d *engine.DB, opts Options) *Server {
	opts = opts.sanitized()
	s := &server{
		opts:     opts,
		promote:  opts.Promote,
		quotas:   make(map[string]*tenantQuota),
		conns:    make(map[net.Conn]struct{}),
		serveErr: make(chan error, 1),
	}
	s.backend.Store(newBackend(d, opts.Workers))
	if opts.Leader != nil {
		s.leader.Store(opts.Leader)
	}
	if opts.Follower != nil {
		s.follower.Store(opts.Follower)
	}
	return &Server{s: s}
}

// be returns the current backend (re-read per request: snapshot bootstrap
// swaps it).
func (sv *server) be() *backend { return sv.backend.Load() }

// SwapEngine re-points the server at a new database — the follower-mode
// hook for snapshot bootstrap, where the local database is wiped and
// rebuilt. Follower sessions hold no transactions (writes are refused),
// so in-flight requests at worst answer from the outgoing engine.
func (s *Server) SwapEngine(d *engine.DB) {
	s.s.backend.Store(newBackend(d, s.s.opts.Workers))
}

// BecomeLeader switches a follower-mode server into leader mode in place
// (after repl.Follower.Promote): writes are accepted again and l serves
// replication subscriptions.
func (s *Server) BecomeLeader(l *repl.Leader) {
	s.s.leader.Store(l)
	s.s.follower.Store(nil)
}

// ErrServerClosed is returned by Serve after Close begins shutdown.
var ErrServerClosed = errors.New("server: closed")

// Start listens on addr (e.g. "127.0.0.1:0") and serves in a background
// goroutine. Use Addr to learn the bound address and Close to stop.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.s.setListener(ln)
	if err := s.s.startHTTP(); err != nil {
		ln.Close()
		return err
	}
	go func() { s.s.serveErr <- s.Serve(ln) }()
	return nil
}

// startHTTP binds the HTTP endpoint's listener once, if configured. It is
// synchronous so HTTPAddr is usable as soon as Start returns.
func (sv *server) startHTTP() error {
	sv.lnMu.Lock()
	defer sv.lnMu.Unlock()
	if sv.opts.HTTPAddr == "" || sv.httpLn != nil {
		return nil
	}
	stop, ln, err := sv.serveHTTP(sv.opts.HTTPAddr)
	if err != nil {
		return err
	}
	sv.httpLn, sv.httpStop = ln, stop
	return nil
}

func (sv *server) setListener(ln net.Listener) {
	sv.lnMu.Lock()
	sv.ln = ln
	sv.lnMu.Unlock()
}

func (sv *server) listener() net.Listener {
	sv.lnMu.Lock()
	defer sv.lnMu.Unlock()
	return sv.ln
}

// Serve accepts connections on ln until Close. It blocks; it returns
// ErrServerClosed after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	sv := s.s
	sv.setListener(ln)
	if err := sv.startHTTP(); err != nil {
		return err
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if sv.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		sv.stats.Conns.Add(1)
		sv.stats.ConnsActive.Add(1)
		sv.register(conn)
		sv.wg.Add(1)
		sess := &session{
			srv:     sv,
			conn:    conn,
			bw:      bufio.NewWriterSize(conn, 64<<10),
			txns:    make(map[uint64]*engine.Txn),
			subStop: make(chan struct{}),
		}
		go sess.serve()
	}
}

// Addr returns the listener's address (nil before Serve/Start binds one).
func (s *Server) Addr() net.Addr {
	ln := s.s.listener()
	if ln == nil {
		return nil
	}
	return ln.Addr()
}

// HTTPAddr returns the HTTP endpoint's bound address, or nil
// when Options.HTTPAddr was empty.
func (s *Server) HTTPAddr() net.Addr {
	s.s.lnMu.Lock()
	defer s.s.lnMu.Unlock()
	if s.s.httpLn == nil {
		return nil
	}
	return s.s.httpLn.Addr()
}

// Stats snapshots the server's counters.
func (s *Server) Stats() StatsSnapshot {
	st := &s.s.stats
	snap := StatsSnapshot{
		Conns:         st.Conns.Load(),
		ConnsActive:   st.ConnsActive.Load(),
		Requests:      st.Requests.Load(),
		Coalesced:     st.Coalesced.Load(),
		Rejected:      st.Rejected.Load(),
		QuotaRejected: st.QuotaRejected.Load(),
		TxnsOpen:      st.TxnsOpen.Load(),
		Storage:       s.s.be().d.StorageStats(),
	}
	if fo := s.s.follower.Load(); fo != nil {
		fs := fo.Stats()
		snap.Repl = &ReplStats{Role: "follower", Follower: &fs}
	} else if l := s.s.leader.Load(); l != nil {
		ls := l.Stats()
		snap.Repl = &ReplStats{Role: "leader", Leader: &ls}
	}
	return snap
}

// Close gracefully drains the server: stop accepting, stop reading new
// requests, finish queued work and write its responses, roll back
// transactions still open, then close connections. Sessions that do not
// drain within DrainTimeout are force-closed (their deferred cleanup
// still rolls back and releases snapshots). Safe to call once.
func (s *Server) Close() error {
	sv := s.s
	if sv.closed.Swap(true) {
		return nil
	}
	sv.draining.Store(true)
	if ln := sv.listener(); ln != nil {
		ln.Close()
	}
	sv.lnMu.Lock()
	httpStop := sv.httpStop
	sv.lnMu.Unlock()
	if httpStop != nil {
		httpStop()
	}

	// Unblock session readers parked in a frame read: an expired read
	// deadline ends the reader loop, the executor drains what was queued
	// (writes stay usable — only the read side is deadlined), and the
	// session's deferred cleanup rolls back open transactions.
	sv.connMu.Lock()
	for c := range sv.conns {
		c.SetReadDeadline(time.Now())
	}
	sv.connMu.Unlock()

	done := make(chan struct{})
	go func() { sv.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(sv.opts.DrainTimeout):
		// Stragglers get a hard close; their deferred cleanup still runs.
		sv.connMu.Lock()
		for c := range sv.conns {
			c.Close()
		}
		sv.connMu.Unlock()
		select {
		case <-done:
		case <-time.After(sv.opts.DrainTimeout):
		}
	}
	if sv.listener() != nil {
		select {
		case err := <-sv.serveErr:
			if err != ErrServerClosed {
				return err
			}
		default:
		}
	}
	return nil
}

// register/unregister maintain the live-connection set Close sweeps.
func (sv *server) register(c net.Conn) {
	sv.connMu.Lock()
	sv.conns[c] = struct{}{}
	sv.connMu.Unlock()
}

func (sv *server) unregister(c net.Conn) {
	sv.connMu.Lock()
	delete(sv.conns, c)
	sv.connMu.Unlock()
}

// acquireInflight takes one admission token without blocking: it counts
// one more request in flight unless MaxInflight already are.
func (sv *server) acquireInflight() bool {
	limit := int64(sv.opts.MaxInflight)
	for {
		n := sv.inflight.Load()
		if n >= limit {
			return false
		}
		if sv.inflight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// releaseInflight returns one admission token.
func (sv *server) releaseInflight() { sv.inflight.Add(-1) }

// quorumGateRun holds a run's successful write responses until a quorum
// of followers acks the leader's log position — the AckQuorum contract:
// an acknowledged write survives leader loss, because the promoted
// highest-LSN follower necessarily holds it. The run waits once, on the
// position after its last record, which covers every record before it. On
// timeout each successful response is replaced with an error (the writes
// are durable locally; their replication state is unknown, which the
// client must treat as commit-uncertain).
func (sv *server) quorumGateRun(resps []proto.Response) {
	l := sv.leader.Load()
	if l == nil || l.AckMode() != repl.AckQuorum {
		return
	}
	var waited bool
	var err error
	for i := range resps {
		if resps[i].Type == proto.RespError {
			continue
		}
		if !waited {
			waited, err = true, l.WaitQuorum(sv.be().d.LastLSN(), l.QuorumTimeout())
		}
		if err != nil {
			resps[i] = proto.Response{Type: proto.RespError, Code: proto.CodeInternal,
				Msg: "replication quorum not reached; commit state unknown"}
		}
	}
}

// quorumGate is quorumGateRun for one response.
func (sv *server) quorumGate(resp proto.Response) proto.Response {
	one := [1]proto.Response{resp}
	sv.quorumGateRun(one[:])
	return one[0]
}

// quotaFor returns the (shared) quota bucket for a tenant.
func (sv *server) quotaFor(tenant string) *tenantQuota {
	sv.quotaMu.Lock()
	defer sv.quotaMu.Unlock()
	if q, ok := sv.quotas[tenant]; ok {
		return q
	}
	q := &tenantQuota{unlimited: sv.opts.TenantOps <= 0}
	q.remaining.Store(sv.opts.TenantOps)
	sv.quotas[tenant] = q
	return q
}
