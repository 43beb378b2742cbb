package server

import (
	"bufio"
	"errors"
	"net"
	"slices"
	"sync"

	"hermit/internal/engine"
	"hermit/internal/server/proto"
)

// session is one client connection: a reader goroutine that decodes
// frames into a queue, and an executor (serve) that drains the queue,
// executes, and writes responses in request order.
//
// The queue is what makes pipelining work: a client may write hundreds of
// frames before reading a single response, and the reader keeps decoding
// while the executor works. The executor drains it in runs: consecutive
// auto-commit reads become one pass of the engine's read pool (see
// backend.runReads), so a pipelined point-query storm executes under a
// single shared snapshot instead of as N serial queries, and
// consecutive auto-commit writes become one ApplyEach call (see
// backend.runWrites), which submits every record to the log before it
// waits for the first acknowledgement.
//
// Responses are buffered in bw and flushed when the queue runs dry — the
// invariant is that the executor holds unflushed bytes only while it still
// has queued requests to execute — so a pipelined burst costs one
// write(2), not one per response, and a one-shot request, whose response
// empties the queue, is flushed exactly as promptly as if every response
// were. The one exception runs the other way: before a request that may
// stall (mayStall) the executor flushes what the requests ahead of it
// produced.
//
// Admission control happens at enqueue: each queued request holds one
// server-wide inflight token — one count of an atomic counter bounded by
// MaxInflight — until its response is written. When no token is available
// the request is still queued — unadmitted, so responses stay in order —
// but never executed; it is answered CodeOverloaded.
//
// A pipelined auto-commit request crosses the session without an
// allocation of its own: the reader decodes through a per-connection
// proto.Decoder (table names and insert rows without a copy each), a queue
// entry travels by value, and a run executes in the session's reused
// scratch (run) down to ApplyEach's results.
type session struct {
	srv  *server
	conn net.Conn
	bw   *bufio.Writer

	tenant string
	quota  *tenantQuota

	// txns maps wire transaction ids to open engine transactions. Owned
	// by the executor goroutine; cleaned up (rolled back, snapshots
	// released) on any exit path so an abruptly dropped connection cannot
	// pin the reclaim horizon.
	txns   map[uint64]*engine.Txn
	nextTx uint64

	// wmu serializes use of bw: normally only the executor writes, but a
	// replication subscription adds a second writer — the stream
	// goroutine ServeSubscriber runs on — interleaving whole frames with
	// the executor's responses (acks, the only requests a subscribed
	// follower keeps sending, produce no response at all). The stream
	// flushes each frame itself (send); the executor flushes per drained
	// queue (next).
	wmu sync.Mutex
	// subStop ends replication streams on session teardown; subWG waits
	// for them so cleanup never races a streaming write.
	subStop chan struct{}
	subWG   sync.WaitGroup

	// run is the executor's scratch for one run (see runCoalesced).
	run runScratch

	// wbuf is the response encode scratch, guarded by wmu like the writes
	// it feeds. Oversized buffers are released after the write (see
	// maxRetainedBuf) so one huge response does not pin 16 MiB per session.
	wbuf []byte
}

// maxRetainedBuf caps the frame scratch a session keeps between
// requests. Frames run up to proto.MaxFrame (16 MiB); holding that per
// connection would dwarf the sessions themselves, so larger buffers are
// dropped after use and re-grown on demand.
const maxRetainedBuf = 64 << 10

// maxCoalesce bounds one run, of reads or of writes (and thus response
// latency for the op at the head of the run).
const maxCoalesce = 64

// respNone is handleOne's no-response sentinel: replication acks consume
// no response frame, and a subscription's frames are written by its own
// stream goroutine rather than the executor.
const respNone proto.RespType = 0

// errConnClosed reports a failed stream write (the subscriber hung up).
var errConnClosed = errors.New("server: connection closed")

// errNotLeader answers every state-changing request on a follower.
var errNotLeader = errorResponse(reject(proto.CodeNotLeader,
	"node is a read-only follower; send writes to the leader"))

// overloaded answers a request admission control refused.
var overloaded = proto.Response{Type: proto.RespError, Code: proto.CodeOverloaded,
	Msg: "server overloaded; retry later"}

// maxOpenTxns bounds a session's concurrently open transactions: each
// pins a snapshot, so an unbounded map would let one client stall GC.
const maxOpenTxns = 64

// runScratch is a session's memory for one run (runCoalesced): the run's
// requests and responses, the engine ops the backend runs for them with
// each op's request index, and a write run's results. Its slices grow to
// at most maxCoalesce entries and reset clears them after each run, so
// between runs they pin no request's row, no response and no error.
type runScratch struct {
	reqs    []proto.Request
	resps   []proto.Response
	ops     []engine.Op
	idx     []int
	results []engine.OpResult
}

// reset clears the scratch after a run.
func (sc *runScratch) reset() {
	clear(sc.reqs)
	clear(sc.resps)
	clear(sc.ops)
	clear(sc.results)
	sc.reqs, sc.resps = sc.reqs[:0], sc.resps[:0]
	sc.ops, sc.idx, sc.results = sc.ops[:0], sc.idx[:0], sc.results[:0]
}

// queued is one queue entry: a decoded request and whether it was
// admitted. An admitted entry holds one inflight token; one that was not
// is answered overloaded and never executed.
type queued struct {
	req      proto.Request
	admitted bool
}

// serve runs the session to completion. It is the executor; it spawns the
// reader and owns all writes to the connection and all token releases for
// consumed queue entries.
func (s *session) serve() {
	defer s.srv.wg.Done()
	defer s.srv.stats.ConnsActive.Add(-1)
	defer s.srv.unregister(s.conn)
	defer s.conn.Close()
	defer s.cleanup()

	q := make(chan queued, s.srv.opts.QueueDepth)
	go s.read(q)

	// carry is the entry a run stopped at (carried: there is one), held
	// by value: a pointer to it would move every entry a run gathers to
	// the heap.
	var carry queued
	carried, writable := false, true
	for writable {
		var item queued
		if carried {
			item, carried = carry, false
		} else {
			var ok bool
			if item, ok = s.next(q); !ok {
				break
			}
		}
		s.srv.stats.Requests.Add(1)
		switch {
		case !item.admitted:
			writable = s.write(&overloaded)
		case runOf(&item.req) != noRun:
			writable, carry, carried = s.runCoalesced(&item, q)
		default:
			// A request that can take arbitrarily long must not sit on the
			// responses of the requests before it.
			if writable = !mayStall(&item.req) || s.flush(); writable {
				if resp := s.handleOne(&item.req); resp.Type != respNone {
					writable = s.write(&resp)
				}
			}
			s.srv.releaseInflight()
		}
	}
	if carried && carry.admitted {
		s.srv.releaseInflight()
	}
	s.flush() // the queue closed under a burst: its responses are still owed
	// The reader may still be running (executor stopped on a write
	// error): closing the connection in the deferred chain unblocks it;
	// meanwhile drain the queue so enqueues never block and every token
	// is returned.
	s.conn.Close()
	for item := range q {
		if item.admitted {
			s.srv.releaseInflight()
		}
	}
}

// read decodes frames into q until the connection fails, the server
// drains, or a frame is malformed. It closes q on exit.
func (s *session) read(q chan queued) {
	defer close(q)
	br := bufio.NewReaderSize(s.conn, 64<<10)
	var payload []byte // frame read scratch; decoded requests never alias it
	var dec proto.Decoder
	for {
		if s.srv.draining.Load() {
			return
		}
		var err error
		payload, err = proto.ReadFrameBuf(br, payload)
		if err != nil {
			return
		}
		req, err := dec.Decode(payload)
		if cap(payload) > maxRetainedBuf {
			payload = nil // drop oversized buffers (16 MiB cap policy)
		}
		if err != nil {
			// A clean EOF is the client hanging up; anything else —
			// malformed frame, bad version, torn read — also ends the
			// session (framing errors are not recoverable mid-stream
			// without trusting the hostile length prefix just refused).
			return
		}
		item := queued{req: req, admitted: s.srv.acquireInflight()}
		if !item.admitted {
			s.srv.stats.Rejected.Add(1)
		}
		q <- item
	}
}

// next returns the next queue entry (ok=false once the queue is closed and
// drained). Before it blocks on an empty queue it flushes the buffered
// responses — the one point where the session decides to spend a write(2);
// a failed flush ends the session like a closed queue.
func (s *session) next(q chan queued) (item queued, ok bool) {
	select {
	case item, ok = <-q:
		return item, ok
	default:
	}
	if !s.flush() {
		return queued{}, false
	}
	item, ok = <-q
	return item, ok
}

// mayStall reports whether executing r can take unboundedly longer than a
// run of point operations: DDL builds indexes, a commit or an atomic batch
// waits on the log (and on a replication quorum), and a subscription hands
// the connection to a second writer. The executor flushes before these.
func mayStall(r *proto.Request) bool {
	switch r.Type {
	case proto.ReqCreateTable, proto.ReqCreateIndex, proto.ReqBatch,
		proto.ReqTxnCommit, proto.ReqReplSubscribe:
		return true
	}
	return false
}

// runKind classes the auto-commit requests the executor drains as a run.
type runKind uint8

const (
	noRun    runKind = iota // executed alone by handleOne
	readRun                 // point and range queries: one read-pool pass
	writeRun                // inserts, updates, deletes: one ApplyEach
)

// runOf reports which kind of run a request can join. Requests inside a
// transaction join none: they execute against the transaction's state.
func runOf(r *proto.Request) runKind {
	if r.Txn != 0 {
		return noRun
	}
	switch r.Type {
	case proto.ReqPoint, proto.ReqRange, proto.ReqRange2:
		return readRun
	case proto.ReqInsert, proto.ReqUpdate, proto.ReqDelete:
		return writeRun
	}
	return noRun
}

// runCoalesced executes first plus the requests of the same run kind
// already queued behind it (up to maxCoalesce) as one run, writing
// responses in order. A run of reads is one pass of the engine's read
// pool under a shared snapshot; a run of writes is one ApplyEach — still one auto-commit
// mutation, one WAL record and one result per request, but one wait for
// the log and one quorum wait for the lot. The first queued entry that
// cannot join is returned as carry (carried: there is one) for the main
// loop. It releases the tokens of every entry it consumed.
func (s *session) runCoalesced(first *queued, q chan queued) (writable bool, carry queued, carried bool) {
	kind := runOf(&first.req)
	reqs := append(s.run.reqs[:0], first.req)
gather:
	for len(reqs) < maxCoalesce {
		select {
		case it, ok := <-q:
			if !ok {
				break gather
			}
			if it.admitted && runOf(&it.req) == kind {
				s.srv.stats.Requests.Add(1)
				reqs = append(reqs, it.req)
				continue
			}
			carry, carried = it, true
			break gather
		default:
			break gather
		}
	}
	resps := slices.Grow(s.run.resps[:0], len(reqs))[:len(reqs)]
	defer func() {
		s.run.reqs, s.run.resps = reqs, resps
		s.run.reset()
	}()

	// Quota failures (and, on a read-only follower, every write) are
	// answered here; the backend answers the rest as one run.
	notLeader := kind == writeRun && s.srv.follower.Load() != nil
	run := 0
	for i := range reqs {
		if resp, ok := s.checkQuota(&reqs[i]); !ok {
			resps[i] = resp
		} else if notLeader {
			resps[i] = errNotLeader
		} else {
			run++
		}
	}
	if run > 0 {
		s.srv.stats.Coalesced.Add(int64(run - 1))
		if kind == readRun {
			s.srv.be().runReads(s.tenant, reqs, resps, &s.run)
		} else {
			s.srv.be().runWrites(s.tenant, reqs, resps, &s.run)
			s.srv.quorumGateRun(resps)
		}
	}

	// Every member of a run was admitted: a rejected entry never joins one.
	writable = true
	for i := range resps {
		if writable {
			writable = s.write(&resps[i])
		}
		s.srv.releaseInflight()
	}
	return writable, carry, carried
}

// checkQuota charges the request against the session tenant's op quota.
func (s *session) checkQuota(r *proto.Request) (proto.Response, bool) {
	cost := int64(1)
	if r.Type == proto.ReqBatch {
		cost = int64(len(r.Ops))
	}
	if s.quota != nil && !s.quota.charge(cost) {
		s.srv.stats.QuotaRejected.Add(1)
		return proto.Response{Type: proto.RespError, Code: proto.CodeQuota,
			Msg: "tenant op quota exhausted"}, false
	}
	return proto.Response{}, true
}

// isMutating reports whether a request changes state — the kinds a
// read-only follower refuses with CodeNotLeader. Transactions count
// (their commits could not be logged locally), as does any batch carrying
// a mutation; read-only batches pass.
func isMutating(r *proto.Request) bool {
	switch r.Type {
	case proto.ReqInsert, proto.ReqUpdate, proto.ReqDelete,
		proto.ReqTxnBegin, proto.ReqCreateTable, proto.ReqCreateIndex:
		return true
	case proto.ReqBatch:
		for i := range r.Ops {
			switch r.Ops[i].Type {
			case proto.ReqInsert, proto.ReqUpdate, proto.ReqDelete:
				return true
			}
		}
	}
	return false
}

// handleOne runs one non-coalesced request to a response (or respNone for
// requests that answer out-of-band or not at all).
func (s *session) handleOne(r *proto.Request) proto.Response {
	if resp, ok := s.checkQuota(r); !ok {
		return resp
	}
	b := s.srv.be()
	if s.srv.follower.Load() != nil && isMutating(r) {
		return errNotLeader
	}
	switch r.Type {
	case proto.ReqHello:
		if err := validTenant(r.Tenant); err != nil {
			return errorResponse(err)
		}
		s.tenant = r.Tenant
		s.quota = s.srv.quotaFor(r.Tenant)
		return proto.Response{Type: proto.RespOK}
	case proto.ReqPing:
		return proto.Response{Type: proto.RespOK}
	case proto.ReqPoint, proto.ReqRange, proto.ReqRange2:
		// Only reachable with Txn != 0 (auto-commit requests go as runs).
		tx, ok := s.txns[r.Txn]
		if !ok {
			return errorResponse(reject(proto.CodeTxnUnknown, "unknown txn %d", r.Txn))
		}
		return b.runTxnQuery(s.tenant, tx, r)
	case proto.ReqInsert, proto.ReqUpdate, proto.ReqDelete:
		tx, ok := s.txns[r.Txn]
		if !ok {
			return errorResponse(reject(proto.CodeTxnUnknown, "unknown txn %d", r.Txn))
		}
		return runTxnMutation(s.tenant, tx, r)
	case proto.ReqBatch:
		if r.Txn != 0 {
			return errorResponse(reject(proto.CodeBadRequest,
				"batches are their own transaction; Txn must be 0"))
		}
		resp := b.runBatch(s.tenant, r)
		if isMutating(r) {
			resp = s.srv.quorumGate(resp)
		}
		return resp
	case proto.ReqTxnBegin:
		if s.srv.draining.Load() {
			return errorResponse(reject(proto.CodeDraining, "server draining"))
		}
		if len(s.txns) >= maxOpenTxns {
			return errorResponse(reject(proto.CodeBadRequest,
				"session holds %d open transactions", len(s.txns)))
		}
		s.nextTx++
		s.txns[s.nextTx] = b.d.Begin()
		s.srv.stats.TxnsOpen.Add(1)
		return proto.Response{Type: proto.RespTxn, Txn: s.nextTx}
	case proto.ReqTxnCommit:
		tx, ok := s.txns[r.Txn]
		if !ok {
			return errorResponse(reject(proto.CodeTxnUnknown, "unknown txn %d", r.Txn))
		}
		delete(s.txns, r.Txn)
		s.srv.stats.TxnsOpen.Add(-1)
		if err := tx.Commit(); err != nil {
			return errorResponse(err)
		}
		return s.srv.quorumGate(proto.Response{Type: proto.RespOK})
	case proto.ReqTxnRollback:
		tx, ok := s.txns[r.Txn]
		if !ok {
			return errorResponse(reject(proto.CodeTxnUnknown, "unknown txn %d", r.Txn))
		}
		delete(s.txns, r.Txn)
		s.srv.stats.TxnsOpen.Add(-1)
		tx.Rollback()
		return proto.Response{Type: proto.RespOK}
	case proto.ReqCreateTable, proto.ReqCreateIndex:
		return s.srv.quorumGate(b.runDDL(s.tenant, r))
	case proto.ReqLSN:
		if fo := s.srv.follower.Load(); fo != nil {
			return proto.Response{Type: proto.RespLSN, LSN: fo.AppliedLSN()}
		}
		return proto.Response{Type: proto.RespLSN, LSN: b.d.LastLSN()}
	case proto.ReqReplSubscribe:
		return s.startSubscription(r)
	case proto.ReqReplAck:
		if l := s.srv.leader.Load(); l != nil {
			l.Ack(r.Follower, r.LSN)
		}
		return proto.Response{Type: respNone}
	}
	return errorResponse(reject(proto.CodeBadRequest, "unknown request type %d", r.Type))
}

// startSubscription hands the connection's write side to a replication
// stream goroutine. The executor keeps running — the only requests a
// subscribed follower sends afterwards are acks, which answer nothing —
// and the write mutex keeps stream frames and any responses whole.
func (s *session) startSubscription(r *proto.Request) proto.Response {
	l := s.srv.leader.Load()
	if l == nil {
		if s.srv.follower.Load() != nil {
			return errorResponse(reject(proto.CodeNotLeader,
				"followers do not serve replication; subscribe to the leader"))
		}
		return errorResponse(reject(proto.CodeBadRequest, "replication not enabled"))
	}
	if r.Follower == "" {
		return errorResponse(reject(proto.CodeBadRequest, "subscription needs a follower id"))
	}
	fromLSN, epoch, id := r.LSN, r.Epoch, r.Follower
	s.subWG.Add(1)
	go func() {
		defer s.subWG.Done()
		l.ServeSubscriber(fromLSN, epoch, id, s.send, s.subStop)
	}()
	return proto.Response{Type: respNone}
}

// send is the replication stream's writer: one whole frame, flushed at
// once — the stream goroutine has no queue whose draining could flush for
// it. Any executor responses buffered ahead of the frame go out with it.
func (s *session) send(resp *proto.Response) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if !s.buffer(resp) || s.bw.Flush() != nil {
		return errConnClosed
	}
	return nil
}

// write buffers one executor response. It does not flush: the executor
// flushes when its queue runs dry (next) or before a request that may
// stall, so a pipelined burst's responses leave in one write(2) — or in
// several, when they outgrow the bufio buffer — and not in one each. A
// one-shot client is not delayed: its request is the whole queue, so the
// flush follows the response immediately.
func (s *session) write(resp *proto.Response) bool {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.buffer(resp)
}

// flush writes the buffered responses to the connection.
func (s *session) flush() bool {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.bw.Flush() == nil
}

// buffer encodes one response frame into the session's reused scratch and
// appends it to bw. Caller holds wmu.
func (s *session) buffer(resp *proto.Response) bool {
	frame, err := proto.AppendResponse(s.wbuf[:0], resp)
	if err != nil {
		return false
	}
	if cap(frame) <= maxRetainedBuf {
		s.wbuf = frame
	} else {
		s.wbuf = nil
	}
	_, err = s.bw.Write(frame)
	return err == nil
}

// cleanup rolls back every transaction the session still holds. This is
// the abrupt-disconnect path's GC-safety valve: Rollback releases each
// transaction's snapshot registration, letting Clock.OldestActive advance
// past it.
func (s *session) cleanup() {
	close(s.subStop)
	s.subWG.Wait()
	for id, tx := range s.txns {
		tx.Rollback()
		delete(s.txns, id)
		s.srv.stats.TxnsOpen.Add(-1)
	}
}
