package server

import (
	"bufio"
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermit/internal/client"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/server/proto"
)

// startServer opens a DurableDB in a temp dir, serves it on a loopback
// port, and tears both down with the test.
func startServer(t *testing.T, opts Options) (*Server, *engine.DurableDB) {
	t.Helper()
	d, err := engine.OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := New(d, opts)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, d
}

// countedListener hands the server connections that count their Write
// calls — one per write(2) the session spends — and show each one to an
// optional hook before the bytes leave, on the writing goroutine.
type countedListener struct {
	net.Listener
	writes atomic.Int64

	mu   sync.Mutex
	hook func(p []byte)
}

type countedConn struct {
	net.Conn
	ln *countedListener
}

func (l *countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, ln: l}, nil
}

func (l *countedListener) setHook(fn func(p []byte)) {
	l.mu.Lock()
	l.hook = fn
	l.mu.Unlock()
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.ln.writes.Add(1)
	c.ln.mu.Lock()
	hook := c.ln.hook
	c.ln.mu.Unlock()
	if hook != nil {
		hook(p)
	}
	return c.Conn.Write(p)
}

// startCounted is startServer behind a countedListener.
func startCounted(t *testing.T, opts Options) (*Server, *engine.DurableDB, *countedListener) {
	t.Helper()
	d, err := engine.OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countedListener{Listener: inner}
	srv := New(d, opts)
	srv.s.setListener(ln) // Addr is valid before Serve's goroutine runs
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, d, ln
}

// rawConn speaks the wire protocol frame by frame, so a test decides what
// shares a client write and can read a response stream that ends early.
type rawConn struct {
	nc net.Conn
	bw *bufio.Writer
	br *bufio.Reader
}

func dialRaw(t *testing.T, srv *Server) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{nc: nc, bw: bufio.NewWriterSize(nc, 256<<10), br: bufio.NewReader(nc)}
}

// send writes reqs back to back and flushes once.
func (r *rawConn) send(t *testing.T, reqs ...proto.Request) {
	t.Helper()
	for i := range reqs {
		if err := proto.WriteRequest(r.bw, &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// recv reads one response. The deadline turns a response the server
// buffered and never flushed into a failure instead of a hung test.
func (r *rawConn) recv(t *testing.T) proto.Response {
	t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := proto.ReadResponse(r.br)
	if err != nil {
		t.Fatalf("no response (buffered and not flushed?): %v", err)
	}
	return resp
}

// park sends a ping and holds the session's executor inside the write of
// its response, so that everything sent before release is called queues up
// behind it: the state a pipelined burst meets on a busy server, made
// deterministic. The ping's response is the first one read afterwards.
func park(t *testing.T, ln *countedListener, rc *rawConn) (release func()) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	ln.setHook(func([]byte) {
		once.Do(func() {
			close(entered)
			<-gate
		})
	})
	rc.send(t, proto.Request{Type: proto.ReqPing})
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("executor never wrote the ping's response")
	}
	return func() { close(gate) }
}

// waitQueued waits until n requests hold admission tokens, i.e. the
// session's reader has decoded and queued them. (A parked ping holds none:
// its token is returned when its response is buffered, before the flush.)
func waitQueued(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.s.inflight.Load() < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests queued", srv.s.inflight.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func insertReq(table string, row ...float64) proto.Request {
	return proto.Request{Type: proto.ReqInsert, Table: table, Row: row}
}

func dial(t *testing.T, srv *Server, opts client.Options) *client.Conn {
	t.Helper()
	c, err := client.Dial(srv.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestFullOpSurfaceRoundTrip drives every wire operation — DDL, point,
// range, range2, insert, update, delete, atomic batch, pipeline, txn —
// through a loopback client against both a plain and a partitioned table.
func TestFullOpSurfaceRoundTrip(t *testing.T) {
	srv, _ := startServer(t, Options{})
	c := dial(t, srv, client.Options{})

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("plain", []string{"id", "x", "y"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("parted", []string{"id", "x"}, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBTreeIndex("plain", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateHermitIndex("plain", 2, 1); err != nil {
		t.Fatal(err)
	}

	for _, table := range []string{"plain", "parted"} {
		width := 3
		if table == "parted" {
			width = 2
		}
		for i := 0; i < 50; i++ {
			row := []float64{float64(i), float64(i * 2), float64(i * 3)}[:width]
			if err := c.Insert(table, row); err != nil {
				t.Fatalf("%s insert %d: %v", table, i, err)
			}
		}
		// Point on the pk column.
		rows, err := c.Point(table, 0, 7)
		if err != nil {
			t.Fatalf("%s point: %v", table, err)
		}
		if len(rows) != 1 || rows[0][1] != 14 {
			t.Fatalf("%s point: got %v", table, rows)
		}
		// Range over the secondary column.
		rows, err = c.Range(table, 1, 10, 20)
		if err != nil {
			t.Fatalf("%s range: %v", table, err)
		}
		if len(rows) != 6 { // x = 10,12,...,20
			t.Fatalf("%s range: %d rows, want 6: %v", table, len(rows), rows)
		}
		// Every served table answers a range in predicate-column order.
		for i := 1; i < len(rows); i++ {
			if rows[i-1][1] > rows[i][1] {
				t.Fatalf("%s range not in column order: %v", table, rows)
			}
		}
		if rows, err := c.Range(table, 0, 40, 44); err != nil || len(rows) != 5 || rows[0][0] != 40 || rows[4][0] != 44 {
			t.Fatalf("%s pk range: rows=%v err=%v", table, rows, err)
		}
		// Update + verify, delete + verify.
		if err := c.Update(table, 7, 1, 1000); err != nil {
			t.Fatalf("%s update: %v", table, err)
		}
		rows, err = c.Point(table, 0, 7)
		if err != nil || len(rows) != 1 || rows[0][1] != 1000 {
			t.Fatalf("%s post-update point: rows=%v err=%v", table, rows, err)
		}
		found, err := c.Delete(table, 7)
		if err != nil || !found {
			t.Fatalf("%s delete: found=%v err=%v", table, found, err)
		}
		found, err = c.Delete(table, 7)
		if err != nil || found {
			t.Fatalf("%s double delete: found=%v err=%v", table, found, err)
		}
		if err := c.Insert(table, []float64{7, 7, 7}[:width]); err != nil {
			t.Fatalf("%s reinsert: %v", table, err)
		}
	}

	// Range2 (plain table only: conjunctive two-column predicate).
	rows, err := c.Range2("plain", 1, 0, 40, 2, 0, 30)
	if err != nil {
		t.Fatalf("range2: %v", err)
	}
	for _, r := range rows {
		if r[1] < 0 || r[1] > 40 || r[2] < 0 || r[2] > 30 {
			t.Fatalf("range2 row outside predicate: %v", r)
		}
	}

	// Atomic batch: all-or-nothing on a duplicate-key failure.
	res, err := c.Batch([]client.Op{
		{Kind: client.OpInsert, Table: "plain", Row: []float64{500, 0, 0}},
		{Kind: client.OpInsert, Table: "plain", Row: []float64{3, 0, 0}}, // dup pk
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if res[0].Err == nil || !errors.Is(res[0].Err, client.ErrAborted) {
		t.Fatalf("batch result 0: want ErrAborted, got %v", res[0].Err)
	}
	if res[1].Err == nil || errors.Is(res[1].Err, client.ErrAborted) {
		t.Fatalf("batch result 1 should carry its own error, got %v", res[1].Err)
	}
	if rows, err := c.Point("plain", 0, 500); err != nil || len(rows) != 0 {
		t.Fatalf("aborted batch leaked row 500: rows=%v err=%v", rows, err)
	}

	// Successful mixed batch, including a read at the batch snapshot.
	res, err = c.Batch([]client.Op{
		{Kind: client.OpInsert, Table: "plain", Row: []float64{600, 1, 1}},
		{Kind: client.OpDelete, Table: "plain", PK: 5},
		{Kind: client.OpUpdate, Table: "plain", PK: 6, Col: 2, Value: -1},
		{Kind: client.OpRange, Table: "plain", Col: 0, Lo: 0, Hi: 3},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i, r := range res[:3] {
		if r.Err != nil {
			t.Fatalf("batch op %d: %v", i, r.Err)
		}
	}
	if !res[1].Found {
		t.Fatal("batch delete did not find row 5")
	}
	if len(res[3].Rows) != 4 {
		t.Fatalf("batch range: %d rows, want 4", len(res[3].Rows))
	}

	// Pipeline: a mixed burst, responses in order.
	p := c.Pipeline()
	for i := 0; i < 30; i++ {
		p.Point("plain", 0, float64(i%10))
	}
	p.Insert("plain", []float64{700, 0, 0})
	p.Point("plain", 0, 700)
	results, err := p.Flush()
	if err != nil {
		t.Fatalf("pipeline flush: %v", err)
	}
	if len(results) != 32 {
		t.Fatalf("pipeline: %d results, want 32", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("pipeline result %d: %v", i, r.Err)
		}
	}
	if len(results[31].Rows) != 1 || results[31].Rows[0][0] != 700 {
		t.Fatalf("pipelined insert not visible to later pipelined read: %v", results[31].Rows)
	}

	// Transactions: snapshot isolation + commit visibility.
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("plain", []float64{800, 8, 8}); err != nil {
		t.Fatal(err)
	}
	if rows, err := tx.Point("plain", 0, 800); err != nil || len(rows) != 0 {
		// Buffered writes are invisible until commit (engine contract).
		t.Fatalf("txn read-own-write: rows=%v err=%v (buffered writes must be invisible)", rows, err)
	}
	if rows, err := c.Point("plain", 0, 800); err != nil || len(rows) != 0 {
		t.Fatalf("uncommitted insert visible outside txn: %v %v", rows, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if rows, err := c.Point("plain", 0, 800); err != nil || len(rows) != 1 {
		t.Fatalf("committed insert not visible: rows=%v err=%v", rows, err)
	}

	// Write-write conflict: first committer wins.
	c2 := dial(t, srv, client.Options{})
	tx1, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.Update("plain", 800, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Update("plain", 800, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); !errors.Is(err, client.ErrConflict) {
		t.Fatalf("second committer: want ErrConflict, got %v", err)
	}

	// Rollback discards.
	tx, err = c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("plain", []float64{900, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if rows, _ := c.Point("plain", 0, 900); len(rows) != 0 {
		t.Fatalf("rolled-back insert visible: %v", rows)
	}

	// Unknown txn id.
	if err := tx.Commit(); !errors.Is(err, client.ErrTxnUnknown) {
		t.Fatalf("commit after rollback: want ErrTxnUnknown, got %v", err)
	}
}

// TestBatchAnswersEveryOp: a wire batch is answered op by op, whatever
// tables it names. An op on a missing table fails alone with ErrNoTable —
// when it is a mutation, its sibling mutations report ErrAborted — and a
// batch may query a partitioned table beside another table, both read at
// the batch-start snapshot.
func TestBatchAnswersEveryOp(t *testing.T) {
	srv, _ := startServer(t, Options{})
	c := dial(t, srv, client.Options{})
	for _, spec := range []struct {
		name  string
		parts int
	}{{"plain", 0}, {"parted", 3}} {
		if err := c.CreateTable(spec.name, []string{"id", "x"}, 0, spec.parts); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := c.Insert(spec.name, []float64{float64(i), float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	batch := func(ops ...client.Op) []client.Result {
		t.Helper()
		res, err := c.Batch(ops)
		if err != nil {
			t.Fatalf("batch failed as a whole: %v", err)
		}
		return res
	}
	wantErr := func(what string, err, want error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("%s: err %v, want %v", what, err, want)
		}
	}

	// One table, and it is missing.
	res := batch(
		client.Op{Kind: client.OpInsert, Table: "missing", Row: []float64{1, 1}},
		client.Op{Kind: client.OpDelete, Table: "missing", PK: 1},
	)
	wantErr("one-table insert", res[0].Err, client.ErrNoTable)
	wantErr("one-table delete", res[1].Err, client.ErrAborted)

	// Two tables, a mutation on the missing one aborts the rest.
	res = batch(
		client.Op{Kind: client.OpInsert, Table: "plain", Row: []float64{100, 1}},
		client.Op{Kind: client.OpUpdate, Table: "missing", PK: 1, Col: 1, Value: 2},
		client.Op{Kind: client.OpDelete, Table: "parted", PK: 3},
		client.Op{Kind: client.OpPoint, Table: "parted", Col: 0, Lo: 3},
	)
	wantErr("sibling insert", res[0].Err, client.ErrAborted)
	wantErr("missing update", res[1].Err, client.ErrNoTable)
	wantErr("sibling delete", res[2].Err, client.ErrAborted)
	if res[3].Err != nil || len(res[3].Rows) != 1 {
		t.Fatalf("query after the failure: rows=%v err=%v", res[3].Rows, res[3].Err)
	}
	if rows, err := c.Point("plain", 0, 100); err != nil || len(rows) != 0 {
		t.Fatalf("aborted batch leaked row 100: rows=%v err=%v", rows, err)
	}

	// Two tables, a query on the missing one fails alone.
	res = batch(
		client.Op{Kind: client.OpRange, Table: "missing", Col: 0, Lo: 0, Hi: 9},
		client.Op{Kind: client.OpInsert, Table: "plain", Row: []float64{101, 1}},
	)
	wantErr("missing query", res[0].Err, client.ErrNoTable)
	if res[1].Err != nil {
		t.Fatalf("insert beside a failed query: %v", res[1].Err)
	}

	// A partitioned table queried beside another table, at the batch
	// snapshot: neither of the batch's own writes is visible to it.
	res = batch(
		client.Op{Kind: client.OpInsert, Table: "plain", Row: []float64{200, 7}},
		client.Op{Kind: client.OpDelete, Table: "parted", PK: 4},
		client.Op{Kind: client.OpRange, Table: "parted", Col: 1, Lo: 0, Hi: 9},
		client.Op{Kind: client.OpPoint, Table: "plain", Col: 0, Lo: 200},
	)
	if res[0].Err != nil || res[1].Err != nil || !res[1].Found {
		t.Fatalf("mutations: %v, %v found=%v", res[0].Err, res[1].Err, res[1].Found)
	}
	if res[2].Err != nil || len(res[2].Rows) != 10 {
		t.Fatalf("partitioned query in a two-table batch: rows=%v err=%v", res[2].Rows, res[2].Err)
	}
	for i, row := range res[2].Rows {
		if row[1] != float64(i) {
			t.Fatalf("partitioned batch range not in column order: %v", res[2].Rows)
		}
	}
	if res[3].Err != nil || len(res[3].Rows) != 0 {
		t.Fatalf("batch read its own insert: rows=%v err=%v", res[3].Rows, res[3].Err)
	}
	if rows, err := c.Range("parted", 1, 0, 9); err != nil || len(rows) != 9 {
		t.Fatalf("after the batch: %d partitioned rows (err %v), want 9", len(rows), err)
	}
}

// TestBatchNaNKeyKeepsServing: a wire batch inserting a NaN primary key
// runs in one transaction like any other — a write buffer keyed by float64
// lost the key and panicked the commit, taking the whole server down — so
// it is answered, a second NaN insert is a duplicate, and the server goes
// on serving, on a plain and on a partitioned table.
func TestBatchNaNKeyKeepsServing(t *testing.T) {
	srv, _ := startServer(t, Options{})
	c := dial(t, srv, client.Options{})
	nan := math.NaN()
	for _, spec := range []struct {
		name  string
		parts int
	}{{"plain", 0}, {"parted", 3}} {
		if err := c.CreateTable(spec.name, []string{"id", "x"}, 0, spec.parts); err != nil {
			t.Fatal(err)
		}
		res, err := c.Batch([]client.Op{
			{Kind: client.OpInsert, Table: spec.name, Row: []float64{nan, 1}},
			{Kind: client.OpInsert, Table: spec.name, Row: []float64{2, 2}},
		})
		if err != nil || res[0].Err != nil || res[1].Err != nil {
			t.Fatalf("%s: NaN batch: %v, %+v", spec.name, err, res)
		}
		res, err = c.Batch([]client.Op{{Kind: client.OpInsert, Table: spec.name, Row: []float64{nan, 3}}})
		if err != nil || !errors.Is(res[0].Err, client.ErrDupKey) {
			t.Fatalf("%s: second NaN insert: %v, %+v", spec.name, err, res)
		}
		if rows, err := c.Range(spec.name, 1, 0, 9); err != nil || len(rows) != 2 || !math.IsNaN(rows[0][0]) {
			t.Fatalf("%s: still serving: rows=%v err=%v", spec.name, rows, err)
		}
	}
}

// TestSessionTxnLeakOnAbruptDisconnect opens a transaction (which pins a
// snapshot at its begin timestamp), kills the connection without commit
// or rollback, and asserts the server's session teardown releases the
// snapshot: the clock's GC horizon must advance past the orphaned
// transaction's timestamp.
func TestSessionTxnLeakOnAbruptDisconnect(t *testing.T) {
	srv, d := startServer(t, Options{})
	c := dial(t, srv, client.Options{})
	if err := c.CreateTable("t", []string{"id", "x"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("t", []float64{1, 1}); err != nil {
		t.Fatal(err)
	}

	clk := d.Clock()
	victim := dial(t, srv, client.Options{})
	if _, err := victim.Begin(); err != nil {
		t.Fatal(err)
	}
	pinned := clk.OldestActive()

	// Commit a few more transactions so the clock moves past the pin.
	for i := 2; i < 6; i++ {
		if err := c.Insert("t", []float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := clk.OldestActive(); got != pinned {
		t.Fatalf("open wire txn does not pin the GC horizon: %d, want %d", got, pinned)
	}

	// Abrupt disconnect: no rollback, no commit, just a dead socket.
	victim.Close()

	deadline := time.Now().Add(5 * time.Second)
	for clk.OldestActive() <= pinned {
		if time.Now().After(deadline) {
			t.Fatalf("GC horizon still pinned at %d after disconnect", clk.OldestActive())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if open := srv.Stats().TxnsOpen; open != 0 {
		t.Fatalf("%d wire txns still open after disconnect", open)
	}
}

// TestAdmissionControlBackpressure floods a tiny-MaxInflight server with
// a pipelined burst and asserts overload rejections are real, positional,
// and non-fatal: every request gets a response, rejected ones carry
// CodeOverloaded, and the session keeps working afterwards.
func TestAdmissionControlBackpressure(t *testing.T) {
	srv, _ := startServer(t, Options{MaxInflight: 2, QueueDepth: 512})
	c := dial(t, srv, client.Options{})
	if err := c.CreateTable("t", []string{"id", "x"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := c.Insert("t", []float64{float64(i), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	const burst = 400
	p := c.Pipeline()
	for i := 0; i < burst; i++ {
		p.Range("t", 1, 0, 20)
	}
	results, err := p.Flush()
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	rejected := 0
	for _, r := range results {
		if r.Err != nil {
			if !errors.Is(r.Err, client.ErrOverloaded) {
				t.Fatalf("non-overload error in burst: %v", r.Err)
			}
			rejected++
		}
	}
	if got := srv.Stats().Rejected; got != int64(rejected) {
		t.Fatalf("stats.Rejected=%d, client saw %d", got, rejected)
	}
	if rejected == 0 {
		// With MaxInflight 2 and a 400-deep burst arriving faster than
		// single-CPU execution drains it, shedding is effectively certain;
		// if the race somehow admits everything, the test is inconclusive
		// rather than wrong.
		t.Skip("burst fully admitted; backpressure not exercised on this run")
	}
	// The session survives shedding.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after burst: %v", err)
	}
}

// TestTenantNamespacesAndQuota verifies namespace isolation (same table
// name, different tenants, different data; '@' rejected in table names)
// and the per-tenant op quota.
func TestTenantNamespacesAndQuota(t *testing.T) {
	srv, _ := startServer(t, Options{TenantOps: 40})
	alice := dial(t, srv, client.Options{Tenant: "alice"})
	bob := dial(t, srv, client.Options{Tenant: "bob"})

	for who, c := range map[string]*client.Conn{"alice": alice, "bob": bob} {
		if err := c.CreateTable("t", []string{"id", "x"}, 0, 0); err != nil {
			t.Fatalf("%s create: %v", who, err)
		}
	}
	if err := alice.Insert("t", []float64{1, 10}); err != nil {
		t.Fatal(err)
	}
	if err := bob.Insert("t", []float64{1, 20}); err != nil {
		t.Fatal(err)
	}
	rows, err := alice.Point("t", 0, 1)
	if err != nil || len(rows) != 1 || rows[0][1] != 10 {
		t.Fatalf("alice sees %v (err %v), want her own row", rows, err)
	}
	rows, err = bob.Point("t", 0, 1)
	if err != nil || len(rows) != 1 || rows[0][1] != 20 {
		t.Fatalf("bob sees %v (err %v), want his own row", rows, err)
	}
	if err := alice.Insert("evil@t", []float64{9, 9}); err == nil {
		t.Fatal("'@' accepted in a client table name")
	}
	if err := alice.Insert("t#0", []float64{9, 9}); err == nil {
		t.Fatal("'#' accepted in a client table name")
	}

	// Exhaust alice's quota; bob must be unaffected.
	var quotaErr error
	for i := 0; i < 60 && quotaErr == nil; i++ {
		_, quotaErr = alice.Point("t", 0, 1)
	}
	if !errors.Is(quotaErr, client.ErrQuota) {
		t.Fatalf("alice never hit her quota: %v", quotaErr)
	}
	if _, err := bob.Point("t", 0, 1); err != nil {
		t.Fatalf("bob collateral damage from alice's quota: %v", err)
	}
	if srv.Stats().QuotaRejected == 0 {
		t.Fatal("QuotaRejected counter untouched")
	}
}

// TestGracefulDrain verifies Close lets queued pipelined work finish —
// every response of a burst that was queued when Close began reaches the
// client, although the queue closes without ever running dry — and that
// open transactions are rolled back (snapshots released) rather than
// leaked.
func TestGracefulDrain(t *testing.T) {
	srv, d, ln := startCounted(t, Options{DrainTimeout: 3 * time.Second})
	c := dial(t, srv, client.Options{})
	if err := c.CreateTable("t", []string{"id", "x"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("t", []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	// Leave a transaction open across the drain.
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	before := d.Clock().OldestActive()

	// A burst in flight: queued behind a parked executor when Close begins.
	const burst = 100
	rc := dialRaw(t, srv)
	release := park(t, ln, rc)
	reqs := make([]proto.Request, burst)
	for i := range reqs {
		reqs[i] = insertReq("t", float64(100+i), 0)
	}
	rc.send(t, reqs...)
	waitQueued(t, srv, burst)

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	for !srv.s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	// Give the reader the moment it needs to see the drain and close the
	// queue: the executor then meets a queue that is closed, not empty. (If
	// it has not, the executor flushes on the empty queue and the test
	// passes without having tested the closing flush.)
	time.Sleep(50 * time.Millisecond)
	release()
	for i := 0; i < 1+burst; i++ {
		if resp := rc.recv(t); resp.Type != proto.RespOK {
			t.Fatalf("response %d of the drained burst: %+v", i, resp)
		}
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	_, st, err := mustTable(t, d, "t").Exec(engine.Query{Col: 0, Lo: 100, Hi: 100 + burst}, nil)
	if err != nil || st.Rows != burst {
		t.Fatalf("drained burst applied %d of %d inserts (err %v)", st.Rows, burst, err)
	}

	if open := srv.Stats().TxnsOpen; open != 0 {
		t.Fatalf("%d txns open after drain", open)
	}
	if got := d.Clock().OldestActive(); got < before {
		t.Fatalf("GC horizon regressed across drain: %d < %d", got, before)
	}
	// New connections are refused.
	if _, err := client.Dial(srv.Addr().String(), client.Options{}); err == nil {
		t.Fatal("dial succeeded after Close")
	}
	// Closing twice is safe.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustTable(t *testing.T, d *engine.DurableDB, name string) *engine.Table {
	t.Helper()
	tb, err := d.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestBurstCostsOneWrite pins what the session spends on a pipelined
// burst: a depth-64 run of inserts, and one of point reads, leave in at
// most two server-side writes (one when the whole burst was queued before
// the executor reached it, as here) — not in one write per response.
func TestBurstCostsOneWrite(t *testing.T) {
	srv, _, ln := startCounted(t, Options{})
	c := dial(t, srv, client.Options{})
	if err := c.CreateTable("t", []string{"id", "x"}, 0, 4); err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, srv)
	for name, mk := range map[string]func(i int) proto.Request{
		"inserts": func(i int) proto.Request { return insertReq("t", float64(i), float64(i)) },
		"points":  func(i int) proto.Request { return proto.Request{Type: proto.ReqPoint, Table: "t", Lo: float64(i)} },
	} {
		release := park(t, ln, rc)
		reqs := make([]proto.Request, maxCoalesce)
		for i := range reqs {
			reqs[i] = mk(i)
		}
		rc.send(t, reqs...)
		waitQueued(t, srv, len(reqs))
		before := ln.writes.Load() // counts the parked write already
		release()
		for i := 0; i < 1+len(reqs); i++ {
			if resp := rc.recv(t); resp.Type == proto.RespError {
				t.Fatalf("%s: response %d: %+v", name, i, resp)
			}
		}
		if n := ln.writes.Load() - before; n < 1 || n > 2 {
			t.Fatalf("%s: a burst of %d cost %d server-side writes, want 1 or 2", name, len(reqs), n)
		}
	}
}

// TestLastResponseNeedsNoFurtherTraffic covers the ways a session's queue
// runs dry: whatever was answered last must reach the client without the
// client sending anything more.
func TestLastResponseNeedsNoFurtherTraffic(t *testing.T) {
	srv, _, _ := startCounted(t, Options{MaxInflight: 2})
	rc := dialRaw(t, srv)

	// One-shots, success and error.
	rc.send(t, proto.Request{Type: proto.ReqCreateTable, Table: "t", Cols: []string{"id"}})
	if resp := rc.recv(t); resp.Type != proto.RespOK {
		t.Fatalf("create table: %+v", resp)
	}
	rc.send(t, insertReq("t", 1))
	if resp := rc.recv(t); resp.Type != proto.RespOK {
		t.Fatalf("insert: %+v", resp)
	}
	rc.send(t, insertReq("t", 1))
	if resp := rc.recv(t); resp.Code != proto.CodeDupKey {
		t.Fatalf("duplicate insert: %+v", resp)
	}
	rc.send(t, proto.Request{Type: proto.ReqPoint, Table: "missing"})
	if resp := rc.recv(t); resp.Code != proto.CodeNoTable {
		t.Fatalf("read of a missing table: %+v", resp)
	}

	// A request refused at admission: every token is taken.
	for srv.s.acquireInflight() {
	}
	rc.send(t, proto.Request{Type: proto.ReqPing})
	if resp := rc.recv(t); resp.Code != proto.CodeOverloaded {
		t.Fatalf("ping with no admission token left: %+v", resp)
	}
	for i := 0; i < 2; i++ {
		srv.s.releaseInflight()
	}

	// A request that answers nothing ends the burst: the response before
	// it must not wait for a flush the ack never triggers.
	rc.send(t, proto.Request{Type: proto.ReqPing},
		proto.Request{Type: proto.ReqReplAck, Follower: "nobody", LSN: 1})
	if resp := rc.recv(t); resp.Type != proto.RespOK {
		t.Fatalf("ping before an ack: %+v", resp)
	}
}

// TestAdmissionPastMaxInflight: with the executor parked, a burst larger
// than MaxInflight is admitted up to the limit and refused past it, and
// the answers come back in request order — the admitted requests' results,
// then CodeOverloaded for each one past the limit. A client that hangs up
// mid-burst leaves no admission count behind.
func TestAdmissionPastMaxInflight(t *testing.T) {
	const limit, burst = 4, 10
	srv, _, ln := startCounted(t, Options{MaxInflight: limit})
	c := dial(t, srv, client.Options{})
	if err := c.CreateTable("t", []string{"id", "x"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	reqs := make([]proto.Request, burst)
	waitRejected := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for srv.Stats().Rejected < n {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d requests refused", srv.Stats().Rejected, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	rc := dialRaw(t, srv)
	release := park(t, ln, rc)
	for i := range reqs {
		reqs[i] = insertReq("t", float64(i), float64(i))
	}
	rc.send(t, reqs...)
	waitQueued(t, srv, limit)
	waitRejected(burst - limit)
	release()
	if resp := rc.recv(t); resp.Type != proto.RespOK {
		t.Fatalf("parked ping: %+v", resp)
	}
	for i := range reqs {
		resp := rc.recv(t)
		if i < limit && resp.Type != proto.RespOK || i >= limit && resp.Code != proto.CodeOverloaded {
			t.Fatalf("response %d of a burst of %d past MaxInflight %d: %+v", i, burst, limit, resp)
		}
	}
	if n := srv.s.inflight.Load(); n != 0 {
		t.Fatalf("%d requests still counted in flight after their answers", n)
	}

	// The same burst again, and the client hangs up before any answer —
	// with a reset, so the parked executor's write fails and the session
	// ends with admitted requests still queued.
	rc = dialRaw(t, srv)
	release = park(t, ln, rc)
	for i := range reqs {
		reqs[i] = insertReq("t", float64(burst+i), 0)
	}
	rc.send(t, reqs...)
	waitQueued(t, srv, limit)
	waitRejected(2 * (burst - limit))
	if err := rc.nc.(*net.TCPConn).SetLinger(0); err != nil {
		t.Fatal(err)
	}
	rc.nc.Close()
	release()
	deadline := time.Now().Add(10 * time.Second)
	for srv.s.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests still counted in flight after the client hung up", srv.s.inflight.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStallingRequestFlushesFirst: DDL queued behind ten inserts must not
// sit on their responses while it builds — the executor flushes before a
// request that may stall, so the inserts' responses are on the wire while
// the index does not exist yet.
func TestStallingRequestFlushesFirst(t *testing.T) {
	srv, d, ln := startCounted(t, Options{})
	c := dial(t, srv, client.Options{})
	if err := c.CreateTable("t", []string{"id", "x"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	tb := mustTable(t, d, "t")
	okFrame, err := proto.AppendResponse(nil, &proto.Response{Type: proto.RespOK})
	if err != nil {
		t.Fatal(err)
	}

	rc := dialRaw(t, srv)
	release := park(t, ln, rc)
	const inserts = 10
	reqs := make([]proto.Request, 0, inserts+1)
	for i := 0; i < inserts; i++ {
		reqs = append(reqs, insertReq("t", float64(i), float64(i)))
	}
	reqs = append(reqs, proto.Request{Type: proto.ReqCreateIndex, Table: "t", Col: 1, Kind: proto.IndexBTree})
	rc.send(t, reqs...)
	waitQueued(t, srv, len(reqs))

	// Bytes the session wrote before the index existed, after the release.
	var early atomic.Int64
	ln.setHook(func(p []byte) {
		if tb.IndexOn(1) == engine.KindNone {
			early.Add(int64(len(p)))
		}
	})
	release()
	for i := 0; i < 1+len(reqs); i++ {
		if resp := rc.recv(t); resp.Type != proto.RespOK {
			t.Fatalf("response %d: %+v", i, resp)
		}
	}
	if want := int64(inserts * len(okFrame)); early.Load() < want {
		t.Fatalf("%d response bytes written before the DDL ran, want the %d inserts' %d",
			early.Load(), inserts, want)
	}
}

// TestMalformedFrameEndsSessionCleanly writes garbage bytes and asserts
// the server drops the connection without wedging the listener.
func TestMalformedFrameEndsSessionCleanly(t *testing.T) {
	srv, _ := startServer(t, Options{})
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A frame with a hostile length prefix.
	nc.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	buf := make([]byte, 16)
	nc.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := nc.Read(buf); err == nil {
		// Any response at all would mean the server tried to parse past a
		// refused frame; it must just hang up.
		t.Fatal("server responded to a hostile frame instead of closing")
	}
	// The listener is still fine.
	c := dial(t, srv, client.Options{})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolErrorResponses exercises error mapping end to end: missing
// table, duplicate key, bad batch nesting.
func TestProtocolErrorResponses(t *testing.T) {
	srv, _ := startServer(t, Options{})
	c := dial(t, srv, client.Options{})
	if _, err := c.Point("missing", 0, 1); !errors.Is(err, client.ErrNoTable) {
		t.Fatalf("want ErrNoTable, got %v", err)
	}
	if err := c.CreateTable("t", []string{"id"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("t", []string{"id"}, 0, 0); !errors.Is(err, client.ErrDupKey) {
		t.Fatalf("duplicate create-table: want ErrDupKey, got %v", err)
	}
	if err := c.Insert("t", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("t", []float64{1}); !errors.Is(err, client.ErrDupKey) {
		t.Fatalf("duplicate insert: want ErrDupKey, got %v", err)
	}
	var serr *client.Error
	if err := c.Insert("t", []float64{1}); !errors.As(err, &serr) || serr.Code != proto.CodeDupKey {
		t.Fatalf("error does not expose wire code: %v", err)
	}
}
