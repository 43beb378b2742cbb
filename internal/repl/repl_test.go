package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/server/proto"
	"hermit/internal/storage"
)

// waitTimeout bounds every catch-up wait in these tests.
const waitTimeout = 30 * time.Second

// leaderHarness is a minimal leader-side wire endpoint: it accepts
// connections and speaks exactly the subscription surface (subscribe →
// ServeSubscriber on a goroutine, acks → Ack), mirroring how the real
// server integrates the Leader without importing it (which would cycle).
type leaderHarness struct {
	t    *testing.T
	d    *engine.DB
	l    *Leader
	ln   net.Listener
	stop chan struct{}
	wg   sync.WaitGroup
}

func newLeaderHarness(t *testing.T, dir string, dopts engine.DurableOptions, lopts LeaderOptions) *leaderHarness {
	t.Helper()
	d, err := engine.OpenDurableOptions(dir, hermit.PhysicalPointers, dopts)
	if err != nil {
		t.Fatalf("open leader: %v", err)
	}
	l, err := NewLeader(d, lopts)
	if err != nil {
		t.Fatalf("new leader: %v", err)
	}
	return harnessFor(t, d, l)
}

// harnessFor wraps an already-open database and leader (e.g. a promoted
// follower) in a listening harness.
func harnessFor(t *testing.T, d *engine.DB, l *Leader) *leaderHarness {
	t.Helper()
	h := &leaderHarness{t: t, d: d, l: l, stop: make(chan struct{})}
	h.listen()
	return h
}

func (h *leaderHarness) listen() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.t.Fatalf("listen: %v", err)
	}
	h.ln = ln
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				h.serveConn(conn)
			}()
		}
	}()
}

func (h *leaderHarness) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var wmu sync.Mutex
	send := func(resp *proto.Response) error {
		wmu.Lock()
		defer wmu.Unlock()
		if err := proto.WriteResponse(bw, resp); err != nil {
			return err
		}
		return bw.Flush()
	}
	connStop := make(chan struct{})
	defer close(connStop)
	var subWG sync.WaitGroup
	defer subWG.Wait()
	for {
		req, err := proto.ReadRequest(br)
		if err != nil {
			return
		}
		switch req.Type {
		case proto.ReqReplSubscribe:
			subWG.Add(1)
			go func(fromLSN, epoch uint64, id string) {
				defer subWG.Done()
				merged := make(chan struct{})
				go func() {
					select {
					case <-connStop:
					case <-h.stop:
					}
					close(merged)
				}()
				h.l.ServeSubscriber(fromLSN, epoch, id, send, merged)
				conn.Close() // a finished stream (failpoint crash) drops the subscriber
			}(req.LSN, req.Epoch, req.Follower)
		case proto.ReqReplAck:
			h.l.Ack(req.Follower, req.LSN)
		}
	}
}

func (h *leaderHarness) addr() string { return h.ln.Addr().String() }

// close tears down the harness, simulating a leader crash (connections
// drop mid-stream, no clean handoff).
func (h *leaderHarness) close() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	h.ln.Close()
	h.wg.Wait()
	h.d.Close()
}

func openTestFollower(t *testing.T, dir, id, leaderAddr string, dopts engine.DurableOptions) *Follower {
	t.Helper()
	f, err := OpenFollower(FollowerOptions{
		Dir: dir, ID: id, LeaderAddr: leaderAddr,
		Scheme: hermit.PhysicalPointers, Durable: dopts,
		ReconnectDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	f.Start()
	return f
}

// tableRows scans every live row of a table, sorted by primary key, for
// state comparison.
func tableRows(t *testing.T, d *engine.DB, name string) [][]float64 {
	t.Helper()
	tb, err := d.Table(name)
	if err != nil {
		t.Fatalf("table %s: %v", name, err)
	}
	var out [][]float64
	tb.ScanLive(func(_ storage.RID, row []float64) bool {
		out = append(out, append([]float64(nil), row...))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func assertSameRows(t *testing.T, want, got [][]float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: row count %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s: row %d width mismatch", label, i)
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("%s: row %d col %d: %v != %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestFollowerMirrorsLeader(t *testing.T) {
	h := newLeaderHarness(t, t.TempDir(), engine.DurableOptions{}, LeaderOptions{})
	defer h.close()
	f := openTestFollower(t, t.TempDir(), "f1", h.addr(), engine.DurableOptions{})
	defer f.Close()

	if _, err := h.d.CreateTable("t", []string{"id", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := h.d.Insert("t", []float64{float64(i), float64(i * 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.d.Delete("t", 50); err != nil {
		t.Fatal(err)
	}
	if err := h.d.UpdateColumn("t", 7, 1, 777); err != nil {
		t.Fatal(err)
	}
	// A multi-op transaction group must apply atomically.
	tx := h.d.Begin()
	if err := tx.Insert("t", []float64{1000, 1}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("t", 3, 1, 33); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	last := h.d.LastLSN()
	if err := f.WaitFor(last, waitTimeout); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, tableRows(t, h.d, "t"), tableRows(t, f.DB(), "t"), "follower state")
	if f.DurableLSN() != last {
		t.Fatalf("durable LSN %d != leader %d", f.DurableLSN(), last)
	}

	// The leader sees the follower's ack and zero lag once caught up.
	deadline := time.Now().Add(waitTimeout)
	for {
		st := h.l.Stats()
		if len(st.Followers) == 1 && st.Followers[0].AckLSN == last {
			if st.Followers[0].Lag != 0 {
				t.Fatalf("lag %d after catch-up", st.Followers[0].Lag)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader never saw follower ack %d: %+v", last, st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFollowerPartitionedAndDDL(t *testing.T) {
	h := newLeaderHarness(t, t.TempDir(), engine.DurableOptions{}, LeaderOptions{})
	defer h.close()
	f := openTestFollower(t, t.TempDir(), "f1", h.addr(), engine.DurableOptions{})
	defer f.Close()

	if err := h.d.CreatePartitionedTable("p", []string{"id", "a", "b"}, 0, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := h.d.Insert("p", []float64{float64(i), float64(i % 7), float64(i % 13)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.d.CreateIndex("p", engine.IndexDef{Kind: "btree", Col: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitFor(h.d.LastLSN(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	for part := 0; part < 4; part++ {
		name := engine.PartitionName("p", part)
		assertSameRows(t, tableRows(t, h.d, name), tableRows(t, f.DB(), name), name)
	}
}

func TestFollowerRestartResumes(t *testing.T) {
	h := newLeaderHarness(t, t.TempDir(), engine.DurableOptions{}, LeaderOptions{})
	defer h.close()
	fdir := t.TempDir()
	f := openTestFollower(t, fdir, "f1", h.addr(), engine.DurableOptions{})

	if _, err := h.d.CreateTable("t", []string{"id", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := h.d.Insert("t", []float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WaitFor(h.d.LastLSN(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Writes continue while the follower is down; a leader checkpoint and
	// segment rotation land mid-gap so the resume crosses a segment
	// boundary.
	for i := 50; i < 100; i++ {
		if _, err := h.d.Insert("t", []float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 150; i++ {
		if _, err := h.d.Insert("t", []float64{float64(i), 2}); err != nil {
			t.Fatal(err)
		}
	}

	f = openTestFollower(t, fdir, "f1", h.addr(), engine.DurableOptions{})
	defer f.Close()
	if err := f.WaitFor(h.d.LastLSN(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, tableRows(t, h.d, "t"), tableRows(t, f.DB(), "t"), "after restart")
}

// rotatingOpts forces frequent WAL rotation so segment-boundary paths run.
func rotatingOpts(retain int) engine.DurableOptions {
	return engine.DurableOptions{WALRotateBytes: 4 << 10, ReplRetainWALSegments: retain}
}

func TestStreamAcrossRotations(t *testing.T) {
	h := newLeaderHarness(t, t.TempDir(), rotatingOpts(8), LeaderOptions{})
	defer h.close()
	f := openTestFollower(t, t.TempDir(), "f1", h.addr(), engine.DurableOptions{})
	defer f.Close()

	if _, err := h.d.CreateTable("t", []string{"id", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := h.d.Insert("t", []float64{float64(i), float64(i)}); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if err := h.d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.WaitFor(h.d.LastLSN(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, tableRows(t, h.d, "t"), tableRows(t, f.DB(), "t"), "across rotations")
}

func TestSnapshotBootstrap(t *testing.T) {
	// Retention 0: rotated segments are deleted at the next GC, so a
	// follower joining after rotations is necessarily behind retention
	// and must bootstrap from a snapshot.
	h := newLeaderHarness(t, t.TempDir(), rotatingOpts(0), LeaderOptions{})
	defer h.close()

	if _, err := h.d.CreateTable("t", []string{"id", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.d.CreatePartitionedTable("p", []string{"id", "a"}, 0, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := h.d.Insert("t", []float64{float64(i), float64(-i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.d.Insert("p", []float64{float64(i), float64(i % 5)}); err != nil {
			t.Fatal(err)
		}
		if i%60 == 59 {
			if err := h.d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.d.CreateIndex("t", engine.IndexDef{Kind: "btree", Col: 1}); err != nil {
		t.Fatal(err)
	}
	if err := h.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	fdir := t.TempDir()
	f := openTestFollower(t, fdir, "f1", h.addr(), engine.DurableOptions{})
	defer f.Close()
	if err := f.WaitFor(h.d.LastLSN(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, tableRows(t, h.d, "t"), tableRows(t, f.DB(), "t"), "bootstrap t")
	for part := 0; part < 2; part++ {
		name := engine.PartitionName("p", part)
		assertSameRows(t, tableRows(t, h.d, name), tableRows(t, f.DB(), name), name)
	}

	// Convergence proof: post-bootstrap writes still stream.
	for i := 300; i < 350; i++ {
		if _, err := h.d.Insert("t", []float64{float64(i), float64(-i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WaitFor(h.d.LastLSN(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, tableRows(t, h.d, "t"), tableRows(t, f.DB(), "t"), "post-bootstrap stream")

	// The follower's directory must recover standalone to the same state.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := engine.OpenDurable(fdir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	assertSameRows(t, tableRows(t, h.d, "t"), tableRows(t, d2, "t"), "bootstrap recovery")
}

func TestPausedFollowerLagAndBoundedRetention(t *testing.T) {
	h := newLeaderHarness(t, t.TempDir(), rotatingOpts(2), LeaderOptions{})
	defer h.close()
	f := openTestFollower(t, t.TempDir(), "f1", h.addr(), engine.DurableOptions{})
	defer f.Close()

	if _, err := h.d.CreateTable("t", []string{"id"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitFor(h.d.LastLSN(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	f.Pause()
	base := h.l.Stats()

	for i := 0; i < 500; i++ {
		if _, err := h.d.Insert("t", []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if err := h.d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Lag must grow while the follower is paused.
	deadline := time.Now().Add(waitTimeout)
	for {
		st := h.l.Stats()
		if len(st.Followers) == 1 && st.Followers[0].Lag > base.LastLSN {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("paused follower lag never grew: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	// Retention stays bounded: at most retain+1 WAL segments on disk even
	// with a stalled subscriber.
	entries, err := os.ReadDir(h.d.Dir())
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".log" {
			segs++
		}
	}
	if segs > 3 {
		t.Fatalf("%d WAL segments on disk; retention 2 should bound it at 3", segs)
	}

	f.Resume()
	if err := f.WaitFor(h.d.LastLSN(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, tableRows(t, h.d, "t"), tableRows(t, f.DB(), "t"), "after resume")
}

func TestPromoteAndFencing(t *testing.T) {
	ldir := t.TempDir()
	h := newLeaderHarness(t, ldir, engine.DurableOptions{}, LeaderOptions{})
	f := openTestFollower(t, t.TempDir(), "f1", h.addr(), engine.DurableOptions{})

	if _, err := h.d.CreateTable("t", []string{"id"}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := h.d.Insert("t", []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		tx := h.d.Begin()
		if err := tx.Insert("t", []float64{float64(100 + i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WaitFor(h.d.LastLSN(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	var mirrored uint64 // the largest transaction id the follower mirrored
	for _, rec := range allWALRecords(t, f.DB()) {
		mirrored = max(mirrored, rec.Txn)
	}
	if mirrored == 0 {
		t.Fatal("no transaction frames mirrored")
	}
	oldEpoch := h.l.Epoch()

	// Promote: the follower becomes a leader with a higher epoch.
	db, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	nl, err := NewLeader(db, LeaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nl.Epoch() != oldEpoch+1 {
		t.Fatalf("promoted epoch %d, want %d", nl.Epoch(), oldEpoch+1)
	}
	if _, err := db.Insert("t", []float64{1000}); err != nil {
		t.Fatalf("promoted leader write: %v", err)
	}
	// The promoted leader's transactions log ids above every mirrored one.
	tx := db.Begin()
	if err := tx.Insert("t", []float64{1001}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if recs := allWALRecords(t, db); recs[len(recs)-1].Txn <= mirrored {
		t.Fatalf("promoted leader's txn id %d not above the mirrored %d", recs[len(recs)-1].Txn, mirrored)
	}

	// Zombie fencing, leader side: the old leader must refuse a
	// subscriber that has seen the new epoch.
	errc := make(chan error, 1)
	var fencedResp *proto.Response
	var mu sync.Mutex
	send := func(resp *proto.Response) error {
		mu.Lock()
		if fencedResp == nil {
			r := *resp
			fencedResp = &r
		}
		mu.Unlock()
		return nil
	}
	go func() {
		errc <- h.l.ServeSubscriber(0, nl.Epoch(), "f2", send, make(chan struct{}))
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrFenced) {
			t.Fatalf("zombie leader served a fenced subscriber: %v", err)
		}
	case <-time.After(waitTimeout):
		t.Fatal("fence check timed out")
	}
	mu.Lock()
	if fencedResp == nil || fencedResp.Code != proto.CodeFenced {
		t.Fatalf("fenced subscriber got %+v, want CodeFenced", fencedResp)
	}
	mu.Unlock()

	// Follower side: a follower that saw the new epoch refuses to follow
	// the zombie leader. Seed the epoch before Start so the very first
	// handshake carries it.
	f2, err := OpenFollower(FollowerOptions{
		Dir: t.TempDir(), ID: "f3", LeaderAddr: h.addr(),
		Scheme:         hermit.PhysicalPointers,
		ReconnectDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	f2.mu.Lock()
	f2.epoch = nl.Epoch()
	f2.mu.Unlock()
	f2.Start()
	deadline := time.Now().Add(waitTimeout)
	for {
		if err := f2.err(); err != nil && errors.Is(err, ErrFenced) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never fenced the zombie leader: %v", f2.err())
		}
		time.Sleep(time.Millisecond)
	}
	h.close()
}

func TestQuorumWait(t *testing.T) {
	h := newLeaderHarness(t, t.TempDir(), engine.DurableOptions{},
		LeaderOptions{AckMode: AckQuorum, QuorumTimeout: 100 * time.Millisecond})
	defer h.close()

	// No followers: quorum is trivially the leader itself.
	if err := h.l.WaitQuorum(10, 50*time.Millisecond); err != nil {
		t.Fatalf("empty replica set: %v", err)
	}

	h.l.register("f1", 0)
	h.l.register("f2", 0)
	// Two followers: majority of 3 needs the leader plus one follower.
	if err := h.l.WaitQuorum(5, 20*time.Millisecond); err == nil {
		t.Fatal("quorum satisfied with no acks")
	}
	h.l.Ack("f1", 5)
	if err := h.l.WaitQuorum(5, waitTimeout); err != nil {
		t.Fatalf("quorum with 1/2 acks: %v", err)
	}
	h.l.Ack("f2", 9)
	if err := h.l.WaitQuorum(9, waitTimeout); err != nil {
		t.Fatalf("quorum at 9: %v", err)
	}

	// Concurrent waiter unblocks when the ack lands.
	done := make(chan error, 1)
	go func() { done <- h.l.WaitQuorum(20, waitTimeout) }()
	time.Sleep(10 * time.Millisecond)
	h.l.Ack("f1", 20)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter: %v", err)
		}
	case <-time.After(waitTimeout):
		t.Fatal("waiter never woke")
	}
}

func TestFollowerCheckpointAtGroupBoundary(t *testing.T) {
	h := newLeaderHarness(t, t.TempDir(), engine.DurableOptions{}, LeaderOptions{})
	defer h.close()
	fdir := t.TempDir()
	f, err := OpenFollower(FollowerOptions{
		Dir: fdir, ID: "f1", LeaderAddr: h.addr(),
		Scheme: hermit.PhysicalPointers,
		// Tiny threshold: every batch triggers a checkpoint attempt.
		CheckpointBytes: 512,
		ReconnectDelay:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close()

	if _, err := h.d.CreateTable("t", []string{"id", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tx := h.d.Begin()
		for j := 0; j < 5; j++ {
			if err := tx.Insert("t", []float64{float64(i*5 + j), float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WaitFor(h.d.LastLSN(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, tableRows(t, h.d, "t"), tableRows(t, f.DB(), "t"), "checkpointing follower")

	// And the checkpointed follower directory recovers standalone.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := engine.OpenDurable(fdir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	assertSameRows(t, tableRows(t, h.d, "t"), tableRows(t, d2, "t"), "follower recovery")
}

func TestStatePersistence(t *testing.T) {
	dir := t.TempDir()
	st, err := loadState(dir)
	if err != nil || st.Epoch != 0 {
		t.Fatalf("fresh state: %+v, %v", st, err)
	}
	if err := saveState(dir, state{Epoch: 7}); err != nil {
		t.Fatal(err)
	}
	st, err = loadState(dir)
	if err != nil || st.Epoch != 7 {
		t.Fatalf("reloaded state: %+v, %v", st, err)
	}
	if err := os.WriteFile(filepath.Join(dir, stateFile), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadState(dir); err == nil {
		t.Fatal("torn state file loaded")
	}
}

func TestWireConversionRoundTrip(t *testing.T) {
	rec := proto.WALRecord{LSN: 42, Op: 8, Part: 3, Txn: 99, Table: "t#1", Payload: []byte{1, 2, 3}}
	back := toWire(fromWire(rec))
	if back.LSN != rec.LSN || back.Op != rec.Op || back.Part != rec.Part ||
		back.Txn != rec.Txn || back.Table != rec.Table || string(back.Payload) != string(rec.Payload) {
		t.Fatalf("round trip mangled record: %+v != %+v", back, rec)
	}
	if fmt.Sprint(fromWire(rec).Op) != "8" {
		t.Fatalf("op conversion")
	}
}
