package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"hermit/internal/client"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/repl"
	"hermit/internal/server/proto"
)

// replicaPair is a leader server plus one follower server wired exactly
// the way cmd/hermitd wires them.
type replicaPair struct {
	ld     *engine.DurableDB
	leader *repl.Leader
	lsrv   *Server
	f      *repl.Follower
	fsrv   *Server
}

func startReplicaPair(t *testing.T, lopts repl.LeaderOptions, httpAddr string) *replicaPair {
	t.Helper()
	ld, err := engine.OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ld.Close() })
	leader, err := repl.NewLeader(ld, lopts)
	if err != nil {
		t.Fatal(err)
	}
	lsrv := New(ld, Options{Leader: leader})
	if err := lsrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lsrv.Close() })

	f, err := repl.OpenFollower(repl.FollowerOptions{
		Dir: t.TempDir(), ID: "r1", LeaderAddr: lsrv.Addr().String(),
		Scheme:         hermit.PhysicalPointers,
		ReconnectDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	fsrv := New(f.DB(), Options{Follower: f, HTTPAddr: httpAddr})
	f.SetOnEngineSwap(func(db *engine.DurableDB) { fsrv.SwapEngine(db) })
	f.Start()
	if err := fsrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fsrv.Close() })
	return &replicaPair{ld: ld, leader: leader, lsrv: lsrv, f: f, fsrv: fsrv}
}

// TestReplicatedServingEndToEnd drives writes through the leader's wire
// protocol and reads them back from the follower's: the full
// server-to-server replication path, plus the watermark endpoint, the
// read-only rejection, and the stats surfaces on both roles.
func TestReplicatedServingEndToEnd(t *testing.T) {
	p := startReplicaPair(t, repl.LeaderOptions{}, "")
	lc := dial(t, p.lsrv, client.Options{})
	fc := dial(t, p.fsrv, client.Options{})

	if err := lc.CreateTable("t", []string{"id", "v"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := lc.Insert("t", []float64{float64(i), float64(i * 3)}); err != nil {
			t.Fatal(err)
		}
	}
	last := p.ld.LastLSN()
	if err := p.f.WaitFor(last, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// The follower serves replicated reads over its own wire endpoint.
	rows, err := fc.Point("t", 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1] != 21 {
		t.Fatalf("follower read: %v", rows)
	}
	all, err := fc.Range("t", 0, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 50 {
		t.Fatalf("follower sees %d rows, want 50", len(all))
	}

	// Watermarks over the wire: leader reports its last LSN, the follower
	// its applied LSN (equal after catch-up).
	llsn, err := lc.LSN()
	if err != nil {
		t.Fatal(err)
	}
	flsn, err := fc.LSN()
	if err != nil {
		t.Fatal(err)
	}
	if llsn != last || flsn != last {
		t.Fatalf("LSN watermarks: leader %d follower %d, want %d", llsn, flsn, last)
	}

	// Every mutation class bounces off the follower with ErrNotLeader.
	if err := fc.Insert("t", []float64{1000, 0}); !errors.Is(err, client.ErrNotLeader) {
		t.Fatalf("follower insert: %v", err)
	}
	if _, err := fc.Delete("t", 1); !errors.Is(err, client.ErrNotLeader) {
		t.Fatalf("follower delete: %v", err)
	}
	if err := fc.Update("t", 1, 1, 0); !errors.Is(err, client.ErrNotLeader) {
		t.Fatalf("follower update: %v", err)
	}
	if err := fc.CreateTable("u", []string{"id"}, 0, 0); !errors.Is(err, client.ErrNotLeader) {
		t.Fatalf("follower DDL: %v", err)
	}
	if _, err := fc.Point("t", 0, 7); err != nil {
		t.Fatalf("follower read after rejections: %v", err)
	}

	// Stats expose the replication role on both sides, with per-follower
	// lag on the leader.
	lst := p.lsrv.Stats()
	if lst.Repl == nil || lst.Repl.Role != "leader" || lst.Repl.Leader == nil {
		t.Fatalf("leader stats: %+v", lst.Repl)
	}
	if len(lst.Repl.Leader.Followers) != 1 || lst.Repl.Leader.Followers[0].ID != "r1" {
		t.Fatalf("leader follower stats: %+v", lst.Repl.Leader.Followers)
	}
	fst := p.fsrv.Stats()
	if fst.Repl == nil || fst.Repl.Role != "follower" || fst.Repl.Follower == nil {
		t.Fatalf("follower stats: %+v", fst.Repl)
	}
	if fst.Repl.Follower.AppliedLSN != last {
		t.Fatalf("follower stats applied %d, want %d", fst.Repl.Follower.AppliedLSN, last)
	}
}

// TestStreamAndResponsesShareAConnection: a subscribed connection has two
// writers — the stream goroutine, which flushes every frame it sends, and
// the executor, which buffers its responses until its queue runs dry.
// Whatever the interleaving, the client must read whole frames: every
// ping answered, every WAL record delivered once and in LSN order. Run
// under -race this is also the check that both writers hold the write
// mutex around the shared bufio.Writer.
func TestStreamAndResponsesShareAConnection(t *testing.T) {
	ld, err := engine.OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ld.Close() })
	leader, err := repl.NewLeader(ld, repl.LeaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ld, Options{Leader: leader})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	w := dial(t, srv, client.Options{})
	if err := w.CreateTable("t", []string{"id", "v"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, srv)
	rc.send(t, proto.Request{Type: proto.ReqReplSubscribe, Follower: "raw"})
	if resp := rc.recv(t); resp.Type != proto.RespReplState || resp.NeedSnapshot {
		t.Fatalf("subscribe: %+v", resp)
	}

	const writes, pings = 300, 300
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the stream's source: one WAL record per insert
		defer wg.Done()
		for i := 0; i < writes; i++ {
			if err := w.Insert("t", []float64{float64(i), 0}); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	}()
	go func() { // the executor's responses, in bursts of varying depth
		defer wg.Done()
		for sent := 0; sent < pings; {
			n := min(1+sent%7, pings-sent)
			for i := 0; i < n; i++ {
				if err := proto.WriteRequest(rc.bw, &proto.Request{Type: proto.ReqPing}); err != nil {
					t.Errorf("ping: %v", err)
					return
				}
			}
			if err := rc.bw.Flush(); err != nil {
				t.Errorf("ping flush: %v", err)
				return
			}
			sent += n
		}
	}()

	// 1 (create table) + writes records; pings answered by RespOK.
	var ponged int
	var lastLSN uint64
	for ponged < pings || lastLSN < 1+writes {
		switch resp := rc.recv(t); resp.Type {
		case proto.RespOK:
			ponged++
		case proto.RespReplFrames:
			for _, rec := range resp.Recs {
				if rec.LSN != lastLSN+1 {
					t.Fatalf("stream delivered LSN %d after %d", rec.LSN, lastLSN)
				}
				lastLSN = rec.LSN
			}
		default:
			t.Fatalf("unexpected frame on a subscribed connection: %+v", resp)
		}
	}
	wg.Wait()
	if ponged != pings {
		t.Fatalf("%d pings answered, want %d", ponged, pings)
	}
}

// TestQuorumGateBlocksAndReleases: with AckMode quorum and the only
// follower paused, writes time out with an explicit commit-state-unknown
// error; resuming the follower lets writes commit again.
func TestQuorumGateBlocksAndReleases(t *testing.T) {
	p := startReplicaPair(t, repl.LeaderOptions{
		AckMode: repl.AckQuorum, QuorumTimeout: 200 * time.Millisecond,
	}, "")
	lc := dial(t, p.lsrv, client.Options{})

	if err := lc.CreateTable("t", []string{"id"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("t", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := p.f.WaitFor(p.ld.LastLSN(), 30*time.Second); err != nil {
		t.Fatal(err)
	}

	p.f.Pause()
	err := lc.Insert("t", []float64{2})
	if err == nil {
		t.Fatal("quorum write succeeded with the only follower paused")
	}
	var serr *client.Error
	if !errors.As(err, &serr) {
		t.Fatalf("quorum failure not a server error: %v", err)
	}

	p.f.Resume()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := lc.Insert("t", []float64{3}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writes never recovered after resume")
		}
	}
	// The row rejected at the gate was still durable on the leader (the
	// error is about replication state, not local durability).
	rows, err := lc.Point("t", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("gated write not locally durable: %v", rows)
	}
}

// TestPromoteOverHTTP flips a running follower server into a leader via
// POST /v1/promote — the hermitd wiring — and verifies it starts taking
// writes with a bumped epoch while a second promote attempt fails.
func TestPromoteOverHTTP(t *testing.T) {
	p := startReplicaPair(t, repl.LeaderOptions{}, "127.0.0.1:0")
	lc := dial(t, p.lsrv, client.Options{})
	if err := lc.CreateTable("t", []string{"id"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("t", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := p.f.WaitFor(p.ld.LastLSN(), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	oldEpoch := p.leader.Epoch()

	// Wire the promote hook the way cmd/hermitd does.
	var once sync.Once
	var newLeader *repl.Leader
	p.fsrv.s.promote = func() error {
		perr := errors.New("already promoted")
		once.Do(func() {
			db, err := p.f.Promote()
			if err != nil {
				perr = err
				return
			}
			l, err := repl.NewLeader(db, repl.LeaderOptions{})
			if err != nil {
				perr = err
				return
			}
			p.fsrv.SwapEngine(db)
			p.fsrv.BecomeLeader(l)
			newLeader = l
			perr = nil
		})
		return perr
	}

	base := fmt.Sprintf("http://%s", p.fsrv.HTTPAddr())
	resp, err := http.Post(base+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote status %d", resp.StatusCode)
	}
	if newLeader == nil || newLeader.Epoch() != oldEpoch+1 {
		t.Fatalf("promotion epoch: %+v", newLeader)
	}

	// The promoted node now takes writes over the wire.
	fc := dial(t, p.fsrv, client.Options{})
	if err := fc.Insert("t", []float64{2}); err != nil {
		t.Fatalf("promoted node rejects writes: %v", err)
	}
	if st := p.fsrv.Stats(); st.Repl == nil || st.Repl.Role != "leader" {
		t.Fatalf("promoted stats: %+v", st.Repl)
	}

	// Second promote: conflict.
	resp2, err := http.Post(base+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("second promote status %d, want 409", resp2.StatusCode)
	}
}

// TestPromoteNotConfigured: a node without a promote hook answers 400.
func TestPromoteNotConfigured(t *testing.T) {
	d, err := engine.OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := New(d, Options{HTTPAddr: "127.0.0.1:0"})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	resp, err := http.Post(fmt.Sprintf("http://%s/v1/promote", srv.HTTPAddr()), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("promote status %d, want 400", resp.StatusCode)
	}
}
