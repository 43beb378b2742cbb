package client_test

import (
	"errors"
	"testing"
	"time"

	"hermit/internal/client"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/repl"
	"hermit/internal/server"
)

// replicatedStack is a leader server plus n follower servers, each
// tailing the leader, for cluster-routing tests.
type replicatedStack struct {
	ld        *engine.DB
	lsrv      *server.Server
	followers []*repl.Follower
	fsrvs     []*server.Server
}

func startReplicatedStack(t *testing.T, n int) *replicatedStack {
	t.Helper()
	ld, err := engine.OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ld.Close() })
	leader, err := repl.NewLeader(ld, repl.LeaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lsrv := server.New(ld, server.Options{Leader: leader})
	if err := lsrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lsrv.Close() })
	st := &replicatedStack{ld: ld, lsrv: lsrv}
	for i := 0; i < n; i++ {
		f, err := repl.OpenFollower(repl.FollowerOptions{
			Dir: t.TempDir(), ID: string(rune('a' + i)), LeaderAddr: lsrv.Addr().String(),
			Scheme:         hermit.PhysicalPointers,
			ReconnectDelay: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		fsrv := server.New(f.DB(), server.Options{Follower: f})
		f.SetOnEngineSwap(func(db *engine.DB) { fsrv.SwapEngine(db) })
		f.Start()
		if err := fsrv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fsrv.Close() })
		st.followers = append(st.followers, f)
		st.fsrvs = append(st.fsrvs, fsrv)
	}
	return st
}

func (st *replicatedStack) followerAddrs() []string {
	addrs := make([]string, len(st.fsrvs))
	for i, s := range st.fsrvs {
		addrs[i] = s.Addr().String()
	}
	return addrs
}

func (st *replicatedStack) waitAll(t *testing.T) {
	t.Helper()
	last := st.ld.LastLSN()
	for _, f := range st.followers {
		if err := f.WaitFor(last, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterReadYourWrites routes writes to the leader and reads across
// followers with the min-applied-LSN token: every read must observe the
// cluster's own preceding writes no matter which endpoint serves it.
func TestClusterReadYourWrites(t *testing.T) {
	st := startReplicatedStack(t, 2)
	cl, err := client.DialCluster(st.lsrv.Addr().String(), st.followerAddrs(),
		client.ClusterOptions{ReadYourWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.CreateTable("t", []string{"id", "v"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Write-then-read, repeatedly: the token forces each read onto an
	// endpoint that already holds the write.
	for i := 0; i < 30; i++ {
		if err := cl.Insert("t", []float64{float64(i), float64(i * 2)}); err != nil {
			t.Fatal(err)
		}
		rows, err := cl.Point("t", 0, float64(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][1] != float64(i*2) {
			t.Fatalf("read-your-writes miss at %d: %v", i, rows)
		}
	}
	if err := cl.Update("t", 3, 1, 99); err != nil {
		t.Fatal(err)
	}
	rows, err := cl.Point("t", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1] != 99 {
		t.Fatalf("update not observed: %v", rows)
	}
	if _, err := cl.Delete("t", 4); err != nil {
		t.Fatal(err)
	}
	if rows, err := cl.Point("t", 0, 4); err != nil || len(rows) != 0 {
		t.Fatalf("delete not observed: %v %v", rows, err)
	}
	if rows, err := cl.Range("t", 0, 0, 100); err != nil || len(rows) != 29 {
		t.Fatalf("range after delete: %d rows, %v", len(rows), err)
	}
}

// TestClusterReadsWritesBeforeDial: a ReadYourWrites cluster reads every
// write the leader acknowledged before the cluster was dialled — here a
// table and a row created over a plain leader connection while both
// followers are held behind — so its first read never reaches a follower
// that has not applied them.
func TestClusterReadsWritesBeforeDial(t *testing.T) {
	st := startReplicatedStack(t, 2)
	for _, f := range st.followers {
		f.Pause()
	}
	leader, err := client.Dial(st.lsrv.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.CreateTable("early", []string{"id", "v"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := leader.Insert("early", []float64{1, 10}); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		cl, err := client.DialCluster(st.lsrv.Addr().String(), st.followerAddrs(),
			client.ClusterOptions{ReadYourWrites: true})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := cl.Point("early", 0, 1)
		cl.Close()
		if err != nil || len(rows) != 1 || rows[0][1] != 10 {
			t.Fatalf("first read of a fresh cluster: rows %v, err %v", rows, err)
		}
	}
	for _, f := range st.followers {
		f.Resume()
	}
	st.waitAll(t)
}

// TestClusterEventualReads: without ReadYourWrites the cluster spreads
// reads over followers with no freshness gate — once the followers have
// caught up, reads return the replicated data from follower connections.
func TestClusterEventualReads(t *testing.T) {
	st := startReplicatedStack(t, 2)
	cl, err := client.DialCluster(st.lsrv.Addr().String(), st.followerAddrs(),
		client.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.CreateTable("t", []string{"id"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := cl.Insert("t", []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st.waitAll(t)
	for i := 0; i < 10; i++ {
		rows, err := cl.Point("t", 0, float64(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("eventual read %d: %v", i, rows)
		}
	}
	// Range2 also routes through the read path.
	if _, err := cl.Range2("t", 0, 0, 5, 0, 0, 5); err != nil {
		t.Fatal(err)
	}
}

// TestClusterLeaderFallback: with no followers at all, every read falls
// back to the leader connection.
func TestClusterLeaderFallback(t *testing.T) {
	st := startReplicatedStack(t, 0)
	cl, err := client.DialCluster(st.lsrv.Addr().String(), nil,
		client.ClusterOptions{ReadYourWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.CreateTable("t", []string{"id"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Insert("t", []float64{1}); err != nil {
		t.Fatal(err)
	}
	rows, err := cl.Point("t", 0, 1)
	if err != nil || len(rows) != 1 {
		t.Fatalf("leader fallback read: %v %v", rows, err)
	}
	if cl.Leader() == nil {
		t.Fatal("no leader connection exposed")
	}
}

// TestClusterSkipsDeadFollowers: unreachable follower endpoints are
// skipped at dial time; the cluster still works on what remains.
func TestClusterSkipsDeadFollowers(t *testing.T) {
	st := startReplicatedStack(t, 1)
	addrs := append(st.followerAddrs(), "127.0.0.1:1")
	cl, err := client.DialCluster(st.lsrv.Addr().String(), addrs,
		client.ClusterOptions{ReadYourWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.CreateTable("t", []string{"id"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Insert("t", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if rows, err := cl.Point("t", 0, 1); err != nil || len(rows) != 1 {
		t.Fatalf("read with dead follower in the list: %v %v", rows, err)
	}
	// A dead leader is fatal.
	if _, err := client.DialCluster("127.0.0.1:1", nil, client.ClusterOptions{}); err == nil {
		t.Fatal("dial with dead leader succeeded")
	}
}

// TestFollowerErrorSentinels: writes against a follower connection map
// CodeNotLeader onto client.ErrNotLeader.
func TestFollowerErrorSentinels(t *testing.T) {
	st := startReplicatedStack(t, 1)
	lc := dial(t, st.lsrv, client.Options{})
	if err := lc.CreateTable("t", []string{"id"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	fc := dial(t, st.fsrvs[0], client.Options{})
	if err := fc.Insert("t", []float64{1}); !errors.Is(err, client.ErrNotLeader) {
		t.Fatalf("follower insert error: %v", err)
	}
}
