// Replica: the replication tier end to end, in one process — a leader
// node shipping its WAL to a tailing follower, a cluster client that
// routes writes to the leader and reads to the follower with
// read-your-writes freshness, the follower's read-only op surface, the
// leader's per-follower lag stats, and finally a failover: the follower
// is promoted to leader (fencing the old epoch) and starts taking
// writes.
//
// In production each node is a hermitd daemon: the leader runs plain
// `hermitd -dir ...` and each follower runs
// `hermitd -dir ... -replicate-from <leader-addr>`; promotion is
// `POST /v1/promote` on the follower's HTTP endpoint. This file wires
// the same pieces in-process.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	hermitdb "hermit"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays the example, writing its report to w.
func run(w io.Writer) error {
	dir, err := os.MkdirTemp("", "hermit-replica-example")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Leader node: a durable database, a replication leader shipping its
	// WAL, and a server exposing both the op surface and the replication
	// stream on one wire endpoint.
	ldb, err := hermitdb.OpenDurable(filepath.Join(dir, "leader"), hermitdb.PhysicalPointers)
	if err != nil {
		return err
	}
	defer ldb.Close()
	leader, err := hermitdb.NewReplLeader(ldb, hermitdb.ReplLeaderOptions{})
	if err != nil {
		return err
	}
	lsrv := hermitdb.NewServer(ldb, hermitdb.ServerOptions{Leader: leader})
	if err := lsrv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer lsrv.Close()
	fmt.Fprintf(w, "leader serving on %s\n", lsrv.Addr())

	// Follower node: its own database directory, tailing the leader. The
	// engine-swap hook re-points the follower's server if a snapshot
	// bootstrap ever replaces the local database wholesale.
	f, err := hermitdb.OpenReplFollower(hermitdb.ReplFollowerOptions{
		Dir:        filepath.Join(dir, "follower"),
		ID:         "replica-1",
		LeaderAddr: lsrv.Addr().String(),
		Scheme:     hermitdb.PhysicalPointers,
	})
	if err != nil {
		return err
	}
	defer f.Close()
	fsrv := hermitdb.NewServer(f.DB(), hermitdb.ServerOptions{Follower: f})
	f.SetOnEngineSwap(func(db *hermitdb.DurableDB) { fsrv.SwapEngine(db) })
	f.Start()
	if err := fsrv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer fsrv.Close()
	fmt.Fprintf(w, "follower serving on %s\n", fsrv.Addr())

	// A cluster client: writes go to the leader, reads round-robin over
	// the followers. ReadYourWrites makes every read observe the
	// cluster's own preceding writes — a read after a write either waits
	// out the follower's lag or falls back to the leader.
	cl, err := hermitdb.DialCluster(lsrv.Addr().String(),
		[]string{fsrv.Addr().String()},
		hermitdb.ClusterOptions{ReadYourWrites: true})
	if err != nil {
		return err
	}
	defer cl.Close()

	if err := cl.CreateTable("trades", []string{"id", "price", "qty"}, 0, 0); err != nil {
		return err
	}
	for i := 0; i < 1000; i++ {
		row := []float64{float64(i), float64(100 + i%50), float64(1 + i%9)}
		if err := cl.Insert("trades", row); err != nil {
			return err
		}
	}
	rows, err := cl.Point("trades", 0, 999)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "read-your-writes point lookup: %v\n", rows)

	// The follower is read-only: writes sent straight at it bounce with
	// ErrNotLeader (the cluster client never does this; it routes writes
	// to the leader for you).
	direct, err := hermitdb.Dial(fsrv.Addr().String(), hermitdb.ClientOptions{})
	if err != nil {
		return err
	}
	if err := direct.Insert("trades", []float64{9999, 0, 0}); errors.Is(err, hermitdb.ErrNotLeader) {
		fmt.Fprintln(w, "direct write to the follower rejected: not the leader")
	}
	direct.Close()

	// The leader tracks each follower's acked watermark; once the
	// follower catches up its lag reaches zero.
	if err := f.WaitFor(ldb.LastLSN(), 10*time.Second); err != nil {
		return err
	}
	for _, fl := range leader.Stats().Followers {
		fmt.Fprintf(w, "follower %s: acked LSN %d, lag %d\n", fl.ID, fl.AckLSN, fl.Lag)
	}

	// Failover: the leader goes away, the follower is promoted. Promote
	// re-opens the local database writable, bumps the replication epoch
	// (fencing any zombie leader's stream), and returns the new handle;
	// the server swaps onto it and becomes the leader.
	lsrv.Close()
	ldb.Close()
	pdb, err := f.Promote()
	if err != nil {
		return err
	}
	defer pdb.Close()
	nl, err := hermitdb.NewReplLeader(pdb, hermitdb.ReplLeaderOptions{})
	if err != nil {
		return err
	}
	fsrv.SwapEngine(pdb)
	fsrv.BecomeLeader(nl)
	fmt.Fprintf(w, "follower promoted: epoch %d\n", nl.Epoch())

	// The promoted node takes writes.
	pc, err := hermitdb.Dial(fsrv.Addr().String(), hermitdb.ClientOptions{})
	if err != nil {
		return err
	}
	defer pc.Close()
	if err := pc.Insert("trades", []float64{1000, 150, 1}); err != nil {
		return err
	}
	rows, err = pc.Range("trades", 0, 998, 1001)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "rows on the promoted leader in [998,1001]: %d\n", len(rows))
	return nil
}
