// Command hermitd serves a HermitDB database directory over the network:
// the length-prefixed binary protocol on -addr (spoken by the
// internal/client package) and an optional HTTP endpoint on -http for
// curl-level observation: /v1/stats, /healthz, /v1/promote and pprof.
//
// Usage:
//
//	hermitd -dir /var/lib/hermit -addr :7654
//	hermitd -dir ./data -addr 127.0.0.1:7654 -http 127.0.0.1:7655 \
//	        -max-inflight 512 -tenant-ops 1000000
//
// Replication: a leader is any hermitd (subscriptions are always served;
// -repl-ack quorum additionally gates write acks on a follower majority,
// and -repl-retain keeps rotated WAL segments around for follower
// catch-up). A follower runs with -replicate-from pointing at the leader:
//
//	hermitd -dir ./replica -addr :7656 -replicate-from 127.0.0.1:7654 \
//	        -repl-id replica-1 -http :7657
//
// A follower is read-only (writes answer CodeNotLeader) and serves reads
// at its applied-LSN watermark; POST /v1/promote on its HTTP endpoint
// promotes it to leader in place, fencing the old leader's epoch.
//
// The database directory is created (empty) if absent and recovered
// (WAL replay onto the last checkpoint) if not. SIGINT/SIGTERM trigger a
// graceful drain: in-flight requests finish, open transactions roll
// back, then a final checkpoint compacts the WAL before exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/repl"
	"hermit/internal/server"
)

func main() {
	var (
		dir         = flag.String("dir", "", "database directory (required)")
		addr        = flag.String("addr", "127.0.0.1:7654", "binary protocol listen address")
		httpAddr    = flag.String("http", "", "HTTP listen address for /v1/stats, /healthz, /v1/promote and pprof ('' disables)")
		maxInflight = flag.Int("max-inflight", 256, "max admitted requests server-wide before shedding")
		queueDepth  = flag.Int("queue-depth", 128, "per-session pipelining queue depth")
		workers     = flag.Int("workers", 0, "read pool workers, and the bound on each read's partition legs (0 = GOMAXPROCS)")
		tenantOps   = flag.Int64("tenant-ops", 0, "per-tenant lifetime op quota (0 = unlimited)")
		drain       = flag.Duration("drain", 5*time.Second, "graceful shutdown drain timeout")
		physical    = flag.Bool("physical", true, "physical (true) or logical (false) Hermit pointer scheme")
		replFrom    = flag.String("replicate-from", "", "leader address to follow (read-only follower mode)")
		replID      = flag.String("repl-id", "", "stable follower identity (default: the listen address)")
		replAck     = flag.String("repl-ack", "async", "write acknowledgement mode: async | quorum")
		replRetain  = flag.Int("repl-retain", 4, "rotated WAL segments retained for follower catch-up")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "hermitd: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	var ackMode repl.AckMode
	switch *replAck {
	case "async":
		ackMode = repl.AckAsync
	case "quorum":
		ackMode = repl.AckQuorum
	default:
		fmt.Fprintf(os.Stderr, "hermitd: -repl-ack must be async or quorum, got %q\n", *replAck)
		os.Exit(2)
	}

	scheme := hermit.LogicalPointers
	if *physical {
		scheme = hermit.PhysicalPointers
	}
	dopts := engine.DurableOptions{ReplRetainWALSegments: *replRetain}

	opts := server.Options{
		MaxInflight:  *maxInflight,
		QueueDepth:   *queueDepth,
		Workers:      *workers,
		TenantOps:    *tenantOps,
		DrainTimeout: *drain,
		HTTPAddr:     *httpAddr,
	}

	var d *engine.DB
	var follower *repl.Follower
	var srv *server.Server
	if *replFrom != "" {
		id := *replID
		if id == "" {
			id = *addr
		}
		var err error
		follower, err = repl.OpenFollower(repl.FollowerOptions{
			Dir: *dir, ID: id, LeaderAddr: *replFrom,
			Scheme: scheme, Durable: dopts,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "hermitd: "+format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hermitd: open follower %s: %v\n", *dir, err)
			os.Exit(1)
		}
		d = follower.DB()
		opts.Follower = follower
	} else {
		var err error
		d, err = engine.OpenDurableOptions(*dir, scheme, dopts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hermitd: open %s: %v\n", *dir, err)
			os.Exit(1)
		}
		leader, err := repl.NewLeader(d, repl.LeaderOptions{AckMode: ackMode})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hermitd: replication state: %v\n", err)
			os.Exit(1)
		}
		opts.Leader = leader
	}
	if skipped, lastErr := d.RecoverySkipped(); skipped > 0 {
		fmt.Fprintf(os.Stderr, "hermitd: recovery skipped %d records (last: %v)\n", skipped, lastErr)
	}

	// Promotion hook (followers only): stop following, bump the epoch,
	// and flip the running server into leader mode.
	var promoteOnce sync.Once
	if follower != nil {
		opts.Promote = func() error {
			var perr error = fmt.Errorf("already promoted")
			promoteOnce.Do(func() {
				db, err := follower.Promote()
				if err != nil {
					perr = err
					return
				}
				leader, err := repl.NewLeader(db, repl.LeaderOptions{AckMode: ackMode})
				if err != nil {
					perr = err
					return
				}
				srv.SwapEngine(db)
				srv.BecomeLeader(leader)
				fmt.Printf("hermitd: promoted to leader (epoch %d)\n", leader.Epoch())
				perr = nil
			})
			return perr
		}
	}

	srv = server.New(d, opts)
	if follower != nil {
		follower.SetOnEngineSwap(func(db *engine.DB) { srv.SwapEngine(db) })
		follower.Start()
	}
	if err := srv.Start(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "hermitd: listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	fmt.Printf("hermitd: serving %s on %s", *dir, srv.Addr())
	if *httpAddr != "" {
		fmt.Printf(" (http %s)", srv.HTTPAddr())
	}
	if *replFrom != "" {
		fmt.Printf(" following %s", *replFrom)
	}
	fmt.Println()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("hermitd: draining...")
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "hermitd: drain: %v\n", err)
	}
	st := srv.Stats()
	fmt.Printf("hermitd: served %d requests over %d connections (%d shed, %d quota-rejected)\n",
		st.Requests, st.Conns, st.Rejected, st.QuotaRejected)
	if follower != nil {
		if err := follower.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hermitd: close follower: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := d.Checkpoint(); err != nil {
		fmt.Fprintf(os.Stderr, "hermitd: final checkpoint: %v\n", err)
	}
	if err := d.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "hermitd: close: %v\n", err)
		os.Exit(1)
	}
}
