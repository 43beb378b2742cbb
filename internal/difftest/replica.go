package difftest

import (
	"fmt"
	"path/filepath"
	"time"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/repl"
	"hermit/internal/server"
	"hermit/internal/trstree"
)

// replicaSystem runs the op stream against a replicated pair: a leader
// database fronted by a hermitd server (which serves the WAL-shipping
// subscription) and a tailing follower replaying into its own durable
// directory. Operations and queries hit the leader; every state audit
// first waits for the follower to catch up to the leader's LSN and then
// compares THREE states — oracle, leader, follower — row for row.
// cycle() restarts the follower mid-stream and checkpoints the leader
// with a tiny WAL-rotation threshold, so resumes cross segment
// boundaries and, when retention has dropped the resume segment, go
// through snapshot bootstrap.
type replicaSystem struct {
	name string
	fdir string

	d      *engine.DurableDB
	tb     *engine.Table
	leader *repl.Leader
	srv    *server.Server
	f      *repl.Follower
}

// replicaWait bounds the follower catch-up barrier at each audit.
const replicaWait = 60 * time.Second

// leaderReplicaOpts keeps WAL segments tiny (every checkpoint rotates)
// and retention short, so follower restarts exercise both tail-resume
// across rotations and the behind-retention snapshot-bootstrap path.
var leaderReplicaOpts = engine.DurableOptions{WALRotateBytes: 1, ReplRetainWALSegments: 2}

func buildReplica(cfg Config, s schema) (system, error) {
	ldir := filepath.Join(cfg.Dir, "leader")
	fdir := filepath.Join(cfg.Dir, "follower")
	d, err := engine.OpenDurableOptions(ldir, hermit.PhysicalPointers, leaderReplicaOpts)
	if err != nil {
		return nil, err
	}
	leader, err := repl.NewLeader(d, repl.LeaderOptions{})
	if err != nil {
		d.Close()
		return nil, err
	}
	rs := &replicaSystem{name: "t", fdir: fdir, d: d, leader: leader}
	rs.srv = server.New(d, server.Options{Leader: leader})
	if err := rs.srv.Start("127.0.0.1:0"); err != nil {
		d.Close()
		return nil, err
	}
	if _, err := d.CreateTable(rs.name, s.cols, 0); err != nil {
		rs.close()
		return nil, err
	}
	if err := d.CreateIndex(rs.name, engine.IndexDef{Kind: "btree", Col: 1}); err != nil {
		rs.close()
		return nil, err
	}
	if err := d.CreateIndex(rs.name, engine.IndexDef{
		Kind: "hermit", Col: 2, Host: 1, Params: trstree.DefaultParams(),
	}); err != nil {
		rs.close()
		return nil, err
	}
	tb, err := d.Table(rs.name)
	if err != nil {
		rs.close()
		return nil, err
	}
	rs.tb = tb
	if err := rs.startFollower(); err != nil {
		rs.close()
		return nil, err
	}
	return rs, nil
}

// startFollower opens (or reopens) the tailing follower against the
// leader's server endpoint.
func (s *replicaSystem) startFollower() error {
	f, err := repl.OpenFollower(repl.FollowerOptions{
		Dir: s.fdir, ID: "replica-1", LeaderAddr: s.srv.Addr().String(),
		Scheme:         hermit.PhysicalPointers,
		ReconnectDelay: 10 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	f.Start()
	s.f = f
	return nil
}

func (s *replicaSystem) insert(row []float64) error {
	_, err := s.d.Insert(s.name, row)
	return err
}

func (s *replicaSystem) remove(pk float64) (bool, error) { return s.d.Delete(s.name, pk) }

func (s *replicaSystem) update(pk float64, col int, v float64) error {
	return s.d.UpdateColumn(s.name, pk, col, v)
}

func (s *replicaSystem) query(col int, lo, hi float64) ([][]float64, error) {
	return tableRows(s.tb, engine.Query{Col: col, Lo: lo, Hi: hi})
}

// state is the three-way audit: wait for the follower to reach the
// leader's LSN, then require the follower's live rows to equal the
// leader's exactly before handing the leader state to the oracle
// comparison.
func (s *replicaSystem) state() (map[uint64][]float64, error) {
	if err := s.f.WaitFor(s.d.LastLSN(), replicaWait); err != nil {
		return nil, err
	}
	lead, err := tableState(s.tb)
	if err != nil {
		return nil, err
	}
	ftb, err := s.f.DB().Table(s.name)
	if err != nil {
		return nil, fmt.Errorf("follower: %w", err)
	}
	fol, err := tableState(ftb)
	if err != nil {
		return nil, err
	}
	if err := sameState(lead, fol); err != nil {
		return nil, fmt.Errorf("follower diverged from leader: %w", err)
	}
	return lead, nil
}

// sameState compares two live-row states exactly.
func sameState(want, got map[uint64][]float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d live rows, want %d", len(got), len(want))
	}
	for pk, wrow := range want {
		grow, ok := got[pk]
		if !ok {
			return fmt.Errorf("pk %v missing", wrow[0])
		}
		if !sameRow(grow, wrow) {
			return fmt.Errorf("pk %v = %v, want %v", wrow[0], grow, wrow)
		}
	}
	return nil
}

// cycle restarts the follower and, on checkpoint cycles, checkpoints the
// leader — which, at WALRotateBytes 1, always rotates the segment the
// follower must resume across. With retention 2 a long-enough gap drops
// the resume segment entirely and the reopened follower bootstraps from
// a snapshot instead; both paths must land in the same audited state.
func (s *replicaSystem) cycle(checkpoint bool) error {
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("follower close: %w", err)
	}
	if checkpoint {
		if err := s.d.Checkpoint(); err != nil {
			return fmt.Errorf("leader checkpoint: %w", err)
		}
	}
	return s.startFollower()
}

func (s *replicaSystem) close() error {
	var first error
	if s.f != nil {
		if err := s.f.Close(); first == nil {
			first = err
		}
	}
	if s.srv != nil {
		if err := s.srv.Close(); first == nil {
			first = err
		}
	}
	if err := s.d.Close(); first == nil {
		first = err
	}
	return first
}
