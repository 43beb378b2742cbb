// Package repl is HermitDB's primary/follower replication layer.
//
// The design rides entirely on the durable WAL: a leader ships raw WAL
// frames — tailed from its on-disk segments in strict LSN order — over the
// ordinary wire protocol, and a follower hands each batch to
// engine.DB.ReplApply, which mirrors every frame byte-for-byte into
// its own log and then applies each committed record group atomically
// through the replay path recovery uses. Because the follower's log is a
// literal prefix of the leader's, recovery, checkpoints and compaction work
// unchanged on both sides, and a follower restart resumes from its own
// durable LSN with no extra bookkeeping: recovery leaves the groups the
// log holds open, and ReplApply goes on from them.
//
// Topology is a single leader with any number of followers. A follower
// dials the leader, subscribes from its last durable LSN, and either tails
// the retained WAL segments or — when it has fallen behind the oldest
// retained segment — bootstraps from a full snapshot and resumes at the
// snapshot's cut LSN. Followers publish two watermarks: DurableLSN (what
// their log holds; this is what they ack upstream) and AppliedLSN (what
// their state reflects; reads are consistent as of it).
//
// Failover is manual promotion with epoch fencing: Follower.Promote bumps
// the persisted epoch, and every subscription handshake carries the epoch
// so a fenced (zombie) leader refuses to serve — and a follower refuses to
// follow — a peer from a superseded epoch.
package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hermit/internal/server/proto"
	"hermit/internal/wal"
)

// AckMode selects when a leader acknowledges a write to its client.
type AckMode int

// Ack modes.
const (
	// AckAsync acknowledges once the write is durable on the leader;
	// followers catch up asynchronously (replication lag is invisible to
	// writers). The default.
	AckAsync AckMode = iota
	// AckQuorum acknowledges only after a majority of the replica set
	// (leader included) holds the write durably — so an acked write
	// survives leader loss as long as the highest-LSN follower is the one
	// promoted.
	AckQuorum
)

// Errors returned by the replication layer.
var (
	// ErrFenced reports an epoch conflict: the peer belongs to a newer
	// epoch, so this node's stream is rejected (or vice versa).
	ErrFenced = errors.New("repl: fenced by a newer epoch")
	// ErrBehindRetention reports that a subscriber's resume LSN precedes
	// the oldest retained WAL segment; it must bootstrap from a snapshot.
	ErrBehindRetention = errors.New("repl: resume point behind retained WAL")
	// ErrQuorumTimeout reports that a quorum of followers did not
	// acknowledge a write in time. The write is durable on the leader but
	// its replication state is unknown.
	ErrQuorumTimeout = errors.New("repl: quorum ack timeout")
	// ErrClosed reports an operation on a stopped leader or follower.
	ErrClosed = errors.New("repl: closed")
)

// stateFile is the name of the per-node replication state file, kept in
// the database directory next to the manifest.
const stateFile = "repl.json"

// state is the durable per-node replication identity: the newest leader
// epoch this node has served under or observed. Promotion bumps it; the
// subscription handshake compares it.
type state struct {
	Epoch uint64 `json:"epoch"`
}

func loadState(dir string) (state, error) {
	var st state
	raw, err := os.ReadFile(filepath.Join(dir, stateFile))
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("repl: %s: %w", stateFile, err)
	}
	return st, nil
}

// saveState persists st with the same tmp+rename+sync discipline the
// engine uses for its manifest, so a crash never leaves a torn state file.
func saveState(dir string, st state) error {
	raw, err := json.Marshal(st)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, stateFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(raw); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, stateFile))
}

// toWire converts a WAL record to its wire shape.
func toWire(rec wal.Record) proto.WALRecord {
	return proto.WALRecord{
		LSN: rec.LSN, Op: uint8(rec.Op), Part: rec.Part, Txn: rec.Txn,
		Table: rec.Table, Payload: rec.Payload,
	}
}

// fromWire converts a wire record back to the WAL shape.
func fromWire(rec proto.WALRecord) wal.Record {
	return wal.Record{
		LSN: rec.LSN, Op: wal.Op(rec.Op), Part: rec.Part, Txn: rec.Txn,
		Table: rec.Table, Payload: rec.Payload,
	}
}
