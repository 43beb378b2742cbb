package repl

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hermit/internal/engine"
	"hermit/internal/server/proto"
	"hermit/internal/wal"
)

// Default leader tuning (see LeaderOptions).
const (
	// DefaultBatchRecords is the record count that flushes a frame batch.
	DefaultBatchRecords = 512
	// DefaultBatchBytes is the payload volume that flushes a frame batch.
	DefaultBatchBytes = 256 << 10
	// DefaultQuorumTimeout bounds AckQuorum's wait for follower acks.
	DefaultQuorumTimeout = 5 * time.Second
	// DefaultSnapChunkBytes is the row volume per snapshot-bootstrap chunk.
	DefaultSnapChunkBytes = 1 << 20
)

// LeaderOptions tunes a Leader. The zero value picks sensible defaults.
type LeaderOptions struct {
	// AckMode selects async (default) or quorum write acknowledgement.
	AckMode AckMode
	// QuorumTimeout bounds a quorum wait (DefaultQuorumTimeout when zero).
	QuorumTimeout time.Duration
	// BatchRecords and BatchBytes bound one RespReplFrames batch
	// (defaults above when zero).
	BatchRecords int
	BatchBytes   int
}

func (o LeaderOptions) sanitized() LeaderOptions {
	if o.QuorumTimeout <= 0 {
		o.QuorumTimeout = DefaultQuorumTimeout
	}
	if o.BatchRecords <= 0 {
		o.BatchRecords = DefaultBatchRecords
	}
	if o.BatchBytes <= 0 {
		o.BatchBytes = DefaultBatchBytes
	}
	return o
}

// FollowerLag is one follower's replication progress as the leader sees
// it: the last LSN it acked and how far that trails the leader's log.
type FollowerLag struct {
	ID     string `json:"id"`
	AckLSN uint64 `json:"ack_lsn"`
	Lag    uint64 `json:"lag"`
}

// LeaderStats is a leader's replication snapshot for observability.
type LeaderStats struct {
	Epoch     uint64        `json:"epoch"`
	LastLSN   uint64        `json:"last_lsn"`
	Followers []FollowerLag `json:"followers,omitempty"`
}

// Leader is the replication source: it serves subscription streams off
// the database's WAL and tracks follower acknowledgements for quorum
// commit. One Leader per durable DB; safe for concurrent use (each
// subscriber is served on its own goroutine).
type Leader struct {
	db   *engine.DB
	opts LeaderOptions

	mu      sync.Mutex
	epoch   uint64
	acks    map[string]uint64
	ackCond *sync.Cond

	// failpoint, when non-nil, is invoked at replication step boundaries
	// ("state", "snap", "snap-done", "frames") with the same crash
	// semantics as the engine's checkpoint failpoints. Test hook only.
	failpoint func(step string) error
}

// NewLeader wraps an open durable DB as a replication leader, loading (or
// initialising) the persisted epoch from the database directory. A
// database without a log has nothing to ship: engine.ErrNotDurable.
func NewLeader(db *engine.DB, opts LeaderOptions) (*Leader, error) {
	if db.Dir() == "" {
		return nil, fmt.Errorf("repl: leader: %w", engine.ErrNotDurable)
	}
	st, err := loadState(db.Dir())
	if err != nil {
		return nil, err
	}
	if st.Epoch == 0 {
		st.Epoch = 1
		if err := saveState(db.Dir(), st); err != nil {
			return nil, err
		}
	}
	l := &Leader{db: db, opts: opts.sanitized(), epoch: st.Epoch, acks: make(map[string]uint64)}
	l.ackCond = sync.NewCond(&l.mu)
	return l, nil
}

// Epoch returns the leader's epoch.
func (l *Leader) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// AckMode returns the configured write-acknowledgement mode.
func (l *Leader) AckMode() AckMode { return l.opts.AckMode }

// QuorumTimeout returns the configured quorum wait bound.
func (l *Leader) QuorumTimeout() time.Duration { return l.opts.QuorumTimeout }

// Ack records a follower's durable LSN (from a ReqReplAck frame) and
// wakes quorum waiters. Acks are monotonic; stale ones are ignored.
func (l *Leader) Ack(follower string, lsn uint64) {
	if follower == "" {
		return
	}
	l.mu.Lock()
	if lsn > l.acks[follower] {
		l.acks[follower] = lsn
		l.ackCond.Broadcast()
	}
	l.mu.Unlock()
}

// register adds a follower to the replica set (first subscription wins;
// re-subscriptions keep the existing ack watermark).
func (l *Leader) register(follower string, lsn uint64) {
	l.mu.Lock()
	if cur, ok := l.acks[follower]; !ok || lsn > cur {
		l.acks[follower] = lsn
		l.ackCond.Broadcast()
	}
	l.mu.Unlock()
}

// quorumLocked reports whether enough followers ack lsn that the write is
// held by a majority of the replica set (leader included): with N
// registered followers the set has N+1 members, the leader always holds
// the write, so (N+1)/2 follower acks complete the majority.
func (l *Leader) quorumLocked(lsn uint64) bool {
	n := len(l.acks)
	if n == 0 {
		return true
	}
	need := (n + 1) / 2
	got := 0
	for _, ack := range l.acks {
		if ack >= lsn {
			got++
		}
	}
	return got >= need
}

// WaitQuorum blocks until a majority of the replica set holds lsn
// durably, or the timeout elapses (ErrQuorumTimeout — the write is then
// durable locally but its replication state unknown).
func (l *Leader) WaitQuorum(lsn uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	expired := false
	timer := time.AfterFunc(timeout, func() {
		l.mu.Lock()
		expired = true
		l.ackCond.Broadcast()
		l.mu.Unlock()
	})
	defer timer.Stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.quorumLocked(lsn) {
		if expired || !time.Now().Before(deadline) {
			return ErrQuorumTimeout
		}
		l.ackCond.Wait()
	}
	return nil
}

// Stats snapshots the leader's replication state, followers sorted by id.
func (l *Leader) Stats() LeaderStats {
	last := l.db.LastLSN()
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LeaderStats{Epoch: l.epoch, LastLSN: last}
	for id, ack := range l.acks {
		lag := uint64(0)
		if last > ack {
			lag = last - ack
		}
		st.Followers = append(st.Followers, FollowerLag{ID: id, AckLSN: ack, Lag: lag})
	}
	sort.Slice(st.Followers, func(i, j int) bool { return st.Followers[i].ID < st.Followers[j].ID })
	return st
}

// fp triggers the failpoint hook (tests only; no-op otherwise).
func (l *Leader) fp(step string) error {
	if l.failpoint != nil {
		return l.failpoint(step)
	}
	return nil
}

// sendFn writes one response frame onto the subscriber's connection.
// Sends are serialized by the caller against any other writer on the
// connection.
type sendFn func(*proto.Response) error

// ServeSubscriber serves one replication subscription to completion: the
// handshake (fencing and bootstrap decision), an optional snapshot
// stream, then the live frame stream until send fails, stop closes, or
// the failpoint hook injects a crash. It blocks for the subscription's
// lifetime — run it on its own goroutine.
func (l *Leader) ServeSubscriber(fromLSN, epoch uint64, follower string, send sendFn, stop <-chan struct{}) error {
	l.mu.Lock()
	myEpoch := l.epoch
	l.mu.Unlock()
	if epoch > myEpoch {
		// The subscriber has seen a newer leader: this node is the zombie.
		// Refuse to serve so a fenced leader cannot feed anyone stale data.
		send(&proto.Response{Type: proto.RespError, Code: proto.CodeFenced,
			Msg: fmt.Sprintf("leader epoch %d fenced by subscriber epoch %d", myEpoch, epoch)})
		return ErrFenced
	}
	_, base, last := l.db.WALPosition()
	if fromLSN > last {
		// The subscriber's log runs past ours: it followed a history this
		// node never wrote. Serving it could silently fork the replica set.
		send(&proto.Response{Type: proto.RespError, Code: proto.CodeFenced,
			Msg: fmt.Sprintf("subscriber LSN %d past leader LSN %d", fromLSN, last)})
		return ErrFenced
	}

	needSnap := false
	if fromLSN < base {
		switch err := l.coverage(fromLSN); err {
		case nil:
		case ErrBehindRetention:
			needSnap = true
		default:
			return err
		}
	}
	if err := l.fp("state"); err != nil {
		return err
	}
	if err := send(&proto.Response{Type: proto.RespReplState, LSN: last, Epoch: myEpoch, NeedSnapshot: needSnap}); err != nil {
		return err
	}
	if needSnap {
		cut, err := l.streamSnapshot(send)
		if err != nil {
			return err
		}
		fromLSN = cut
	}
	l.register(follower, fromLSN)
	return l.stream(fromLSN, send, stop)
}

// coverage reports whether the retained on-disk WAL segments still hold
// the frame after fromLSN (nil), or the subscriber is behind retention
// (ErrBehindRetention).
func (l *Leader) coverage(fromLSN uint64) error {
	segs := l.db.ReplWALSegments()
	if len(segs) == 0 {
		return ErrBehindRetention
	}
	first, ok, err := peekFirstLSN(segs[0].Path)
	if err != nil {
		return err
	}
	if !ok || first > fromLSN+1 {
		return ErrBehindRetention
	}
	return nil
}

// peekFirstLSN reads the LSN of a segment's first frame (ok=false on an
// empty segment).
func peekFirstLSN(path string) (uint64, bool, error) {
	t, err := wal.OpenTailer(path, 0)
	if err != nil {
		return 0, false, err
	}
	defer t.Close()
	rec, ok, err := t.Next()
	if err != nil || !ok {
		return 0, false, err
	}
	return rec.LSN, true, nil
}

// streamSnapshot ships a bootstrap image in chunks, returning the cut LSN
// the subscriber resumes from.
func (l *Leader) streamSnapshot(send sendFn) (uint64, error) {
	snap, err := l.db.ReplSnapshot()
	if err != nil {
		return 0, err
	}
	for _, ts := range snap.Tables {
		defsJSON, err := marshalDefs(ts.Defs)
		if err != nil {
			return 0, err
		}
		width := len(ts.Cols)
		per := DefaultSnapChunkBytes / (8 * max(width, 1))
		per = max(per, 1)
		for off := 0; ; off += per {
			end := min(off+per, len(ts.Rows))
			chunk := &proto.SnapTable{
				Name: ts.Name, Cols: ts.Cols, PKCol: uint16(ts.PKCol),
				Parts: uint16(ts.Parts), DefsJSON: defsJSON, Rows: ts.Rows[off:end],
			}
			if err := l.fp("snap"); err != nil {
				return 0, err
			}
			if err := send(&proto.Response{Type: proto.RespReplSnapTable, Snap: chunk}); err != nil {
				return 0, err
			}
			if end == len(ts.Rows) {
				break
			}
		}
	}
	if err := l.fp("snap-done"); err != nil {
		return 0, err
	}
	if err := send(&proto.Response{Type: proto.RespReplSnapDone, LSN: snap.LSN}); err != nil {
		return 0, err
	}
	return snap.LSN, nil
}

// stream tails the WAL from fromLSN (exclusive) and ships frames in
// batches until send fails or stop closes. It verifies LSN contiguity —
// a leader's log is strictly sequential, so any gap means the resume
// segment was garbage-collected mid-stream and the subscriber must
// re-handshake (getting a snapshot bootstrap).
func (l *Leader) stream(fromLSN uint64, send sendFn, stop <-chan struct{}) error {
	wake := make(chan struct{}, 1)
	defer l.db.WatchWAL(wake)()

	var t *wal.Tailer
	var tSeg uint64
	defer func() {
		if t != nil {
			t.Close()
		}
	}()

	// Open the segment covering fromLSN+1: the last one whose first frame
	// is at or before it (an empty segment is the live one, reached by
	// advancing past its predecessor's end).
	segs := l.db.ReplWALSegments()
	if len(segs) == 0 {
		return fmt.Errorf("repl: leader has no WAL segments")
	}
	pick := 0
	for i := range segs {
		first, ok, err := peekFirstLSN(segs[i].Path)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if first <= fromLSN+1 {
			pick = i
		} else {
			if i == 0 {
				return ErrBehindRetention
			}
			break
		}
	}
	t, err := wal.OpenTailer(segs[pick].Path, 0)
	if err != nil {
		return err
	}
	tSeg = segs[pick].Seg

	var batch []proto.WALRecord
	batchBytes := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := l.fp("frames"); err != nil {
			return err
		}
		err := send(&proto.Response{Type: proto.RespReplFrames, Recs: batch})
		batch, batchBytes = nil, 0
		return err
	}

	for {
		rec, ok, err := t.Next()
		if err != nil {
			return err
		}
		if ok {
			if rec.LSN <= fromLSN {
				continue
			}
			if rec.LSN != fromLSN+1 {
				return fmt.Errorf("repl: WAL gap after LSN %d (next frame %d): %w",
					fromLSN, rec.LSN, ErrBehindRetention)
			}
			fromLSN = rec.LSN
			batch = append(batch, toWire(rec))
			batchBytes += len(rec.Table) + len(rec.Payload) + 29
			if len(batch) >= l.opts.BatchRecords || batchBytes >= l.opts.BatchBytes {
				if err := flush(); err != nil {
					return err
				}
			}
			continue
		}
		// Dry at this segment's current end. A non-live segment is
		// complete — advance to its successor; the live one grows, so
		// flush and wait for the wakeup of whichever caller writes the log next.
		cur, _, _ := l.db.WALPosition()
		if tSeg != cur {
			if next, nextSeg, err := l.openNext(tSeg); err != nil {
				return err
			} else if next != nil {
				t.Close()
				t, tSeg = next, nextSeg
				continue
			}
		}
		if err := flush(); err != nil {
			return err
		}
		select {
		case <-wake:
		case <-stop:
			return nil
		case <-time.After(500 * time.Millisecond):
			// Belt-and-braces poll: wakeups are best-effort.
		}
	}
}

// openNext opens the oldest on-disk segment newer than seg (nil when none
// exists yet).
func (l *Leader) openNext(seg uint64) (*wal.Tailer, uint64, error) {
	for _, sg := range l.db.ReplWALSegments() {
		if sg.Seg > seg {
			t, err := wal.OpenTailer(sg.Path, 0)
			if err != nil {
				return nil, 0, err
			}
			return t, sg.Seg, nil
		}
	}
	return nil, 0, nil
}
