package repl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/server/proto"
	"hermit/internal/wal"
)

// DefaultCheckpointBytes is the follower-side WAL size that triggers a
// checkpoint (mirroring the engine's default rotation threshold).
const DefaultCheckpointBytes = 4 << 20

// DefaultReconnectDelay is the pause between subscription attempts.
const DefaultReconnectDelay = 100 * time.Millisecond

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Dir is the follower's database directory.
	Dir string
	// ID is the follower's stable identity in the replica set (required;
	// it keys ack tracking and lag stats on the leader).
	ID string
	// LeaderAddr is the leader's wire-protocol address.
	LeaderAddr string
	// Scheme is the engine pointer scheme for the local database.
	Scheme hermit.PointerScheme
	// Durable tunes the local database.
	Durable engine.DurableOptions
	// Dial overrides the connection factory (tests; nil = TCP).
	Dial func(addr string) (net.Conn, error)
	// OnEngineSwap is invoked after a snapshot bootstrap replaces the
	// local database, so embedders (the server) can re-point at it.
	OnEngineSwap func(*engine.DurableDB)
	// CheckpointBytes is the local WAL size that triggers a follower
	// checkpoint (DefaultCheckpointBytes when zero; negative disables).
	// Checkpoints happen only at transaction-group boundaries so a
	// rotation can never strand half a group behind a segment cut.
	CheckpointBytes int64
	// ReconnectDelay is the pause between subscription attempts
	// (DefaultReconnectDelay when zero).
	ReconnectDelay time.Duration
	// Logf, when non-nil, receives connection-lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (o FollowerOptions) sanitized() FollowerOptions {
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = DefaultCheckpointBytes
	}
	if o.ReconnectDelay <= 0 {
		o.ReconnectDelay = DefaultReconnectDelay
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	return o
}

// FollowerStats is a follower's replication snapshot for observability.
type FollowerStats struct {
	ID         string `json:"id"`
	Epoch      uint64 `json:"epoch"`
	AppliedLSN uint64 `json:"applied_lsn"`
	DurableLSN uint64 `json:"durable_lsn"`
	Connected  bool   `json:"connected"`
	LastError  string `json:"last_error,omitempty"`
}

// Follower replicates a leader's WAL into a local DurableDB. Open with
// OpenFollower, start streaming with Start, and read locally through DB
// at the AppliedLSN watermark: every applied transaction group became
// visible at one commit timestamp, so snapshot reads are consistent
// regardless of how far the stream has progressed.
type Follower struct {
	opts FollowerOptions

	// mu guards db (swapped by snapshot bootstrap) and epoch.
	mu    sync.Mutex
	db    *engine.DurableDB
	epoch uint64

	// applied is the LSN watermark of the last fully-applied record
	// group; durable is the last LSN the local WAL holds. durable >=
	// applied always, the gap being buffered in-flight groups.
	applied atomic.Uint64
	durable atomic.Uint64
	// open counts the transaction groups the last batch left open; the
	// apply loop checkpoints only when it is 0 (maybeCheckpoint).
	open int

	connected atomic.Bool
	errMu     sync.Mutex
	lastErr   error

	// pauseCh is non-nil while paused (Resume closes it). Pausing stalls
	// the apply loop before the next batch — TCP backpressure then grows
	// the leader's lag, which is exactly what the lag tests exercise.
	pauseMu sync.Mutex
	pauseCh chan struct{}

	connMu  sync.Mutex
	conn    net.Conn
	stop    chan struct{}
	done    chan struct{}
	started bool
	stopped bool
}

// OpenFollower opens (or creates) the follower's local database and
// prepares a subscription to the leader. Call Start to begin streaming.
func OpenFollower(opts FollowerOptions) (*Follower, error) {
	opts = opts.sanitized()
	if opts.ID == "" {
		return nil, fmt.Errorf("repl: follower needs an ID")
	}
	db, err := engine.OpenDurableOptions(opts.Dir, opts.Scheme, opts.Durable)
	if err != nil {
		return nil, err
	}
	st, err := loadState(opts.Dir)
	if err != nil {
		db.Close()
		return nil, err
	}
	f := &Follower{
		opts:  opts,
		db:    db,
		epoch: st.Epoch,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	last := db.LastLSN()
	// AppliedLSN starts at the recovered log's end: any frame at or below
	// it that recovery did not apply belongs to a group whose commit LSN
	// is past it, so the watermark invariant ("state holds every commit
	// at or below AppliedLSN") is vacuously safe. The database keeps those
	// groups open, and ReplApply goes on from them.
	f.applied.Store(last)
	f.durable.Store(last)
	return f, nil
}

// SetOnEngineSwap installs the engine-swap hook after construction —
// embedders that need the Follower to build the consumer (the server
// wraps the follower's DB) call this before Start.
func (f *Follower) SetOnEngineSwap(fn func(*engine.DurableDB)) {
	f.mu.Lock()
	f.opts.OnEngineSwap = fn
	f.mu.Unlock()
}

// DB returns the follower's current local database. Snapshot bootstrap
// replaces it (see FollowerOptions.OnEngineSwap), so callers that cache
// the pointer must also hook the swap.
func (f *Follower) DB() *engine.DurableDB {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.db
}

// ID returns the follower's identity.
func (f *Follower) ID() string { return f.opts.ID }

// AppliedLSN returns the watermark of the last fully-applied record
// group: reads against DB reflect exactly the commits at or below it.
func (f *Follower) AppliedLSN() uint64 { return f.applied.Load() }

// DurableLSN returns the last LSN the local WAL holds (what the follower
// acks upstream).
func (f *Follower) DurableLSN() uint64 { return f.durable.Load() }

// Epoch returns the newest leader epoch the follower has observed.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Stats snapshots the follower's replication state.
func (f *Follower) Stats() FollowerStats {
	st := FollowerStats{
		ID:         f.opts.ID,
		Epoch:      f.Epoch(),
		AppliedLSN: f.applied.Load(),
		DurableLSN: f.durable.Load(),
		Connected:  f.connected.Load(),
	}
	f.errMu.Lock()
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	f.errMu.Unlock()
	return st
}

// Start begins the subscription loop: dial, handshake, stream, reconnect
// on failure, until Close or Promote.
func (f *Follower) Start() {
	f.mu.Lock()
	if f.started || f.stopped {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.mu.Unlock()
	go f.run()
}

// Pause stalls the apply loop before its next batch (lag grows while
// paused). No-op when already paused.
func (f *Follower) Pause() {
	f.pauseMu.Lock()
	if f.pauseCh == nil {
		f.pauseCh = make(chan struct{})
	}
	f.pauseMu.Unlock()
}

// Resume releases a Pause.
func (f *Follower) Resume() {
	f.pauseMu.Lock()
	if f.pauseCh != nil {
		close(f.pauseCh)
		f.pauseCh = nil
	}
	f.pauseMu.Unlock()
}

// WaitFor blocks until the applied watermark reaches lsn or the timeout
// elapses — the catch-up barrier replica audits use.
func (f *Follower) WaitFor(lsn uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for f.applied.Load() < lsn {
		if time.Now().After(deadline) {
			return fmt.Errorf("repl: follower %s at LSN %d did not reach %d in %v (last error: %v)",
				f.opts.ID, f.applied.Load(), lsn, timeout, f.err())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Promote stops the subscription, bumps and persists the epoch, and
// returns the local database ready to serve as the new leader (wrap it
// with NewLeader). The follower object is spent afterwards.
func (f *Follower) Promote() (*engine.DurableDB, error) {
	f.stopLoop()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.epoch++
	if err := saveState(f.opts.Dir, state{Epoch: f.epoch}); err != nil {
		return nil, err
	}
	// The database's transaction ids already run past every mirrored one:
	// replay raises the sequence to each id it sees.
	return f.db, nil
}

// Close stops the subscription loop and closes the local database.
func (f *Follower) Close() error {
	f.stopLoop()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.db.Close()
}

// stopLoop ends the run loop and waits for it.
func (f *Follower) stopLoop() {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		<-f.done
		return
	}
	f.stopped = true
	started := f.started
	f.mu.Unlock()
	close(f.stop)
	f.Resume() // unblock a paused apply loop
	f.connMu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.connMu.Unlock()
	if started {
		<-f.done
	} else {
		close(f.done)
	}
}

func (f *Follower) stopping() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

func (f *Follower) setErr(err error) {
	f.errMu.Lock()
	f.lastErr = err
	f.errMu.Unlock()
	if err != nil && f.opts.Logf != nil {
		f.opts.Logf("repl follower %s: %v", f.opts.ID, err)
	}
}

func (f *Follower) err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.lastErr
}

// run is the subscription loop: each round dials, handshakes and streams
// until the connection drops, then backs off and retries.
func (f *Follower) run() {
	defer close(f.done)
	for {
		if f.stopping() {
			return
		}
		err := f.subscribeOnce()
		f.connected.Store(false)
		if f.stopping() {
			return
		}
		f.setErr(err)
		select {
		case <-f.stop:
			return
		case <-time.After(f.opts.ReconnectDelay):
		}
	}
}

// subscribeOnce runs one subscription to completion: handshake, optional
// bootstrap, then the frame stream until an error.
func (f *Follower) subscribeOnce() error {
	conn, err := f.opts.Dial(f.opts.LeaderAddr)
	if err != nil {
		return err
	}
	f.connMu.Lock()
	f.conn = conn
	f.connMu.Unlock()
	defer func() {
		f.connMu.Lock()
		f.conn = nil
		f.connMu.Unlock()
		conn.Close()
	}()

	br := bufio.NewReaderSize(conn, 256<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	sub := proto.Request{
		Type: proto.ReqReplSubscribe, LSN: f.durable.Load(),
		Epoch: f.Epoch(), Follower: f.opts.ID,
	}
	if err := proto.WriteRequest(bw, &sub); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	resp, err := proto.ReadResponse(br)
	if err != nil {
		return err
	}
	if resp.Type == proto.RespError {
		if resp.Code == proto.CodeFenced {
			return fmt.Errorf("%w: %s", ErrFenced, resp.Msg)
		}
		return fmt.Errorf("repl: subscribe refused: %s", resp.Msg)
	}
	if resp.Type != proto.RespReplState {
		return fmt.Errorf("repl: unexpected handshake response type %d", resp.Type)
	}
	if myEpoch := f.Epoch(); resp.Epoch < myEpoch {
		// A stale leader (it would also fence us, but never trust it to).
		return fmt.Errorf("%w: leader epoch %d behind local %d", ErrFenced, resp.Epoch, myEpoch)
	} else if resp.Epoch > myEpoch {
		f.mu.Lock()
		f.epoch = resp.Epoch
		err := saveState(f.opts.Dir, state{Epoch: resp.Epoch})
		f.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if resp.NeedSnapshot {
		if err := f.bootstrap(br); err != nil {
			return err
		}
	}
	f.connected.Store(true)
	if f.opts.Logf != nil {
		f.opts.Logf("repl follower %s: subscribed at LSN %d (epoch %d)",
			f.opts.ID, f.durable.Load(), resp.Epoch)
	}
	return f.streamLoop(br, bw)
}

// bootstrap consumes a snapshot stream, wipes the local database and
// restores the image, resuming the subscription at the snapshot cut.
func (f *Follower) bootstrap(br *bufio.Reader) error {
	tables := make(map[string]*engine.ReplTableSnap)
	var order []string
	var cut uint64
	for {
		resp, err := proto.ReadResponse(br)
		if err != nil {
			return err
		}
		switch resp.Type {
		case proto.RespReplSnapTable:
			st := resp.Snap
			ts, ok := tables[st.Name]
			if !ok {
				defs, err := unmarshalDefs(st.DefsJSON)
				if err != nil {
					return err
				}
				ts = &engine.ReplTableSnap{
					Name: st.Name, Cols: st.Cols, PKCol: int(st.PKCol),
					Parts: int(st.Parts), Defs: defs,
				}
				tables[st.Name] = ts
				order = append(order, st.Name)
			}
			ts.Rows = append(ts.Rows, st.Rows...)
		case proto.RespReplSnapDone:
			cut = resp.LSN
			snap := &engine.ReplSnap{LSN: cut}
			for _, name := range order {
				snap.Tables = append(snap.Tables, *tables[name])
			}
			return f.restore(snap)
		case proto.RespError:
			return fmt.Errorf("repl: bootstrap failed: %s", resp.Msg)
		default:
			return fmt.Errorf("repl: unexpected bootstrap response type %d", resp.Type)
		}
	}
}

// restore replaces the local database with a bootstrap image: the old
// directory is wiped (its history diverged from what the leader retains),
// the image restored and checkpointed, and the engine swap announced.
func (f *Follower) restore(snap *engine.ReplSnap) error {
	f.mu.Lock()
	old := f.db
	f.mu.Unlock()
	if err := old.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(f.opts.Dir); err != nil {
		return err
	}
	if err := os.MkdirAll(f.opts.Dir, 0o755); err != nil {
		return err
	}
	if err := saveState(f.opts.Dir, state{Epoch: f.Epoch()}); err != nil {
		return err
	}
	db, err := engine.OpenDurableOptions(f.opts.Dir, f.opts.Scheme, f.opts.Durable)
	if err != nil {
		return err
	}
	if err := db.ReplRestore(snap); err != nil {
		db.Close()
		return err
	}
	f.mu.Lock()
	f.db = db
	f.mu.Unlock()
	f.applied.Store(snap.LSN)
	f.durable.Store(snap.LSN)
	if f.opts.OnEngineSwap != nil {
		f.opts.OnEngineSwap(db)
	}
	if f.opts.Logf != nil {
		f.opts.Logf("repl follower %s: bootstrapped from snapshot at LSN %d", f.opts.ID, snap.LSN)
	}
	return nil
}

// streamLoop consumes frame batches, acking durable progress after each.
func (f *Follower) streamLoop(br *bufio.Reader, bw *bufio.Writer) error {
	for {
		resp, err := proto.ReadResponse(br)
		if err != nil {
			return err
		}
		switch resp.Type {
		case proto.RespReplFrames:
			f.pauseGate()
			if f.stopping() {
				return nil
			}
			if err := f.applyBatch(resp.Recs); err != nil {
				return err
			}
			ack := proto.Request{Type: proto.ReqReplAck, LSN: f.durable.Load(), Follower: f.opts.ID}
			if err := proto.WriteRequest(bw, &ack); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			if err := f.maybeCheckpoint(); err != nil {
				return err
			}
		case proto.RespError:
			if resp.Code == proto.CodeFenced {
				return fmt.Errorf("%w: %s", ErrFenced, resp.Msg)
			}
			return fmt.Errorf("repl: stream error: %s", resp.Msg)
		default:
			return fmt.Errorf("repl: unexpected stream response type %d", resp.Type)
		}
	}
}

// pauseGate blocks while the follower is paused.
func (f *Follower) pauseGate() {
	f.pauseMu.Lock()
	ch := f.pauseCh
	f.pauseMu.Unlock()
	if ch == nil {
		return
	}
	select {
	case <-ch:
	case <-f.stop:
	}
}

// applyBatch hands one frame batch to the local database's ReplApply,
// which mirrors it into the WAL and then applies every record group the
// batch completes. The mirror lands first: a crash between the two leaves
// the log ahead of state, which recovery reconciles exactly like a leader
// crash mid-commit.
func (f *Follower) applyBatch(recs []proto.WALRecord) error {
	if len(recs) == 0 {
		return nil
	}
	walRecs := make([]wal.Record, len(recs))
	for i, rec := range recs {
		walRecs[i] = fromWire(rec)
	}
	db := f.DB()
	applied, open, err := db.ReplApply(walRecs)
	f.durable.Store(db.LastLSN())
	if applied > 0 {
		f.applied.Store(applied)
	}
	f.open = open
	return err
}

// maybeCheckpoint checkpoints the local database once the WAL passes the
// configured size — but only at a group boundary, so a rotation can never
// strand part of an in-flight transaction behind the segment cut.
func (f *Follower) maybeCheckpoint() error {
	db := f.DB()
	if f.opts.CheckpointBytes < 0 || f.open > 0 || db.WALSize() < f.opts.CheckpointBytes {
		return nil
	}
	return db.Checkpoint()
}

// marshalDefs encodes index definitions for the bootstrap wire format.
func marshalDefs(defs []engine.IndexDef) ([]byte, error) {
	if len(defs) == 0 {
		return nil, nil
	}
	return json.Marshal(defs)
}

// unmarshalDefs decodes bootstrap index definitions.
func unmarshalDefs(raw []byte) ([]engine.IndexDef, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	var defs []engine.IndexDef
	if err := json.Unmarshal(raw, &defs); err != nil {
		return nil, fmt.Errorf("repl: bootstrap index defs: %w", err)
	}
	return defs, nil
}
