// Package wal implements the write-ahead log the paper's fault-tolerance
// discussion (§6) assumes for the in-memory engine: every mutation is
// framed, checksummed, LSN-stamped and appended to a log file before the
// caller is acknowledged, and recovery replays the log on top of the last
// checkpoint.
//
// The log is safe for concurrent use. All appends funnel through a single
// appender goroutine, so frames never interleave; callers submit a record
// and receive a Ticket they can wait on. The appender drains every request
// that is ready, encodes the frames back to back into one buffer, and
// issues one write(2) for the batch — a batch of one being the common case
// and the same bytes — before it acknowledges any of the batch's waiters,
// so a caller that submits a run of records before waiting (DurableDB's
// ApplyEach) or several concurrent callers share a write as well as an
// fsync. A write that fails fails the whole batch: how much of it reached
// the file is unknown until the next Open repairs the tail. How long Wait
// blocks is the sync policy:
//
//   - SyncNever: acknowledged once the frame is written to the OS. Survives
//     process crashes, not power loss. The fastest policy and the default.
//   - SyncGroup: acknowledged once an fsync covering the record completes.
//     The appender batches waiters and issues one fsync per commit interval
//     (group commit), amortising the flush across concurrent writers.
//   - SyncAlways: acknowledged after an fsync with no batching delay; the
//     appender still coalesces the fsync across whatever records drained in
//     the same batch.
//
// A torn or corrupted tail frame — the normal result of a crash mid-append —
// ends replay cleanly rather than erroring, and Open repairs it by
// truncating to the last valid frame so that later appends are never
// shadowed behind unreadable bytes.
//
// Every log file starts with an 8-byte magic recording the frame-format
// version. A file whose header names a different version — or no valid
// header at all, e.g. a log written before the header existed — is
// rejected loudly (ErrBadFormat) rather than being misparsed or silently
// truncated; a header torn by a crash during creation reads as an empty
// log and is repaired.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Op identifies a logged operation. The engine defines the semantics; the
// log only frames and checksums.
type Op byte

// Operation codes used by the engine's durable layer. Codes are appended,
// never renumbered: logs written by older binaries replay on newer ones.
const (
	OpInsert Op = iota + 1
	OpDelete
	OpUpdate
	OpCreateTable
	OpCreateIndex
	OpDropIndex
	// OpCreatePartitioned creates a hash-partitioned table; the payload
	// carries the schema plus the partition count.
	OpCreatePartitioned
	// OpTxnBegin opens a multi-operation transaction: subsequent mutation
	// records carrying the same Txn id belong to it. Replay must buffer
	// them until the matching OpTxnCommit arrives; a transaction whose
	// commit record never made it to disk is an uncommitted tail and is
	// discarded (rolled back) by recovery.
	OpTxnBegin
	// OpTxnCommit marks the transaction with the record's Txn id committed;
	// its buffered mutations become applicable at this point in the log.
	OpTxnCommit
)

// Record is one logged operation. LSN is assigned by the appender and is
// strictly increasing within a log file; the value set by callers on
// Append/Submit is ignored. Part is the hash partition the record targets
// (0 for records on unpartitioned tables and for DDL, which fans out to
// every partition on replay). Txn is the transaction id the record belongs
// to: 0 for auto-committed single operations, which apply directly on
// replay; non-zero mutations apply only if the log also holds an
// OpTxnCommit for the same id.
type Record struct {
	LSN     uint64
	Op      Op
	Part    uint32
	Txn     uint64
	Table   string
	Payload []byte
}

// Errors returned by the log.
var (
	// ErrTableNameTooLong is returned for table names above 64 KiB.
	ErrTableNameTooLong = errors.New("wal: table name too long")
	// ErrRecordTooLarge is returned for records whose frame body would
	// exceed the size replay accepts (maxBodyLen).
	ErrRecordTooLarge = errors.New("wal: record too large")
	// ErrClosed is returned for operations on a closed log.
	ErrClosed = errors.New("wal: closed")
	// ErrBadFormat is returned for files that are not logs of this frame
	// format — a different version's magic, or no valid header at all
	// (e.g. a pre-versioning log). Rejecting loudly beats misparsing: the
	// frame layout has changed across versions and a silent truncation
	// would read as an empty log.
	ErrBadFormat = errors.New("wal: not a log of this format version (migrate or discard it)")
	// ErrStaleLSN is returned by SubmitRaw for a record whose caller-assigned
	// LSN does not advance past the log's last LSN — appending it would break
	// the strictly-increasing LSN invariant replay depends on.
	ErrStaleLSN = errors.New("wal: raw record LSN not past the log's last LSN")
)

// walMagic heads every log file: "HWAL" plus a big-endian format version.
// Version 3 added the per-record partition id to the frame body; version 4
// added the per-record transaction id plus the txn-begin/commit operation
// codes, so recovery can roll back uncommitted transaction tails.
var walMagic = []byte{'H', 'W', 'A', 'L', 0, 0, 0, 4}

// headerLen is the byte length of the file header; frames follow it.
const headerLen = 8

// Policy selects when an append is acknowledged (see the package comment).
type Policy int

const (
	// SyncNever acknowledges after the OS write, never fsyncing.
	SyncNever Policy = iota
	// SyncGroup batches fsyncs on a commit interval (group commit).
	SyncGroup
	// SyncAlways fsyncs before acknowledging, with no added delay.
	SyncAlways
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case SyncNever:
		return "no-sync"
	case SyncGroup:
		return "group-commit"
	default:
		return "sync-every-op"
	}
}

// DefaultGroupInterval is the commit interval used when Options leaves it
// zero: long enough to batch concurrent writers, short enough to keep
// single-writer latency in the low milliseconds.
const DefaultGroupInterval = 2 * time.Millisecond

// Options configures a log's durability behaviour.
type Options struct {
	// Policy is the acknowledgement policy. The zero value is SyncNever.
	Policy Policy
	// GroupInterval is the group-commit interval for SyncGroup
	// (DefaultGroupInterval when zero).
	GroupInterval time.Duration
	// BaseLSN continues a global LSN sequence across segment files: the
	// appender numbers from max(BaseLSN, last LSN found in the file). A
	// rotation passes the previous segment's last LSN here so that LSNs
	// stay strictly increasing across the whole segment chain — the
	// property replication subscriptions key on. Zero preserves the
	// historical per-segment numbering (fresh segments start at 1).
	BaseLSN uint64
}

func (o Options) interval() time.Duration {
	if o.GroupInterval <= 0 {
		return DefaultGroupInterval
	}
	return o.GroupInterval
}

// Log is an append-only record log with a single appender goroutine.
type Log struct {
	path string
	f    *os.File
	opts Options

	// size is the log's byte length: header plus every batch of frames the
	// appender has written. Readable without the appender via Size.
	size atomic.Int64
	// last is the LSN of the most recently written frame (or the scanned /
	// base LSN for an empty log). Readable without the appender via LastLSN.
	last atomic.Uint64

	watchMu  sync.Mutex
	watchers []chan struct{}

	// reqs is the FIFO into the appender. It is buffered so that a caller
	// submitting a run of records (or several callers at once) queues them
	// while the appender is inside a write or an fsync, and the next drain
	// takes them as one batch; a record's place in the log is fixed when
	// its send completes. subMu orders submitters against Close: a send
	// starts only while quit is open, and Close closes it — under the
	// exclusive lock, so after every send in flight — which tells the
	// appender to drain the queue one last time and exit.
	reqs  chan request
	subMu sync.RWMutex
	quit  chan struct{}
	done  chan struct{}

	closeOnce sync.Once
	closeErr  error
	finalErr  error // sticky appender error, published before done closes
}

type reqKind uint8

const (
	reqAppend reqKind = iota
	reqSync
	// reqRaw appends a record that carries its own LSN (replication
	// mirroring); the appender validates it advances the sequence instead
	// of assigning one.
	reqRaw
)

type request struct {
	kind reqKind
	rec  Record
	ch   chan result // buffered(1); the appender never blocks acking
}

type result struct {
	lsn uint64
	err error
}

// Ticket is the handle for one submitted record; Wait blocks until the
// record is acknowledged under the log's sync policy.
//
// Tickets are pooled: Wait recycles the ticket, so call it at most once
// and drop every reference afterwards. A ticket that is never waited on
// is simply garbage-collected (the transaction path waits only on its
// commit record's ticket, for example).
type Ticket struct{ ch chan result }

// ticketPool recycles tickets (and their buffered ack channels) across
// submissions. The appender sends exactly one result per request and Wait
// receives it, so a recycled ticket's channel is always empty.
var ticketPool = sync.Pool{New: func() any {
	return &Ticket{ch: make(chan result, 1)}
}}

// Wait returns the record's LSN once it is acknowledged. It must be
// called at most once per ticket: the ticket is recycled on return.
func (t *Ticket) Wait() (uint64, error) {
	r := <-t.ch
	ticketPool.Put(t)
	return r.lsn, r.err
}

// Open opens (creating if necessary) the log at path with default options,
// repairing a torn tail first.
func Open(path string) (*Log, error) { return OpenWith(path, Options{}) }

// OpenWith opens the log at path: it scans to the last valid frame,
// truncates any torn tail so subsequent appends are reachable by Replay
// (writing the format header on a fresh or header-torn file), seeks to
// the end and starts the appender goroutine. A file of a different format
// version is rejected with ErrBadFormat.
func OpenWith(path string, opts Options) (*Log, error) {
	validLen, lastLSN, _, err := scanValid(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if fi, err := f.Stat(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open: %w", err)
	} else if fi.Size() > validLen {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: repair tail: %w", err)
		}
	}
	if validLen == 0 {
		if _, err := f.WriteAt(walMagic, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: write header: %w", err)
		}
		validLen = headerLen
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{
		path: path,
		f:    f,
		opts: opts,
		reqs: make(chan request, reqQueueLen),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	if opts.BaseLSN > lastLSN {
		lastLSN = opts.BaseLSN
	}
	l.size.Store(validLen)
	l.last.Store(lastLSN)
	go l.run(lastLSN)
	return l, nil
}

// Size returns the log's byte length: the file header plus every frame
// written so far. It is updated after the batch write, so a frame is
// counted once the appender has written it (with the rest of its batch),
// and after a Sync the value covers every acknowledged record — the offset
// a checkpoint manifest records as its replay start.
func (l *Log) Size() int64 { return l.size.Load() }

// LastLSN returns the LSN of the last frame written (the base / scanned
// LSN if nothing has been appended yet). Like Size, it is updated after
// the batch write — to the LSN of the batch's last frame — so a (Size,
// LastLSN) pair read in either order is never ahead of the bytes on disk.
func (l *Log) LastLSN() uint64 { return l.last.Load() }

// Watch registers ch to receive a non-blocking notification after the
// appender writes new frames. Notifications coalesce: one token may cover
// many appends, and a slow receiver loses tokens, not data — a woken tailer
// must read to the current Size regardless. There is no Unwatch; watchers
// live as long as the Log (a rotation re-registers them on the new one).
func (l *Log) Watch(ch chan struct{}) {
	l.watchMu.Lock()
	defer l.watchMu.Unlock()
	l.watchers = append(l.watchers, ch)
}

// Watchers returns the registered watcher channels (for handing off to a
// successor segment on rotation).
func (l *Log) Watchers() []chan struct{} {
	l.watchMu.Lock()
	defer l.watchMu.Unlock()
	return append([]chan struct{}(nil), l.watchers...)
}

func (l *Log) notify() {
	l.watchMu.Lock()
	ws := l.watchers
	l.watchMu.Unlock()
	for _, ch := range ws {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// RepairTail truncates the file at path to its last valid frame (or to
// zero for a torn header) and returns the resulting length. A missing
// file is zero-length and not an error; a file of a different format
// version is ErrBadFormat.
func RepairTail(path string) (int64, error) {
	validLen, _, _, err := scanValid(path)
	if err != nil {
		return 0, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("wal: repair tail: %w", err)
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil {
		return 0, err
	} else if fi.Size() > validLen {
		if err := f.Truncate(validLen); err != nil {
			return 0, fmt.Errorf("wal: repair tail: %w", err)
		}
	}
	return validLen, nil
}

// Submit validates and enqueues a record, returning a Ticket to wait on.
// The record is on its way to the log once Submit returns: records
// submitted sequentially from one goroutine are logged in that order.
func (l *Log) Submit(rec Record) (*Ticket, error) {
	if len(rec.Table) > 1<<16-1 {
		return nil, ErrTableNameTooLong
	}
	// Reject here what replay would reject there: a frame body above
	// maxBodyLen reads as corruption on reopen, truncating it and every
	// acknowledged record after it.
	if minBodyLen+len(rec.Table)+len(rec.Payload) > maxBodyLen {
		return nil, ErrRecordTooLarge
	}
	return l.enqueue(reqAppend, rec)
}

// enqueue queues one request for the appender. It blocks while the queue
// is full; once it returns the request's place in the log is fixed.
func (l *Log) enqueue(kind reqKind, rec Record) (*Ticket, error) {
	l.subMu.RLock()
	defer l.subMu.RUnlock()
	select {
	case <-l.quit:
		return nil, ErrClosed
	default:
	}
	tk := ticketPool.Get().(*Ticket)
	l.reqs <- request{kind: kind, rec: rec, ch: tk.ch}
	return tk, nil
}

// SubmitRaw enqueues a record that keeps its caller-assigned LSN instead
// of receiving the appender's next one — the replication mirror path,
// where a follower's log must reproduce the leader's frames byte for
// byte. The LSN must advance strictly past the log's last LSN or the
// append is rejected with ErrStaleLSN (reported via the Ticket, so
// submission order is still append order).
func (l *Log) SubmitRaw(rec Record) (*Ticket, error) {
	if rec.LSN == 0 {
		return nil, ErrStaleLSN
	}
	if len(rec.Table) > 1<<16-1 {
		return nil, ErrTableNameTooLong
	}
	if minBodyLen+len(rec.Table)+len(rec.Payload) > maxBodyLen {
		return nil, ErrRecordTooLarge
	}
	return l.enqueue(reqRaw, rec)
}

// Append submits a record and waits for acknowledgement under the log's
// sync policy, returning the record's LSN.
func (l *Log) Append(rec Record) (uint64, error) {
	t, err := l.Submit(rec)
	if err != nil {
		return 0, err
	}
	return t.Wait()
}

// Sync forces an fsync covering every record submitted so far and returns
// once it completes (a durability barrier, regardless of policy).
func (l *Log) Sync() error {
	tk, err := l.enqueue(reqSync, Record{})
	if err != nil {
		return err
	}
	_, err = tk.Wait()
	return err
}

// Close drains pending appends, flushes, stops the appender and closes the
// file. Outstanding Tickets are acknowledged before Close returns.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		l.subMu.Lock()
		close(l.quit)
		l.subMu.Unlock()
		<-l.done
		err := l.finalErr
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.closeErr = err
	})
	<-l.done
	return l.closeErr
}

// run is the appender goroutine: the only writer of l.f after OpenWith.
func (l *Log) run(lastLSN uint64) {
	type waiter struct {
		lsn uint64
		ch  chan result
	}
	var (
		lsn      = lastLSN
		sticky   error    // first write/sync failure; everything after fails
		pending  []waiter // waiters to acknowledge at the next fsync
		lastSync time.Time
		timer    *time.Timer
		timerC   <-chan time.Time
	)
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer, timerC = nil, nil
		}
	}
	// flush fsyncs and acknowledges every pending waiter.
	flush := func() {
		stopTimer()
		err := sticky
		if err == nil {
			if err = l.f.Sync(); err != nil {
				sticky = err
			}
		}
		lastSync = time.Now()
		for _, w := range pending {
			w.ch <- result{w.lsn, err}
		}
		pending = pending[:0]
	}
	// groupFlush implements group commit: flush immediately if the commit
	// interval has already elapsed since the last fsync (no added latency),
	// otherwise arm the timer so the fsync rate stays capped at one per
	// interval, with every waiter that queues meanwhile absorbed into it.
	groupFlush := func() {
		if len(pending) == 0 {
			return
		}
		if wait := l.opts.interval() - time.Since(lastSync); wait > 0 {
			if timer == nil {
				timer = time.NewTimer(wait)
				timerC = timer.C
			}
			return
		}
		flush()
	}
	wrote := false // frames written since the last watcher notification
	// The appender is the only goroutine encoding frames and the file
	// write copies the bytes out synchronously, so one grow-only buffer
	// serves every append — no per-record frame allocation. It holds the
	// frames of the batch being drained; batch holds their waiters.
	var (
		frameBuf []byte
		batch    []waiter
	)
	// commit writes the drained batch in one write(2), publishes the new
	// size and last LSN, and acknowledges the batch's waiters (SyncNever)
	// or queues them for the next fsync. A failed write fails every waiter
	// of the batch — how much of it reached the file is unknown — and
	// rolls the LSN back to the last published one.
	commit := func() {
		if len(batch) == 0 {
			return
		}
		if _, err := l.f.Write(frameBuf); err != nil {
			sticky = fmt.Errorf("wal: append: %w", err)
			lsn = l.last.Load()
			for _, w := range batch {
				w.ch <- result{0, sticky}
			}
		} else {
			l.size.Add(int64(len(frameBuf)))
			l.last.Store(lsn)
			wrote = true
			if l.opts.Policy == SyncNever {
				for _, w := range batch {
					w.ch <- result{w.lsn, nil}
				}
			} else {
				pending = append(pending, batch...) // flushed after this batch drains
			}
		}
		batch, frameBuf = batch[:0], frameBuf[:0]
	}
	handle := func(req request) {
		switch req.kind {
		case reqSync:
			commit() // the barrier covers everything submitted before it
			flush()
			req.ch <- result{lsn, sticky}
		case reqAppend, reqRaw:
			if sticky != nil {
				req.ch <- result{0, sticky}
				return
			}
			if req.kind == reqRaw {
				if req.rec.LSN <= lsn {
					req.ch <- result{0, ErrStaleLSN}
					return
				}
				lsn = req.rec.LSN
			} else {
				lsn++
			}
			frameBuf = encodeFrameInto(frameBuf, req.rec, lsn)
			batch = append(batch, waiter{lsn, req.ch})
			if len(frameBuf) >= maxBatchBytes {
				commit()
			}
		}
	}
	// drain handles the requests deliverable without blocking, up to one
	// queue's worth: a steady stream of submitters must not keep the
	// waiters of this batch from their fsync.
	drain := func() {
		for n := 0; n < reqQueueLen; n++ {
			select {
			case req := <-l.reqs:
				handle(req)
			default:
				return
			}
		}
	}
	for {
		select {
		case req := <-l.reqs:
			handle(req)
			drain() // batch concurrent submitters under one write and one fsync
			commit()
			if len(pending) > 0 {
				if l.opts.Policy == SyncAlways {
					flush()
				} else {
					groupFlush()
				}
			}
			if wrote {
				wrote = false
				l.notify()
			}
		case <-timerC:
			timer, timerC = nil, nil
			flush()
		case <-l.quit:
			for len(l.reqs) > 0 { // nothing is sent once quit is closed
				drain()
			}
			commit()
			flush()
			if wrote {
				l.notify()
			}
			l.finalErr = sticky
			close(l.done)
			return
		}
	}
}

// Frame layout (format version 4):
//
//	u32 bodyLen | u32 crc32(body) | body
//	body = u64 lsn | op byte | u32 part | u64 txn | u16 tableLen | table | payload
const (
	frameHdrLen = 8
	minBodyLen  = 23
	maxBodyLen  = 64 << 20
)

// reqQueueLen is the capacity of the queue into the appender: room for a
// few callers' runs (the server's sessions submit up to 64 records before
// they wait), so a submitter holding its key's stripe rarely blocks on an
// appender that is inside a write; it also bounds how many requests one
// drain takes before the batch's waiters are served.
const reqQueueLen = 256

// maxBatchBytes is the encoded size at which the appender writes a batch
// out without draining further: past it one more frame per write(2) saves
// nothing, and the grow-only frame buffer would otherwise grow to the sum
// of whatever a burst of large records drained.
const maxBatchBytes = 256 << 10

// encodeFrameInto appends the record's frame to dst (pass dst[:0] to
// reuse a buffer) and returns the extended slice.
func encodeFrameInto(dst []byte, rec Record, lsn uint64) []byte {
	bodyLen := minBodyLen + len(rec.Table) + len(rec.Payload)
	total := frameHdrLen + bodyLen
	if cap(dst)-len(dst) < total {
		grown := make([]byte, len(dst), max(2*cap(dst), len(dst)+total))
		copy(grown, dst)
		dst = grown
	}
	frame := dst[len(dst) : len(dst)+total]
	body := frame[frameHdrLen:]
	binary.LittleEndian.PutUint64(body[0:8], lsn)
	body[8] = byte(rec.Op)
	binary.LittleEndian.PutUint32(body[9:13], rec.Part)
	binary.LittleEndian.PutUint64(body[13:21], rec.Txn)
	binary.LittleEndian.PutUint16(body[21:23], uint16(len(rec.Table)))
	copy(body[23:], rec.Table)
	copy(body[23+len(rec.Table):], rec.Payload)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(bodyLen))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	return dst[:len(dst)+total]
}

// decodeBody parses a checksum-verified body. ok=false flags a structurally
// invalid body (treated as corruption by readers).
func decodeBody(body []byte) (Record, bool) {
	if len(body) < minBodyLen {
		return Record{}, false
	}
	tableLen := int(binary.LittleEndian.Uint16(body[21:23]))
	if minBodyLen+tableLen > len(body) {
		return Record{}, false
	}
	return Record{
		LSN:     binary.LittleEndian.Uint64(body[0:8]),
		Op:      Op(body[8]),
		Part:    binary.LittleEndian.Uint32(body[9:13]),
		Txn:     binary.LittleEndian.Uint64(body[13:21]),
		Table:   string(body[23 : 23+tableLen]),
		Payload: body[23+tableLen:],
	}, true
}

// Replay reads records from the log at path in append order, invoking fn
// for each. A truncated or checksum-failing tail ends replay without error
// (crash semantics); an error from fn aborts replay and is returned.
// A missing file replays zero records. The record's Payload is only valid
// during fn (see readFrames); copy it to retain it.
func Replay(path string, fn func(Record) error) error {
	return ReplayFrom(path, 0, fn)
}

// ReplayFrom replays records starting at byte offset off (which must be a
// frame boundary, e.g. a position recorded by a checkpoint manifest;
// offsets inside the file header are clamped past it). An offset at or
// past the end of the valid log replays zero records; a file of a
// different format version is ErrBadFormat.
func ReplayFrom(path string, off int64, fn func(Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("wal: replay open: %w", err)
	}
	defer f.Close()
	ok, err := readHeader(f)
	if err != nil {
		return fmt.Errorf("wal: %s: %w", path, err)
	}
	if !ok { // empty or header-torn file: an empty log
		return nil
	}
	if off > headerLen {
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return fmt.Errorf("wal: replay seek: %w", err)
		}
	}
	var lastLSN uint64
	first := true
	return readFrames(f, func(rec Record) (bool, error) {
		// LSNs are strictly increasing within a file; a regression means
		// the bytes are stale or corrupt, so stop as with a torn tail.
		if !first && rec.LSN <= lastLSN {
			return false, nil
		}
		first, lastLSN = false, rec.LSN
		if err := fn(rec); err != nil {
			return false, err
		}
		return true, nil
	})
}

// readFrames decodes frames from r until EOF, corruption, or fn stops it.
// The record's Payload aliases a scratch buffer reused for the next frame
// and is only valid during fn — a callback that retains the record past
// its return must copy the payload (Table is already a fresh string).
func readFrames(r io.Reader, fn func(Record) (bool, error)) error {
	var hdr [frameHdrLen]byte
	var body []byte // grow-only scratch; one buffer serves the whole replay
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil // clean EOF or torn header: end of usable log
		}
		bodyLen := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if bodyLen < minBodyLen || bodyLen > maxBodyLen {
			return nil // corrupt length: stop
		}
		if uint32(cap(body)) < bodyLen {
			body = make([]byte, bodyLen)
		}
		body = body[:bodyLen]
		if _, err := io.ReadFull(r, body); err != nil {
			return nil // torn body
		}
		if crc32.ChecksumIEEE(body) != crc {
			return nil // corrupt record
		}
		rec, ok := decodeBody(body)
		if !ok {
			return nil
		}
		cont, err := fn(rec)
		if err != nil || !cont {
			return err
		}
	}
}

// readHeader consumes the file header from r and classifies it: ok means
// a complete, current-version header was read; ok=false with a nil error
// means the file is empty or holds a crash-torn header prefix (an empty
// log, repairable); ErrBadFormat means the bytes are some other format —
// a different version or a pre-versioning log — and must not be touched.
func readHeader(r io.Reader) (ok bool, err error) {
	var hdr [headerLen]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil { // short file: torn header iff it is a magic prefix
		if bytes.Equal(hdr[:n], walMagic[:n]) {
			return false, nil
		}
		return false, ErrBadFormat
	}
	if !bytes.Equal(hdr[:], walMagic) {
		return false, ErrBadFormat
	}
	return true, nil
}

// scanValid returns the byte length of the valid (header + frames) prefix
// of the file at path, the last valid frame's LSN, and the frame count.
// A missing file scans as empty; validLen 0 means the header itself is
// missing or torn and must be (re)written.
func scanValid(path string) (validLen int64, lastLSN uint64, n int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, 0, nil
		}
		return 0, 0, 0, fmt.Errorf("wal: scan: %w", err)
	}
	defer f.Close()
	ok, err := readHeader(f)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: %s: %w", path, err)
	}
	if !ok {
		return 0, 0, 0, nil
	}
	validLen = headerLen
	first := true
	err = readFrames(f, func(rec Record) (bool, error) {
		if !first && rec.LSN <= lastLSN {
			return false, nil
		}
		first, lastLSN = false, rec.LSN
		validLen += int64(frameHdrLen + minBodyLen + len(rec.Table) + len(rec.Payload))
		n++
		return true, nil
	})
	return validLen, lastLSN, n, err
}
