// Package wal implements the write-ahead log the paper's fault-tolerance
// discussion (§6) assumes for the in-memory engine: every mutation is
// framed, checksummed, LSN-stamped and appended to a log file before the
// caller is acknowledged, and recovery replays the log on top of the last
// checkpoint.
//
// The log is safe for concurrent use and owns no goroutine: the writer that
// needs a record logged writes the log (leader-writes group commit). Submit
// assigns the LSN and encodes the frame into a pending buffer under one
// mutex, so frames never interleave and a record's place is fixed when
// Submit returns; the Ticket it returns is the value {log, LSN}. Wait
// returns at once if the acknowledged LSN covers the ticket. Otherwise the
// caller becomes the writer: it swaps the pending buffer for a spare, puts
// everything in it in the file at once — a batch of one being the common case
// and the same bytes — runs the policy's fsync, advances the acknowledged
// LSN and releases, together, the callers that arrived meanwhile. So a
// caller that submits a run of records before it waits (the engine's
// ApplyEach, a transaction's frames) or several concurrent callers share a
// write as well as an fsync, and records nobody waits on reach the file with
// the next Wait, Sync or Close.
//
// Under SyncNever the writer puts a batch in the file by one copy into the
// mapped window, a MAP_SHARED mapping of a 1 MiB stretch of the log file
// (windowLen): a store into the OS page cache the file is read from — a
// process crash after it loses nothing — and no system call. A window
// reservation is the only write: before a window is mapped, one write of
// zeros extends the file to its end, so a full disk fails that write rather
// than a store into the mapping. Until Close cuts the file back to Size, it
// is longer than the log by the reserved zeros, which read as the end of the
// log (Open cuts them off after a crash). Under the fsync policies the
// writer issues one write(2) per batch instead: every round ends in an fsync
// there, and an fsync after stores into a mapping costs more than the
// write(2) saves (on ext4 in a 2-CPU virtual machine a single writer's
// SyncAlways Append took 225 µs through the mapping, 95 µs by write(2)). A
// write, reservation, mapping or fsync that fails poisons the log: every
// record not yet acknowledged, and every later Submit, reports that error —
// how much reached the file is unknown until the next Open repairs the tail.
// How long Wait blocks is the sync policy:
//
//   - SyncNever: acknowledged once the frame is copied into the mapped window,
//     that is into the OS page cache, with no system call. Survives process
//     crashes, not power loss. The fastest policy and the default.
//   - SyncGroup: acknowledged once an fsync covering the record completes,
//     at most one fsync per commit interval (group commit): the writer waits
//     the rest of the interval out and takes along what arrived meanwhile.
//   - SyncAlways: acknowledged after an fsync with no added delay; it still
//     covers whatever was pending when the writer collected.
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
	"syscall"
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

// Record is one logged operation. LSN is assigned by Submit and is
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
	// SyncNever acknowledges once the frame is in the OS page cache, never fsyncing.
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
	// log numbers from max(BaseLSN, last LSN found in the file). A
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

// Log is an append-only record log. It owns no goroutine: the caller that
// needs a record acknowledged writes the log (see the package comment).
type Log struct {
	f    *os.File
	opts Options

	// size is the log's byte length and last the LSN of its last frame, as
	// of the last batch put in the file; acked is the LSN up to which records
	// are acknowledged under the sync policy. The writer stores them in that
	// order, so acked <= last <= lsn. Once the log is poisoned acked stands still.
	size  atomic.Int64
	last  atomic.Uint64
	acked atomic.Uint64

	watchMu  sync.Mutex                      // serialises Watch/Unwatch
	watchers atomic.Pointer[[]chan struct{}] // copy-on-write: notify takes no lock

	mu      sync.Mutex    // guards the fields below
	lsn     uint64        // last LSN assigned: that of pending's last frame, if any
	pending []byte        // encoded frames no writer has collected yet
	writing bool          // some caller is the writer (set and cleared by lead)
	round   chan struct{} // made by the first caller to wait the writer's round out, closed at its end
	err     error         // sticky: the first failed write or fsync poisons the log
	closed  bool

	wbuf     []byte    // the writer's: the other grow-only frame buffer, swapped with pending
	lastSync time.Time // the writer's: when the last fsync ended
	win      []byte    // the writer's, SyncNever: the mapped window of the file, nil until the first copy
	winOff   int64     // the writer's, SyncNever: the file offset win starts at
	fileLen  int64     // the writer's, SyncNever: the file's length, Size plus the reserved zeros
	synced   int64     // the writer's: the log length the last fsync covered

	closeOnce sync.Once
	closeErr  error
}

// Ticket names one submitted record. It is a value: copy it, drop it, wait
// on it from any goroutine any number of times; the zero Ticket means
// "nothing was logged" and waits for nothing. A Ticket outlives its log —
// Close acknowledges or fails everything submitted, so a record in a
// segment that a checkpoint has since rotated away still answers.
type Ticket struct {
	log *Log
	lsn uint64
}

// Wait returns the record's LSN once it is acknowledged under the log's sync
// policy. A caller that finds the record uncovered and nobody writing writes
// the log itself; one that finds a writer waits its round out and looks again.
func (t Ticket) Wait() (uint64, error) {
	if t.log == nil {
		return 0, nil
	}
	l := t.log
	for l.acked.Load() < t.lsn {
		l.mu.Lock()
		if l.acked.Load() >= t.lsn { // covered while the lock was taken
			l.mu.Unlock()
			break
		}
		if err := l.err; err != nil {
			l.mu.Unlock()
			return 0, err
		}
		l.turn(l.opts.Policy != SyncNever, l.opts.Policy == SyncGroup)
	}
	return t.lsn, nil
}

// Open opens (creating if necessary) the log at path with default options,
// repairing a torn tail first.
func Open(path string) (*Log, error) { return OpenWith(path, Options{}) }

// OpenWith opens the log at path: it scans to the last valid frame,
// truncates any torn tail — a crash-left reserved zero tail included — so
// subsequent appends are reachable by Replay (writing the format header on a
// fresh or header-torn file) and seeks to the end. A file of a different
// format version is rejected with ErrBadFormat. No window is reserved until
// the first frame is copied.
func OpenWith(path string, opts Options) (*Log, error) {
	validLen, lastLSN, _, err := scanValid(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if err = truncateTo(f, validLen); err == nil && validLen == 0 {
		validLen = headerLen
		_, err = f.WriteAt(walMagic, 0)
	}
	if err == nil {
		_, err = f.Seek(validLen, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	lastLSN = max(lastLSN, opts.BaseLSN)
	l := &Log{f: f, opts: opts, lsn: lastLSN, fileLen: validLen, synced: validLen}
	l.size.Store(validLen)
	l.last.Store(lastLSN)
	l.acked.Store(lastLSN)
	return l, nil
}

// truncateTo cuts f down to its valid prefix if it is longer.
func truncateTo(f *os.File, validLen int64) error {
	fi, err := f.Stat()
	if err == nil && fi.Size() > validLen {
		err = f.Truncate(validLen)
	}
	if err != nil {
		return fmt.Errorf("wal: repair tail: %w", err)
	}
	return nil
}

// Size returns the log's byte length: the file header plus every frame
// written so far. After a Sync it covers every record submitted before the
// call — the offset a checkpoint manifest records as its replay start. An
// open log's file is longer, by the reserved rest of its mapped window.
func (l *Log) Size() int64 { return l.size.Load() }

// LastLSN returns the LSN of the last frame written (the base / scanned
// LSN if nothing has been appended yet). Like Size it is updated after the
// batch is put in the file, so neither is ever ahead of the bytes in the
// file.
func (l *Log) LastLSN() uint64 { return l.last.Load() }

// Submit validates a record, assigns it the next LSN and encodes its frame
// into the pending buffer. Once it returns the record's place in the log is
// fixed and rec.Payload copied (it may be the caller's scratch); nothing is
// written until some caller waits (Wait, Sync, Close) or the buffer fills.
func (l *Log) Submit(rec Record) (Ticket, error) { return l.submit(rec, false) }

// SubmitRaw submits a record that keeps its caller-assigned LSN instead of
// receiving the next one — the replication mirror path, where a follower's
// log must reproduce the leader's frames byte for byte. The LSN must
// advance strictly past the last one submitted (ErrStaleLSN).
func (l *Log) SubmitRaw(rec Record) (Ticket, error) { return l.submit(rec, true) }

func (l *Log) submit(rec Record, raw bool) (Ticket, error) {
	if len(rec.Table) > 1<<16-1 {
		return Ticket{}, ErrTableNameTooLong
	}
	// Reject here what replay would reject there: a frame body above
	// maxBodyLen reads as corruption on reopen, truncating it and every
	// acknowledged record after it.
	if minBodyLen+len(rec.Table)+len(rec.Payload) > maxBodyLen {
		return Ticket{}, ErrRecordTooLarge
	}
	l.mu.Lock()
	// A full pending buffer is written out — no fsync — by the submitter
	// that finds it full.
	for len(l.pending) >= maxBatchBytes && l.refuse() == nil {
		l.turn(false, false)
		l.mu.Lock()
	}
	defer l.mu.Unlock()
	if err := l.refuse(); err != nil {
		return Ticket{}, err
	}
	lsn := l.lsn + 1
	if raw {
		if lsn = rec.LSN; lsn <= l.lsn {
			return Ticket{}, ErrStaleLSN
		}
	}
	l.lsn = lsn
	l.pending = encodeFrameInto(l.pending, rec, lsn)
	return Ticket{l, lsn}, nil
}

// refuse says why the log takes no more records: closed, or poisoned (l.mu held).
func (l *Log) refuse() error {
	if l.closed {
		return ErrClosed
	}
	return l.err
}

// Append submits a record and waits for acknowledgement under the log's
// sync policy, returning the record's LSN: uncontended, under SyncNever one
// copy into the mapped window and no system call unless a window has to be
// reserved; under the fsync policies one write(2) and one fsync.
func (l *Log) Append(rec Record) (uint64, error) {
	t, err := l.Submit(rec)
	if err != nil {
		return 0, err
	}
	return t.Wait()
}

// Sync writes and fsyncs every record submitted so far and returns once
// that completes (a durability barrier, regardless of policy).
func (l *Log) Sync() error { return l.barrier(false) }

// Close writes and fsyncs what is pending, unmaps the window, cuts the file
// back to Size and closes it: every Ticket is acknowledged or failed when it
// returns. Later Submits get ErrClosed.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		l.closeErr = l.barrier(true)
		if err := l.release(); l.closeErr == nil {
			l.closeErr = err
		}
		if err := l.f.Close(); l.closeErr == nil {
			l.closeErr = err
		}
	})
	return l.closeErr
}

// release unmaps the window and truncates the reserved zeros, so a closed
// log's file holds exactly its Size bytes. Close calls it once the barrier
// has returned, when no writer runs or will.
func (l *Log) release() error {
	err := l.unmap()
	if size := l.size.Load(); err == nil && l.fileLen > size {
		if err = l.f.Truncate(size); err != nil {
			err = fmt.Errorf("wal: close: %w", err)
		}
	}
	return err
}

// barrier makes the caller the writer — after the round in flight, if any —
// of a round that ends in an fsync; closing marks the log closed behind it.
func (l *Log) barrier(closing bool) error {
	l.mu.Lock()
	for l.writing {
		l.turn(false, false) // waits: there is a writer
		l.mu.Lock()
	}
	if err := l.refuse(); err != nil {
		l.mu.Unlock()
		return err
	}
	l.closed = closing
	return l.lead(true, false)
}

// turn waits the writer's round out if there is a writer, and otherwise
// makes the caller the writer of one (see lead). Callers that waited are
// released together by the close of the round's channel; those the round
// covered then return without a lock. Called with l.mu held, returns without.
func (l *Log) turn(fsync, paced bool) {
	if !l.writing {
		l.lead(fsync, paced) // a failure is l.err when the caller looks again
		return
	}
	if l.round == nil {
		l.round = make(chan struct{})
	}
	round := l.round
	l.mu.Unlock()
	<-round
}

// lead is the one write path of all three policies. The caller becomes the
// writer for one round: collect the pending frames, put them in the file at
// once, fsync if asked (paced: not before the commit interval since the last
// fsync is over, taking along what was submitted meanwhile), advance acked,
// release the callers waiting the round out. A failed write or fsync poisons
// the log instead: nothing above acked is ever acknowledged. Called with l.mu
// held and no writer active; returns without.
func (l *Log) lead(fsync, paced bool) error {
	l.writing = true
	err := l.collectAndWrite()
	if err == nil && paced {
		if wait := l.opts.interval() - time.Since(l.lastSync); wait > 0 {
			time.Sleep(wait)
			l.mu.Lock()
			err = l.collectAndWrite()
		}
	}
	if err == nil && fsync {
		err = l.fsync()
		l.lastSync = time.Now()
	}
	if err == nil && (fsync || l.opts.Policy == SyncNever) {
		l.acked.Store(l.last.Load())
	}
	l.mu.Lock()
	if err != nil {
		l.err = err
	}
	round := l.round
	l.writing, l.round = false, nil
	l.mu.Unlock()
	if round != nil {
		close(round)
	}
	return err
}

// collectAndWrite swaps the pending buffer for the writer's own (written
// out, so empty), releases l.mu, puts the frames in the file — under
// SyncNever one copy into the mapped window (a window reservation is the only
// write), under the fsync policies one write(2) — and publishes the new size
// and last LSN. Nothing is published for a failed write: how much of the
// batch reached the file is then unknown. Caller is the writer and holds l.mu.
func (l *Log) collectAndWrite() error {
	l.pending, l.wbuf = l.wbuf[:0], l.pending
	upto := l.lsn
	l.mu.Unlock()
	if len(l.wbuf) == 0 {
		return nil
	}
	if l.opts.Policy == SyncNever {
		if err := l.copyOut(l.wbuf, l.size.Load()); err != nil {
			return err
		}
	} else if _, err := l.f.Write(l.wbuf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size.Add(int64(len(l.wbuf)))
	l.last.Store(upto)
	l.notify()
	return nil
}

// fsync is a round's durability barrier: msync(MS_SYNC) the mapped window's
// bytes that no fsync has covered yet, if a window is mapped, so the barrier
// does not rest on the kernel writing mapped pages back on its own, then fsync
// the file. Caller is the writer.
func (l *Log) fsync() error {
	to := l.size.Load()
	err := l.msync(l.synced, to, syscall.MS_SYNC)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.synced = to
	return nil
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

// maxBatchBytes is the pending size at which a submitter writes the buffer
// out before adding to it: past it one more frame per write saves nothing,
// and the grow-only buffers would grow to whatever a burst nobody awaits adds.
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
