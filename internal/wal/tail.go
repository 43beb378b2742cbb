package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// HeaderLen is the byte length of the log file header; the first frame
// starts here. Exposed so tailing readers can seed a start offset.
const HeaderLen = headerLen

// Tailer incrementally reads frames from a live log segment file. Unlike
// Replay it does not consume the file in one pass: Next returns ok=false
// at the current end of valid frames, and the caller may retry after the
// log is written further (pair it with Watch for wakeups). Reads use
// ReadAt, so many tailers can share a segment.
//
// A Tailer applies the same validity rules as replay — length bounds,
// checksum, structural decode, strictly-increasing LSNs — so a torn or
// corrupt tail parks the tailer at the boundary rather than erroring, as
// does the reserved zero tail of an open log's mapped window; if the bytes
// are later completed (the frame was mid-copy), the retry succeeds.
type Tailer struct {
	f       *os.File
	off     int64
	lastLSN uint64
	started bool
}

// OpenTailer opens the segment at path for incremental reading, starting
// at byte offset off (0 or any value inside the header starts at the
// first frame; otherwise off must be a frame boundary). The file must
// carry a complete current-version header — segments are created with one
// before they are published, so an incomplete header means the path is
// not a live segment yet.
func OpenTailer(path string, off int64) (*Tailer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: tail open: %w", err)
	}
	ok, err := readHeader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	if !ok {
		f.Close()
		return nil, fmt.Errorf("wal: %s: %w", path, ErrBadFormat)
	}
	if off < headerLen {
		off = headerLen
	}
	return &Tailer{f: f, off: off}, nil
}

// Next returns the next valid frame, or ok=false at the current end of
// the valid log (torn tail, checksum mismatch, or clean EOF — all retry
// later). err is reserved for I/O failures other than reaching the end.
func (t *Tailer) Next() (rec Record, ok bool, err error) {
	var hdr [frameHdrLen]byte
	if _, rerr := t.f.ReadAt(hdr[:], t.off); rerr != nil {
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			return Record{}, false, nil
		}
		return Record{}, false, fmt.Errorf("wal: tail read: %w", rerr)
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if bodyLen < minBodyLen || bodyLen > maxBodyLen {
		return Record{}, false, nil
	}
	body := make([]byte, bodyLen)
	if _, rerr := t.f.ReadAt(body, t.off+frameHdrLen); rerr != nil {
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			return Record{}, false, nil
		}
		return Record{}, false, fmt.Errorf("wal: tail read: %w", rerr)
	}
	if crc32.ChecksumIEEE(body) != crc {
		return Record{}, false, nil
	}
	rec, valid := decodeBody(body)
	if !valid {
		return Record{}, false, nil
	}
	if t.started && rec.LSN <= t.lastLSN {
		return Record{}, false, nil // stale bytes past a truncation point
	}
	t.started, t.lastLSN = true, rec.LSN
	t.off += int64(frameHdrLen) + int64(bodyLen)
	return rec, true, nil
}

// Offset returns the byte offset of the next frame to read.
func (t *Tailer) Offset() int64 { return t.off }

// Close releases the underlying file handle.
func (t *Tailer) Close() error { return t.f.Close() }

// Watch registers ch to receive a non-blocking notification after new
// frames are written. Notifications coalesce: one token may cover many
// appends, and a slow receiver loses tokens, not data — a woken tailer must
// read to the current Size regardless. Unwatch removes it again.
func (l *Log) Watch(ch chan struct{}) {
	l.watchMu.Lock()
	defer l.watchMu.Unlock()
	ws := append(slices.Clip(l.Watchers()), ch)
	l.watchers.Store(&ws)
}

// Unwatch removes every registration of ch.
func (l *Log) Unwatch(ch chan struct{}) {
	l.watchMu.Lock()
	defer l.watchMu.Unlock()
	ws := slices.DeleteFunc(slices.Clone(l.Watchers()), func(w chan struct{}) bool { return w == ch })
	l.watchers.Store(&ws)
}

// Watchers returns the registered watcher channels. The slice is replaced,
// never changed, by Watch and Unwatch: read it, do not write it.
func (l *Log) Watchers() []chan struct{} {
	if ws := l.watchers.Load(); ws != nil {
		return *ws
	}
	return nil
}

// notify runs on the writer's path after every copy into the window: with no
// watcher it is one atomic load.
func (l *Log) notify() {
	for _, ch := range l.Watchers() {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}
