// Package client is the Go client for hermitd's binary protocol. A Conn
// is one session: dial with Dial, issue requests with the typed methods,
// batch round trips with Pipeline, and run multi-statement transactions
// with Begin. A Conn is not safe for concurrent use — open one per
// goroutine (connections are cheap; the server multiplexes sessions).
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"hermit/internal/server/proto"
)

// Sentinel errors a Conn maps wire error codes onto. Test with errors.Is;
// the full server message rides along in the wrapped Error.
var (
	// ErrOverloaded: admission control shed the request; back off and retry.
	ErrOverloaded = errors.New("client: server overloaded")
	// ErrQuota: the tenant's op quota is exhausted.
	ErrQuota = errors.New("client: tenant quota exhausted")
	// ErrConflict: first-committer-wins write-write conflict.
	ErrConflict = errors.New("client: write conflict")
	// ErrAborted: a sibling mutation aborted this op's atomic batch.
	ErrAborted = errors.New("client: batch aborted")
	// ErrNoTable: no such table in this tenant's namespace.
	ErrNoTable = errors.New("client: no such table")
	// ErrTxnUnknown: the transaction is not open on the server.
	ErrTxnUnknown = errors.New("client: unknown or finished transaction")
	// ErrDraining: the server is shutting down.
	ErrDraining = errors.New("client: server draining")
	// ErrDupKey: insert collided with an existing primary key (or table).
	ErrDupKey = errors.New("client: duplicate key")
	// ErrNotLeader: the node is a read-only replication follower; retry
	// the write against the leader.
	ErrNotLeader = errors.New("client: node is not the leader")
	// ErrFenced: the peer was fenced by a newer leader epoch.
	ErrFenced = errors.New("client: fenced by a newer epoch")
)

// Error is a server-reported failure (any RespError), wrapping the
// matching sentinel when one exists.
type Error struct {
	Code proto.ErrCode
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("server error %d: %s", e.Code, e.Msg) }

// Unwrap maps the code onto a sentinel so errors.Is works.
func (e *Error) Unwrap() error {
	switch e.Code {
	case proto.CodeOverloaded:
		return ErrOverloaded
	case proto.CodeQuota:
		return ErrQuota
	case proto.CodeConflict:
		return ErrConflict
	case proto.CodeAborted:
		return ErrAborted
	case proto.CodeNoTable:
		return ErrNoTable
	case proto.CodeTxnUnknown:
		return ErrTxnUnknown
	case proto.CodeDraining:
		return ErrDraining
	case proto.CodeDupKey:
		return ErrDupKey
	case proto.CodeNotLeader:
		return ErrNotLeader
	case proto.CodeFenced:
		return ErrFenced
	}
	return nil
}

// Options configures a Conn.
type Options struct {
	// Tenant is the namespace the session binds to ("" = the default
	// namespace). Sent as the session's first request.
	Tenant string
	// DialTimeout bounds the TCP connect (default 5s).
	DialTimeout time.Duration
}

// Conn is one client session. Not safe for concurrent use.
type Conn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	// wbuf/rbuf are the frame encode/decode scratch buffers. The Conn is
	// single-goroutine by contract, so plain fields suffice; oversized
	// buffers are dropped after use (see maxRetainedBuf).
	wbuf, rbuf []byte
}

// maxRetainedBuf caps the frame scratch a Conn keeps between requests
// (frames run up to proto.MaxFrame = 16 MiB; a rare huge row set should
// not pin that footprint on an idle connection).
const maxRetainedBuf = 64 << 10

// Dial connects to a hermitd address and binds the tenant namespace.
func Dial(addr string, opts Options) (*Conn, error) {
	timeout := opts.DialTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := newConn(nc)
	if opts.Tenant != "" {
		if _, err := c.roundTrip(&proto.Request{Type: proto.ReqHello, Tenant: opts.Tenant}); err != nil {
			nc.Close()
			return nil, err
		}
	}
	return c, nil
}

// newConn wraps an established connection in a session.
func newConn(nc net.Conn) *Conn {
	return &Conn{
		c:  nc,
		br: bufio.NewReaderSize(nc, 64<<10),
		bw: bufio.NewWriterSize(nc, 64<<10),
	}
}

// Close closes the connection. Transactions still open server-side are
// rolled back by the session teardown.
func (c *Conn) Close() error { return c.c.Close() }

// roundTrip writes one request, flushes, and reads one response,
// converting RespError into *Error. Request frames encode into the
// connection's reused scratch, so a steady-state round trip allocates
// only the decoded response.
func (c *Conn) roundTrip(r *proto.Request) (proto.Response, error) {
	frame, err := proto.AppendRequest(c.wbuf[:0], r)
	if err != nil {
		return proto.Response{}, err
	}
	if err := c.send(frame); err != nil {
		return proto.Response{}, err
	}
	resp, err := c.recv()
	if err == nil && resp.Type == proto.RespError {
		err = &Error{Code: resp.Code, Msg: resp.Msg}
	}
	return resp, err
}

// send writes frames, encoded into the connection's write scratch, and
// flushes them, keeping the scratch unless it grew past maxRetainedBuf.
func (c *Conn) send(frames []byte) error {
	if cap(frames) <= maxRetainedBuf {
		c.wbuf = frames
	} else {
		c.wbuf = nil
	}
	if _, err := c.bw.Write(frames); err != nil {
		return err
	}
	return c.bw.Flush()
}

// recv reads and decodes one response frame through the connection's read
// scratch (decoded responses never alias the payload).
func (c *Conn) recv() (proto.Response, error) {
	payload, err := proto.ReadFrameBuf(c.br, c.rbuf)
	if err != nil {
		return proto.Response{}, err
	}
	if cap(payload) <= maxRetainedBuf {
		c.rbuf = payload
	} else {
		c.rbuf = nil
	}
	return proto.DecodeResponse(payload)
}

// Ping round-trips a no-op.
func (c *Conn) Ping() error {
	_, err := c.roundTrip(&proto.Request{Type: proto.ReqPing})
	return err
}

// LSN returns the node's replication watermark: its last written LSN on a
// leader, its applied LSN on a follower. Reads against a follower are
// consistent as of its watermark.
func (c *Conn) LSN() (uint64, error) {
	resp, err := c.roundTrip(&proto.Request{Type: proto.ReqLSN})
	if err != nil {
		return 0, err
	}
	return resp.LSN, nil
}

// Point returns the rows where column col equals v.
func (c *Conn) Point(table string, col int, v float64) ([][]float64, error) {
	resp, err := c.roundTrip(&proto.Request{
		Type: proto.ReqPoint, Table: table, Col: uint16(col), Lo: v,
	})
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

// Range returns the rows where column col is in [lo, hi].
func (c *Conn) Range(table string, col int, lo, hi float64) ([][]float64, error) {
	resp, err := c.roundTrip(&proto.Request{
		Type: proto.ReqRange, Table: table, Col: uint16(col), Lo: lo, Hi: hi,
	})
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

// Range2 returns the rows matching both column ranges conjunctively.
func (c *Conn) Range2(table string, col int, lo, hi float64, bcol int, blo, bhi float64) ([][]float64, error) {
	resp, err := c.roundTrip(&proto.Request{
		Type: proto.ReqRange2, Table: table,
		Col: uint16(col), Lo: lo, Hi: hi,
		BCol: uint16(bcol), BLo: blo, BHi: bhi,
	})
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

// Insert appends a row.
func (c *Conn) Insert(table string, row []float64) error {
	_, err := c.roundTrip(&proto.Request{Type: proto.ReqInsert, Table: table, Row: row})
	return err
}

// Update sets column col of the row with primary key pk to v.
func (c *Conn) Update(table string, pk float64, col int, v float64) error {
	_, err := c.roundTrip(&proto.Request{
		Type: proto.ReqUpdate, Table: table, PK: pk, Col: uint16(col), Value: v,
	})
	return err
}

// Delete removes the row with primary key pk, reporting whether it existed.
func (c *Conn) Delete(table string, pk float64) (bool, error) {
	resp, err := c.roundTrip(&proto.Request{Type: proto.ReqDelete, Table: table, PK: pk})
	if err != nil {
		return false, err
	}
	return resp.Found, nil
}

// CreateTable creates a table in the session's namespace. parts 0 makes a
// plain table; parts >= 1 a hash-partitioned one.
func (c *Conn) CreateTable(table string, cols []string, pkCol, parts int) error {
	_, err := c.roundTrip(&proto.Request{
		Type: proto.ReqCreateTable, Table: table, Cols: cols,
		PKCol: uint16(pkCol), Parts: uint16(parts),
	})
	return err
}

// CreateBTreeIndex creates a complete B+-tree index on col.
func (c *Conn) CreateBTreeIndex(table string, col int) error {
	_, err := c.roundTrip(&proto.Request{
		Type: proto.ReqCreateIndex, Table: table, Kind: proto.IndexBTree, Col: uint16(col),
	})
	return err
}

// CreateHermitIndex creates a succinct Hermit index on col hosted by the
// complete index on host.
func (c *Conn) CreateHermitIndex(table string, col, host int) error {
	_, err := c.roundTrip(&proto.Request{
		Type: proto.ReqCreateIndex, Table: table, Kind: proto.IndexHermit,
		Col: uint16(col), Host: uint16(host),
	})
	return err
}
