// Package proto is the hermitd wire protocol: length-prefixed binary
// frames carrying versioned request/response messages for the full
// operation surface (point/range/range2 queries, insert/update/delete,
// atomic batches, txn-begin/commit/rollback, DDL, hello/ping).
//
// Layering: this package knows nothing about sockets, sessions or the
// engine — it only turns messages into bytes and back. internal/server
// speaks it on the server side, internal/client on the client side, and
// the framing is strict enough to fuzz in isolation (see fuzz_test.go).
//
// # Frame layout
//
//	u32  payload length (little-endian; 0 < length <= MaxFrame)
//	u8   protocol version (Version)
//	u8   message type
//	...  type-specific body
//
// Every multi-byte integer is little-endian; floats are IEEE-754 bits.
// Strings are u16 length + bytes; float slices are u32 count + values.
// A decoder never reads past the declared payload length, and a payload
// with trailing bytes after the body is rejected — the two properties
// that keep a pipelined stream parseable after any single bad frame is
// refused at the framing layer.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Version is the protocol version this package speaks. A frame carrying
// any other version is rejected with ErrVersion: versioned message types
// let a future server accept several versions side by side.
const Version = 1

// MaxFrame bounds a frame's payload length (16 MiB): the framing layer's
// defence against a hostile or corrupt length prefix allocating gigabytes.
const MaxFrame = 1 << 24

// maxString bounds any encoded string (table names, tenant names, error
// messages).
const maxString = 1 << 12

// Framing and decoding errors.
var (
	// ErrFrameTooLarge: the length prefix exceeds MaxFrame (or is zero).
	ErrFrameTooLarge = errors.New("proto: frame length out of range")
	// ErrVersion: the frame carries an unsupported protocol version.
	ErrVersion = errors.New("proto: unsupported protocol version")
	// ErrTruncated: the payload ended before the message body did.
	ErrTruncated = errors.New("proto: truncated message")
	// ErrTrailing: the payload continues past the message body.
	ErrTrailing = errors.New("proto: trailing bytes after message")
	// ErrBadMessage: unknown message type, nested batch, or a field out
	// of range.
	ErrBadMessage = errors.New("proto: malformed message")
)

// ReqType identifies a client-to-server message.
type ReqType uint8

// Request message types.
const (
	// ReqHello opens a session, naming the tenant namespace.
	ReqHello ReqType = 1
	// ReqPing is a no-op round trip (liveness, latency probes).
	ReqPing ReqType = 2
	// ReqPoint is a single-column equality query (Col, Lo as the value).
	ReqPoint ReqType = 3
	// ReqRange is a single-column range query (Col, [Lo, Hi]).
	ReqRange ReqType = 4
	// ReqRange2 is a conjunctive two-column range query.
	ReqRange2 ReqType = 5
	// ReqInsert appends Row to Table.
	ReqInsert ReqType = 6
	// ReqUpdate sets column Col of the row with primary key PK to Value.
	ReqUpdate ReqType = 7
	// ReqDelete removes the row with primary key PK.
	ReqDelete ReqType = 8
	// ReqBatch executes Ops as one atomic batch (see engine.ExecBatch).
	ReqBatch ReqType = 9
	// ReqTxnBegin opens a server-side transaction; the response carries
	// its id, which subsequent requests reference via Txn.
	ReqTxnBegin ReqType = 10
	// ReqTxnCommit commits the transaction Txn.
	ReqTxnCommit ReqType = 11
	// ReqTxnRollback discards the transaction Txn.
	ReqTxnRollback ReqType = 12
	// ReqCreateTable creates a table (Cols, PKCol) in the session tenant's
	// namespace.
	ReqCreateTable ReqType = 13
	// ReqCreateIndex creates an index (Kind, Col, Host) on Table.
	ReqCreateIndex ReqType = 14
)

// IndexKind selects the index mechanism in a ReqCreateIndex.
type IndexKind uint8

// Index kinds a client can request.
const (
	// IndexBTree is a complete secondary B+-tree.
	IndexBTree IndexKind = 0
	// IndexHermit is a succinct Hermit index on Col through host Host.
	IndexHermit IndexKind = 1
)

// Request is one decoded client-to-server message. Only the fields of the
// given Type are meaningful; the rest stay zero. One struct (rather than
// one type per message) keeps the server's dispatch and the batch
// encoding — Ops are Requests — flat.
type Request struct {
	Type ReqType
	// Txn references an open server-side transaction (0 = auto-commit).
	Txn uint64
	// Table names the target table in the session tenant's namespace.
	Table string
	// Col is the query/update column; Lo doubles as the point value and
	// the update/delete primary key is PK.
	Col    uint16
	Lo, Hi float64
	// BCol/BLo/BHi are the second predicate of a ReqRange2.
	BCol     uint16
	BLo, BHi float64
	// Row is the inserted row (ReqInsert).
	Row []float64
	// PK is the target primary key (ReqUpdate, ReqDelete).
	PK float64
	// Value is the new column value (ReqUpdate).
	Value float64
	// Ops are the batch operations (ReqBatch; no nested batches).
	Ops []Request
	// Tenant is the namespace a ReqHello binds the session to.
	Tenant string
	// Cols, PKCol and Parts describe a ReqCreateTable (Parts 0 = plain
	// table, >= 1 = hash-partitioned).
	Cols  []string
	PKCol uint16
	Parts uint16
	// Kind and Host describe a ReqCreateIndex.
	Kind IndexKind
	Host uint16
	// LSN, Epoch and Follower are the replication fields: the resume /
	// acked LSN (ReqReplSubscribe, ReqReplAck), the leader epoch the
	// sender last followed (ReqReplSubscribe), and the follower's stable
	// id (both).
	LSN      uint64
	Epoch    uint64
	Follower string
}

// RespType identifies a server-to-client message.
type RespType uint8

// Response message types.
const (
	// RespOK acknowledges a request with no payload.
	RespOK RespType = 64
	// RespRows carries a query's matching rows.
	RespRows RespType = 65
	// RespFound carries a delete's found flag.
	RespFound RespType = 66
	// RespTxn carries a fresh transaction id.
	RespTxn RespType = 67
	// RespBatch carries one nested response per batch op.
	RespBatch RespType = 68
	// RespError reports a failure (Code + Msg).
	RespError RespType = 69
)

// ErrCode classifies a RespError so clients can map failures onto
// sentinel errors without parsing message text.
type ErrCode uint8

// Error codes.
const (
	// CodeInternal is an unclassified server-side failure.
	CodeInternal ErrCode = 1
	// CodeBadRequest: the request was malformed or referenced an unknown
	// message type.
	CodeBadRequest ErrCode = 2
	// CodeOverloaded: admission control shed the request (max in-flight
	// reached); the client should back off and retry.
	CodeOverloaded ErrCode = 3
	// CodeQuota: the tenant exhausted its operation quota.
	CodeQuota ErrCode = 4
	// CodeConflict: first-committer-wins write-write conflict.
	CodeConflict ErrCode = 5
	// CodeAborted: a sibling mutation aborted this op's atomic batch.
	CodeAborted ErrCode = 6
	// CodeNoTable: the named table does not exist in this namespace.
	CodeNoTable ErrCode = 7
	// CodeTxnUnknown: the referenced transaction id is not open.
	CodeTxnUnknown ErrCode = 8
	// CodeDraining: the server is shutting down and refuses new work.
	CodeDraining ErrCode = 9
	// CodeDupKey: an insert collided with an existing primary key (or a
	// create-table with an existing table).
	CodeDupKey ErrCode = 10
)

// Response is one decoded server-to-client message. Like Request, only
// the fields of the given Type are meaningful.
type Response struct {
	Type RespType
	// Rows are a query's matching rows (uniform width).
	Rows [][]float64
	// Found is a delete's outcome.
	Found bool
	// Txn is the id RespTxn returns.
	Txn uint64
	// Results are the per-op responses of a RespBatch (no nesting).
	Results []Response
	// Code and Msg describe a RespError.
	Code ErrCode
	Msg  string
	// LSN is the watermark of a RespLSN, the leader's last LSN in a
	// RespReplState, or the snapshot cut of a RespReplSnapDone; Epoch and
	// NeedSnapshot complete a RespReplState.
	LSN          uint64
	Epoch        uint64
	NeedSnapshot bool
	// Recs are a RespReplFrames batch, in strict LSN order.
	Recs []WALRecord
	// Snap is a RespReplSnapTable bootstrap chunk.
	Snap *SnapTable
}

// --- encoding ------------------------------------------------------------

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) ([]byte, error) {
	if len(s) > maxString {
		return nil, fmt.Errorf("%w: string length %d", ErrBadMessage, len(s))
	}
	b = appendU16(b, uint16(len(s)))
	return append(b, s...), nil
}

func appendFloats(b []byte, vals []float64) []byte {
	b = appendU32(b, uint32(len(vals)))
	for _, v := range vals {
		b = appendF64(b, v)
	}
	return b
}

// appendRequestBody encodes r's type byte and body. nested marks batch
// ops, which may not themselves be batches or session control messages.
func appendRequestBody(b []byte, r *Request, nested bool) ([]byte, error) {
	var err error
	b = append(b, byte(r.Type))
	if nested {
		switch r.Type {
		case ReqPoint, ReqRange, ReqRange2, ReqInsert, ReqUpdate, ReqDelete:
		default:
			return nil, fmt.Errorf("%w: type %d inside a batch", ErrBadMessage, r.Type)
		}
	}
	switch r.Type {
	case ReqHello:
		return appendStr(b, r.Tenant)
	case ReqPing, ReqTxnBegin:
		return b, nil
	case ReqPoint:
		b = appendU64(b, r.Txn)
		if b, err = appendStr(b, r.Table); err != nil {
			return nil, err
		}
		b = appendU16(b, r.Col)
		return appendF64(b, r.Lo), nil
	case ReqRange:
		b = appendU64(b, r.Txn)
		if b, err = appendStr(b, r.Table); err != nil {
			return nil, err
		}
		b = appendU16(b, r.Col)
		return appendF64(appendF64(b, r.Lo), r.Hi), nil
	case ReqRange2:
		b = appendU64(b, r.Txn)
		if b, err = appendStr(b, r.Table); err != nil {
			return nil, err
		}
		b = appendU16(b, r.Col)
		b = appendF64(appendF64(b, r.Lo), r.Hi)
		b = appendU16(b, r.BCol)
		return appendF64(appendF64(b, r.BLo), r.BHi), nil
	case ReqInsert:
		b = appendU64(b, r.Txn)
		if b, err = appendStr(b, r.Table); err != nil {
			return nil, err
		}
		return appendFloats(b, r.Row), nil
	case ReqUpdate:
		b = appendU64(b, r.Txn)
		if b, err = appendStr(b, r.Table); err != nil {
			return nil, err
		}
		b = appendF64(b, r.PK)
		b = appendU16(b, r.Col)
		return appendF64(b, r.Value), nil
	case ReqDelete:
		b = appendU64(b, r.Txn)
		if b, err = appendStr(b, r.Table); err != nil {
			return nil, err
		}
		return appendF64(b, r.PK), nil
	case ReqBatch:
		b = appendU32(b, uint32(len(r.Ops)))
		for i := range r.Ops {
			if b, err = appendRequestBody(b, &r.Ops[i], true); err != nil {
				return nil, err
			}
		}
		return b, nil
	case ReqTxnCommit, ReqTxnRollback:
		return appendU64(b, r.Txn), nil
	case ReqCreateTable:
		if b, err = appendStr(b, r.Table); err != nil {
			return nil, err
		}
		b = appendU16(b, r.PKCol)
		b = appendU16(b, r.Parts)
		b = appendU16(b, uint16(len(r.Cols)))
		for _, c := range r.Cols {
			if b, err = appendStr(b, c); err != nil {
				return nil, err
			}
		}
		return b, nil
	case ReqCreateIndex:
		if b, err = appendStr(b, r.Table); err != nil {
			return nil, err
		}
		b = append(b, byte(r.Kind))
		b = appendU16(b, r.Col)
		return appendU16(b, r.Host), nil
	case ReqLSN:
		return b, nil
	case ReqReplSubscribe:
		b = appendU64(b, r.LSN)
		b = appendU64(b, r.Epoch)
		return appendStr(b, r.Follower)
	case ReqReplAck:
		b = appendU64(b, r.LSN)
		return appendStr(b, r.Follower)
	default:
		return nil, fmt.Errorf("%w: unknown request type %d", ErrBadMessage, r.Type)
	}
}

// appendResponseBody encodes r's type byte and body.
func appendResponseBody(b []byte, r *Response, nested bool) ([]byte, error) {
	var err error
	b = append(b, byte(r.Type))
	if nested && r.Type == RespBatch {
		return nil, fmt.Errorf("%w: nested batch response", ErrBadMessage)
	}
	switch r.Type {
	case RespOK:
		return b, nil
	case RespRows:
		width := 0
		if len(r.Rows) > 0 {
			width = len(r.Rows[0])
		}
		b = appendU32(b, uint32(len(r.Rows)))
		b = appendU16(b, uint16(width))
		for _, row := range r.Rows {
			if len(row) != width {
				return nil, fmt.Errorf("%w: ragged row set", ErrBadMessage)
			}
			for _, v := range row {
				b = appendF64(b, v)
			}
		}
		return b, nil
	case RespFound:
		if r.Found {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case RespTxn:
		return appendU64(b, r.Txn), nil
	case RespBatch:
		b = appendU32(b, uint32(len(r.Results)))
		for i := range r.Results {
			if b, err = appendResponseBody(b, &r.Results[i], true); err != nil {
				return nil, err
			}
		}
		return b, nil
	case RespError:
		b = append(b, byte(r.Code))
		return appendStr(b, r.Msg)
	case RespLSN, RespReplSnapDone:
		return appendU64(b, r.LSN), nil
	case RespReplState:
		b = appendU64(b, r.LSN)
		b = appendU64(b, r.Epoch)
		if r.NeedSnapshot {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case RespReplFrames:
		b = appendU32(b, uint32(len(r.Recs)))
		for i := range r.Recs {
			if b, err = appendWALRecord(b, &r.Recs[i]); err != nil {
				return nil, err
			}
		}
		return b, nil
	case RespReplSnapTable:
		if r.Snap == nil {
			return nil, fmt.Errorf("%w: snapshot chunk without table", ErrBadMessage)
		}
		return appendSnapTable(b, r.Snap)
	default:
		return nil, fmt.Errorf("%w: unknown response type %d", ErrBadMessage, r.Type)
	}
}

// AppendRequest appends r as one complete frame (length prefix included).
// The message encodes directly into dst — reserve the prefix, append the
// body, patch the length — so a caller reusing dst across frames encodes
// without any intermediate allocation.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	start := len(dst)
	dst = appendU32(dst, 0) // length, patched below
	out, err := appendRequestBody(append(dst, Version), r, false)
	if err != nil {
		return nil, err
	}
	return patchFrameLen(out, start)
}

// AppendResponse appends r as one complete frame (length prefix
// included), encoding directly into dst (see AppendRequest).
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	start := len(dst)
	dst = appendU32(dst, 0) // length, patched below
	out, err := appendResponseBody(append(dst, Version), r, false)
	if err != nil {
		return nil, err
	}
	return patchFrameLen(out, start)
}

// patchFrameLen writes the payload length into the prefix reserved at
// start, validating it against MaxFrame.
func patchFrameLen(b []byte, start int) ([]byte, error) {
	n := len(b) - start - 4
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(b[start:start+4], uint32(n))
	return b, nil
}

// WriteRequest writes r to w as one frame.
func WriteRequest(w io.Writer, r *Request) error {
	b, err := AppendRequest(nil, r)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WriteResponse writes r to w as one frame.
func WriteResponse(w io.Writer, r *Response) error {
	b, err := AppendResponse(nil, r)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// --- decoding ------------------------------------------------------------

// cursor is a bounds-checked little-endian reader over one payload. Every
// accessor reports truncation through the sticky err instead of panicking
// or reading out of range — the property FuzzDecodeFrame pins.
type cursor struct {
	b   []byte
	off int
	err error
	// dec is the Decoder a request is decoded through (nil: DecodeRequest,
	// DecodeResponse): it supplies table names and insert rows.
	dec *Decoder
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = ErrTruncated
	}
}

func (c *cursor) take(n int) []byte {
	if c.err != nil || n < 0 || len(c.b)-c.off < n {
		c.fail()
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

func (c *cursor) u8() uint8 {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *cursor) u16() uint16 {
	if b := c.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cursor) str() string { return string(c.strBytes()) }

// strBytes reads a u16-counted string's bytes (nil on error), aliasing the
// payload.
func (c *cursor) strBytes() []byte {
	n := int(c.u16())
	if n > maxString {
		if c.err == nil {
			c.err = fmt.Errorf("%w: string length %d", ErrBadMessage, n)
		}
		return nil
	}
	return c.take(n)
}

// table reads a request's table name. Through a Decoder it returns the
// previous name again when the bytes match it, so a connection that keeps
// naming one table copies the name once.
func (c *cursor) table() string {
	b := c.strBytes()
	d := c.dec
	if d == nil {
		return string(b)
	}
	if string(b) != d.table {
		d.table = string(b)
	}
	return d.table
}

// floats reads a u32-counted float slice, validating the count against the
// remaining bytes before allocating (a hostile count cannot force a huge
// allocation).
func (c *cursor) floats() []float64 {
	n := int(c.u32())
	if c.err != nil {
		return nil
	}
	if len(c.b)-c.off < n*8 || n < 0 {
		c.fail()
		return nil
	}
	out := c.dec.row(n)
	for i := range out {
		out[i] = c.f64()
	}
	return out
}

// Decoder decodes the request frames of one connection, in order. It
// decodes exactly what DecodeRequest does, with two fewer copies: a table
// name equal to the previous request's is that same string, and an insert
// row of at most slabFloats floats is carved out of a slab the Decoder
// allocates slabFloats at a time and never reuses, so a decoded request
// stays valid for as long as it is held — the rows of requests still
// queued are never written over. The engine copies a row into its table
// (storage.Table.Insert, Txn.Insert), so a slab is garbage once the
// requests carved from it have run. A Decoder is not safe for concurrent
// use; its zero value is ready.
type Decoder struct {
	table string
	slab  []float64
}

// slabFloats is a Decoder's slab, 4 KiB of rows, and the widest row
// carved from one; a wider row is its own allocation.
const slabFloats = 512

// Decode parses one request frame payload, like DecodeRequest. A nil
// Decoder is DecodeRequest.
func (d *Decoder) Decode(payload []byte) (Request, error) {
	c, err := payloadCursor(payload)
	if err != nil {
		return Request{}, err
	}
	c.dec = d
	r, err := decodeRequestBody(&c, false)
	if err != nil {
		return r, err
	}
	return r, c.done()
}

// row returns n floats for a decoded row, cap-limited so that appending
// to one row can never reach the next. A nil Decoder allocates each row.
func (d *Decoder) row(n int) []float64 {
	if d == nil || n == 0 || n > slabFloats {
		return make([]float64, n)
	}
	if len(d.slab) < n {
		d.slab = make([]float64, slabFloats)
	}
	out := d.slab[:n:n]
	d.slab = d.slab[n:]
	return out
}

// done rejects payloads with bytes left over after the message body.
func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return ErrTrailing
	}
	return nil
}

// decodeRequestBody parses one type byte + body from c.
func decodeRequestBody(c *cursor, nested bool) (Request, error) {
	var r Request
	r.Type = ReqType(c.u8())
	if nested {
		switch r.Type {
		case ReqPoint, ReqRange, ReqRange2, ReqInsert, ReqUpdate, ReqDelete:
		default:
			return r, fmt.Errorf("%w: type %d inside a batch", ErrBadMessage, r.Type)
		}
	}
	switch r.Type {
	case ReqHello:
		r.Tenant = c.str()
	case ReqPing, ReqTxnBegin:
	case ReqPoint:
		r.Txn, r.Table, r.Col, r.Lo = c.u64(), c.table(), c.u16(), c.f64()
	case ReqRange:
		r.Txn, r.Table, r.Col = c.u64(), c.table(), c.u16()
		r.Lo, r.Hi = c.f64(), c.f64()
	case ReqRange2:
		r.Txn, r.Table, r.Col = c.u64(), c.table(), c.u16()
		r.Lo, r.Hi = c.f64(), c.f64()
		r.BCol, r.BLo, r.BHi = c.u16(), c.f64(), c.f64()
	case ReqInsert:
		r.Txn, r.Table, r.Row = c.u64(), c.table(), c.floats()
	case ReqUpdate:
		r.Txn, r.Table, r.PK = c.u64(), c.table(), c.f64()
		r.Col, r.Value = c.u16(), c.f64()
	case ReqDelete:
		r.Txn, r.Table, r.PK = c.u64(), c.table(), c.f64()
	case ReqBatch:
		n := int(c.u32())
		// Each op carries at least a type byte: a count beyond the
		// remaining bytes is structurally impossible.
		if c.err == nil && (n < 0 || n > len(c.b)-c.off) {
			return r, fmt.Errorf("%w: batch op count %d", ErrBadMessage, n)
		}
		for i := 0; i < n && c.err == nil; i++ {
			op, err := decodeRequestBody(c, true)
			if err != nil {
				return r, err
			}
			r.Ops = append(r.Ops, op)
		}
	case ReqTxnCommit, ReqTxnRollback:
		r.Txn = c.u64()
	case ReqCreateTable:
		r.Table, r.PKCol, r.Parts = c.str(), c.u16(), c.u16()
		n := int(c.u16())
		for i := 0; i < n && c.err == nil; i++ {
			r.Cols = append(r.Cols, c.str())
		}
	case ReqCreateIndex:
		r.Table = c.str()
		r.Kind = IndexKind(c.u8())
		r.Col, r.Host = c.u16(), c.u16()
		if c.err == nil && r.Kind > IndexHermit {
			return r, fmt.Errorf("%w: index kind %d", ErrBadMessage, r.Kind)
		}
	case ReqLSN:
	case ReqReplSubscribe:
		r.LSN, r.Epoch, r.Follower = c.u64(), c.u64(), c.str()
	case ReqReplAck:
		r.LSN, r.Follower = c.u64(), c.str()
	default:
		return r, fmt.Errorf("%w: unknown request type %d", ErrBadMessage, r.Type)
	}
	return r, c.err
}

// decodeResponseBody parses one type byte + body from c.
func decodeResponseBody(c *cursor, nested bool) (Response, error) {
	var r Response
	r.Type = RespType(c.u8())
	if nested && r.Type == RespBatch {
		return r, fmt.Errorf("%w: nested batch response", ErrBadMessage)
	}
	switch r.Type {
	case RespOK:
	case RespRows:
		n, width := int(c.u32()), int(c.u16())
		if c.err == nil && (n < 0 || width < 0 || (width > 0 && n > (len(c.b)-c.off)/(width*8))) {
			c.fail()
			return r, c.err
		}
		if c.err == nil && width == 0 && n != 0 {
			return r, fmt.Errorf("%w: %d zero-width rows", ErrBadMessage, n)
		}
		if c.err != nil || n == 0 {
			break
		}
		// One backing array for every row, each row cap-limited: a
		// response costs two allocations, not one per row.
		flat := make([]float64, n*width)
		for i := range flat {
			flat[i] = c.f64()
		}
		r.Rows = make([][]float64, n)
		for i := range r.Rows {
			r.Rows[i] = flat[i*width : (i+1)*width : (i+1)*width]
		}
	case RespFound:
		r.Found = c.u8() != 0
	case RespTxn:
		r.Txn = c.u64()
	case RespBatch:
		n := int(c.u32())
		if c.err == nil && (n < 0 || n > len(c.b)-c.off) {
			return r, fmt.Errorf("%w: batch result count %d", ErrBadMessage, n)
		}
		for i := 0; i < n && c.err == nil; i++ {
			res, err := decodeResponseBody(c, true)
			if err != nil {
				return r, err
			}
			r.Results = append(r.Results, res)
		}
	case RespError:
		r.Code = ErrCode(c.u8())
		r.Msg = c.str()
	case RespLSN, RespReplSnapDone:
		r.LSN = c.u64()
	case RespReplState:
		r.LSN = c.u64()
		r.Epoch = c.u64()
		r.NeedSnapshot = c.u8() != 0
	case RespReplFrames:
		n := int(c.u32())
		// Each record carries at least its fixed header: a count beyond
		// the remaining bytes is structurally impossible.
		if c.err == nil && (n < 0 || n > len(c.b)-c.off) {
			return r, fmt.Errorf("%w: frame batch count %d", ErrBadMessage, n)
		}
		last := uint64(0)
		for i := 0; i < n && c.err == nil; i++ {
			rec := decodeWALRecord(c)
			if c.err != nil {
				break
			}
			// The stream invariant — strictly increasing LSNs — is checked
			// at the framing layer so a corrupt batch is refused whole,
			// before any record could be applied.
			if rec.LSN <= last {
				return r, fmt.Errorf("%w: frame batch LSN %d after %d", ErrBadMessage, rec.LSN, last)
			}
			last = rec.LSN
			r.Recs = append(r.Recs, rec)
		}
	case RespReplSnapTable:
		st, err := decodeSnapTable(c)
		if err != nil {
			return r, err
		}
		r.Snap = st
	default:
		return r, fmt.Errorf("%w: unknown response type %d", ErrBadMessage, r.Type)
	}
	return r, c.err
}

// DecodeRequest parses one frame payload (version byte onward — the bytes
// ReadFrame returns). The whole payload must be consumed. Decoded
// messages never alias the payload (strings, float slices and blobs are
// all copied out), so the caller may reuse the payload buffer.
func DecodeRequest(payload []byte) (Request, error) {
	var d *Decoder
	return d.Decode(payload)
}

// DecodeResponse parses one frame payload (version byte onward). Like
// DecodeRequest, the result never aliases the payload.
func DecodeResponse(payload []byte) (Response, error) {
	c, err := payloadCursor(payload)
	if err != nil {
		return Response{}, err
	}
	r, err := decodeResponseBody(&c, false)
	if err != nil {
		return r, err
	}
	return r, c.done()
}

// payloadCursor validates the version byte and positions a cursor over
// the body. The cursor is a value (it never escapes the decode call), so
// setting one up costs no allocation.
func payloadCursor(payload []byte) (cursor, error) {
	if len(payload) == 0 {
		return cursor{}, ErrTruncated
	}
	if payload[0] != Version {
		return cursor{}, fmt.Errorf("%w: %d", ErrVersion, payload[0])
	}
	return cursor{b: payload[1:]}, nil
}

// ReadFrame reads exactly one frame from r and returns its payload
// (version byte onward). It reads the 4-byte length prefix and then
// exactly that many bytes — never more, so a bad frame cannot desync the
// caller's stream position past its own declared length.
func ReadFrame(r io.Reader) ([]byte, error) {
	return ReadFrameBuf(r, nil)
}

// ReadFrameBuf is ReadFrame into a caller-supplied buffer: the payload
// lands in buf when it fits (buf is grown otherwise — never past
// MaxFrame, which the length prefix is checked against first) and the
// filled slice is returned. Decoded messages never alias the payload, so
// one buffer can serve a connection's whole read loop.
func ReadFrameBuf(r io.Reader, buf []byte) ([]byte, error) {
	// The length prefix lands in buf too: a header array would escape
	// through the io.Reader and cost an allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	buf = buf[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n == 0 || n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// ReadRequest reads and decodes one request frame.
func ReadRequest(r io.Reader) (Request, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return Request{}, err
	}
	return DecodeRequest(payload)
}

// ReadResponse reads and decodes one response frame.
func ReadResponse(r io.Reader) (Response, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return Response{}, err
	}
	return DecodeResponse(payload)
}
