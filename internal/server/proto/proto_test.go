package proto

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// sampleRequests covers every request type with non-trivial field values,
// including the edge encodings (NaN/Inf floats, empty rows, empty batch).
func sampleRequests() []Request {
	return []Request{
		{Type: ReqHello, Tenant: "acme"},
		{Type: ReqHello, Tenant: ""},
		{Type: ReqPing},
		{Type: ReqPoint, Txn: 7, Table: "users", Col: 2, Lo: 42.5},
		{Type: ReqRange, Table: "t", Col: 0, Lo: math.Inf(-1), Hi: math.Inf(1)},
		{Type: ReqRange2, Txn: 1, Table: "t", Col: 1, Lo: -3, Hi: 9, BCol: 4, BLo: 0.25, BHi: 0.75},
		{Type: ReqInsert, Table: "t", Row: []float64{1, 2, 3, math.NaN()}},
		{Type: ReqInsert, Table: "t", Row: []float64{}},
		{Type: ReqUpdate, Txn: 99, Table: "t", PK: 12, Col: 3, Value: -7.5},
		{Type: ReqDelete, Table: "t", PK: 8},
		{Type: ReqBatch, Ops: []Request{
			{Type: ReqInsert, Table: "a", Row: []float64{1, 2}},
			{Type: ReqDelete, Table: "a", PK: 1},
			{Type: ReqPoint, Table: "b", Col: 0, Lo: 5},
		}},
		{Type: ReqBatch},
		{Type: ReqTxnBegin},
		{Type: ReqTxnCommit, Txn: 3},
		{Type: ReqTxnRollback, Txn: 4},
		{Type: ReqCreateTable, Table: "t", PKCol: 1, Cols: []string{"id", "x", "y"}},
		{Type: ReqCreateTable, Table: "p", PKCol: 0, Parts: 4, Cols: []string{"id", "x"}},
		{Type: ReqCreateIndex, Table: "t", Kind: IndexHermit, Col: 2, Host: 1},
		{Type: ReqCreateIndex, Table: "t", Kind: IndexBTree, Col: 1},
		{Type: ReqLSN},
		{Type: ReqReplSubscribe, LSN: 42, Epoch: 3, Follower: "replica-1"},
		{Type: ReqReplSubscribe},
		{Type: ReqReplAck, LSN: 17, Follower: "replica-1"},
	}
}

// sampleResponses covers every response type.
func sampleResponses() []Response {
	return []Response{
		{Type: RespOK},
		{Type: RespRows, Rows: [][]float64{{1, 2, 3}, {4, 5, math.Inf(1)}}},
		{Type: RespRows},
		{Type: RespFound, Found: true},
		{Type: RespFound, Found: false},
		{Type: RespTxn, Txn: 123456789},
		{Type: RespBatch, Results: []Response{
			{Type: RespOK},
			{Type: RespError, Code: CodeConflict, Msg: "write conflict"},
			{Type: RespRows, Rows: [][]float64{{9}}},
		}},
		{Type: RespBatch},
		{Type: RespError, Code: CodeOverloaded, Msg: "backpressure"},
		{Type: RespError, Code: CodeNotLeader, Msg: "read-only follower"},
		{Type: RespError, Code: CodeFenced, Msg: "stale epoch"},
		{Type: RespLSN, LSN: 99},
		{Type: RespReplState, LSN: 1000, Epoch: 5, NeedSnapshot: true},
		{Type: RespReplState},
		{Type: RespReplFrames, Recs: []WALRecord{
			{LSN: 1, Op: 8, Txn: 9},
			{LSN: 2, Op: 1, Part: 3, Txn: 9, Table: "t#1", Payload: []byte{1, 2, 3}},
			{LSN: 3, Op: 9, Txn: 9, Payload: []byte{}},
		}},
		{Type: RespReplFrames},
		{Type: RespReplSnapTable, Snap: &SnapTable{
			Name: "t", Cols: []string{"id", "x"}, PKCol: 0, Parts: 2,
			DefsJSON: []byte(`[{"kind":"btree","col":1}]`),
			Rows:     [][]float64{{1, 2}, {3, math.NaN()}},
		}},
		{Type: RespReplSnapTable, Snap: &SnapTable{Name: "empty", Cols: []string{"id"}}},
		{Type: RespReplSnapDone, LSN: 4096},
	}
}

// eqFloat compares with NaN == NaN (encode/decode must preserve NaN).
func eqFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func eqRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !eqFloat(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// eqRequest compares requests field-by-field, tolerating nil-vs-empty
// slices and NaN row values.
func eqRequest(a, b Request) bool {
	if a.Type != b.Type || a.Txn != b.Txn || a.Table != b.Table || a.Tenant != b.Tenant ||
		a.Col != b.Col || a.BCol != b.BCol || a.PKCol != b.PKCol || a.Parts != b.Parts ||
		a.Kind != b.Kind || a.Host != b.Host ||
		a.LSN != b.LSN || a.Epoch != b.Epoch || a.Follower != b.Follower ||
		!eqFloat(a.Lo, b.Lo) || !eqFloat(a.Hi, b.Hi) ||
		!eqFloat(a.BLo, b.BLo) || !eqFloat(a.BHi, b.BHi) ||
		!eqFloat(a.PK, b.PK) || !eqFloat(a.Value, b.Value) {
		return false
	}
	if !eqRows([][]float64{a.Row}, [][]float64{b.Row}) {
		return false
	}
	if len(a.Cols) != len(b.Cols) || (len(a.Cols) > 0 && !reflect.DeepEqual(a.Cols, b.Cols)) {
		return false
	}
	if len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		if !eqRequest(a.Ops[i], b.Ops[i]) {
			return false
		}
	}
	return true
}

func eqResponse(a, b Response) bool {
	if a.Type != b.Type || a.Found != b.Found || a.Txn != b.Txn ||
		a.Code != b.Code || a.Msg != b.Msg ||
		a.LSN != b.LSN || a.Epoch != b.Epoch || a.NeedSnapshot != b.NeedSnapshot {
		return false
	}
	if !eqRows(a.Rows, b.Rows) {
		return false
	}
	if len(a.Recs) != len(b.Recs) {
		return false
	}
	for i := range a.Recs {
		if !eqWALRecord(a.Recs[i], b.Recs[i]) {
			return false
		}
	}
	if (a.Snap == nil) != (b.Snap == nil) {
		return false
	}
	if a.Snap != nil && !eqSnapTable(*a.Snap, *b.Snap) {
		return false
	}
	if len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		if !eqResponse(a.Results[i], b.Results[i]) {
			return false
		}
	}
	return true
}

func TestRequestRoundTrip(t *testing.T) {
	for i, req := range sampleRequests() {
		frame, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatalf("request %d: encode: %v", i, err)
		}
		got, err := ReadRequest(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("request %d: decode: %v", i, err)
		}
		if !eqRequest(req, got) {
			t.Fatalf("request %d: round trip mismatch\n in: %+v\nout: %+v", i, req, got)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for i, resp := range sampleResponses() {
		frame, err := AppendResponse(nil, &resp)
		if err != nil {
			t.Fatalf("response %d: encode: %v", i, err)
		}
		got, err := ReadResponse(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("response %d: decode: %v", i, err)
		}
		if !eqResponse(resp, got) {
			t.Fatalf("response %d: round trip mismatch\n in: %+v\nout: %+v", i, resp, got)
		}
	}
}

// TestStreamRoundTrip writes every sample message into one buffer and
// reads them back in order: the framing keeps a pipelined stream aligned.
func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	reqs := sampleRequests()
	for i := range reqs {
		if err := WriteRequest(&buf, &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range reqs {
		got, err := ReadRequest(&buf)
		if err != nil {
			t.Fatalf("stream request %d: %v", i, err)
		}
		if !eqRequest(reqs[i], got) {
			t.Fatalf("stream request %d mismatch", i)
		}
	}
	if _, err := ReadRequest(&buf); err != io.EOF {
		t.Fatalf("drained stream: want io.EOF, got %v", err)
	}
}

// TestTruncationSweep cuts every sample frame at every possible byte
// length: decoding a truncated frame must fail cleanly (no panic, no
// misparse into success) and ReadFrame must never read past the declared
// length.
func TestTruncationSweep(t *testing.T) {
	check := func(t *testing.T, frame []byte, decode func([]byte) error) {
		t.Helper()
		for cut := 0; cut < len(frame); cut++ {
			r := bytes.NewReader(frame[:cut])
			payload, err := ReadFrame(r)
			if err == nil {
				// A cut inside the trailing frame can only succeed if the
				// truncation landed exactly on... nothing: the frame is the
				// whole input, so any cut must fail.
				t.Fatalf("cut %d: ReadFrame succeeded on truncated frame", cut)
			}
			_ = payload
			// Decoding the truncated payload (without the length prefix)
			// must also fail cleanly.
			if cut > 4 {
				if err := decode(frame[4:cut]); err == nil {
					t.Fatalf("cut %d: decode succeeded on truncated payload", cut)
				}
			}
		}
		// Trailing garbage after a valid body must be rejected too.
		if err := decode(append(append([]byte(nil), frame[4:]...), 0xde)); !errors.Is(err, ErrTrailing) && err == nil {
			t.Fatal("trailing byte accepted")
		}
	}
	for i, req := range sampleRequests() {
		frame, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		t.Run("", func(t *testing.T) {
			_ = i
			check(t, frame, func(p []byte) error { _, err := DecodeRequest(p); return err })
		})
	}
	for _, resp := range sampleResponses() {
		frame, err := AppendResponse(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		check(t, frame, func(p []byte) error { _, err := DecodeResponse(p); return err })
	}
}

func TestFrameLimits(t *testing.T) {
	// Zero-length and oversized length prefixes are rejected without
	// allocating the declared size.
	for _, hdr := range [][]byte{
		{0, 0, 0, 0},
		{0xff, 0xff, 0xff, 0xff},
		{1, 0, 0, 2}, // 2<<24 + 1 > MaxFrame
	} {
		if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("header % x: want ErrFrameTooLarge, got %v", hdr, err)
		}
	}
	// Unknown protocol version.
	req := Request{Type: ReqPing}
	frame, err := AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	frame[4] = 99
	if _, err := ReadRequest(bytes.NewReader(frame)); !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestEncodeRejectsBadMessages(t *testing.T) {
	cases := []Request{
		{Type: ReqType(200)},
		{Type: ReqBatch, Ops: []Request{{Type: ReqTxnBegin}}},
		{Type: ReqBatch, Ops: []Request{{Type: ReqBatch}}},
		{Type: ReqPoint, Table: string(make([]byte, maxString+1))},
	}
	for i, req := range cases {
		if _, err := AppendRequest(nil, &req); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("case %d: want ErrBadMessage, got %v", i, err)
		}
	}
	resps := []Response{
		{Type: RespType(7)},
		{Type: RespBatch, Results: []Response{{Type: RespBatch}}},
		{Type: RespRows, Rows: [][]float64{{1, 2}, {3}}},
	}
	for i, resp := range resps {
		if _, err := AppendResponse(nil, &resp); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("response case %d: want ErrBadMessage, got %v", i, err)
		}
	}
}

// TestDecodedRowsAreCapLimited: the rows of a response share one backing
// array, so each must be cap-limited — appending to row i reallocates it
// and leaves row i+1 as it was.
func TestDecodedRowsAreCapLimited(t *testing.T) {
	in := Response{Type: RespRows, Rows: [][]float64{{1, 2}, {3, 4}, {5, 6}}}
	frame, err := AppendResponse(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range len(got.Rows) - 1 {
		if cap(got.Rows[i]) != len(got.Rows[i]) {
			t.Fatalf("row %d: cap %d, len %d", i, cap(got.Rows[i]), len(got.Rows[i]))
		}
		got.Rows[i] = append(got.Rows[i], -1)
		if !eqRows(got.Rows[i+1:], in.Rows[i+1:]) {
			t.Fatalf("appending to row %d changed the rows after it: %v", i, got.Rows)
		}
	}
}

// TestDecoderRows: rows a Decoder carves from its slab stay as decoded
// while later requests are decoded (the slab is never reused), a row wider
// than a slab is decoded all the same, and the table name is one string
// for as long as it does not change.
func TestDecoderRows(t *testing.T) {
	var dec Decoder
	var held []Request
	for i := range 3 * slabFloats {
		width := 1 + i%7
		if i == slabFloats {
			width = slabFloats + 1
		}
		req := Request{Type: ReqInsert, Table: "t", Row: make([]float64, width)}
		for j := range req.Row {
			req.Row[j] = float64(i*1000 + j)
		}
		frame, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(frame[4:])
		if err != nil || !eqRequest(got, req) || cap(got.Row) != len(got.Row) {
			t.Fatalf("insert %d: decoded %v (cap %d, err %v)", i, got.Row, cap(got.Row), err)
		}
		held = append(held, got)
	}
	for i, r := range held {
		for j, v := range r.Row {
			if v != float64(i*1000+j) {
				t.Fatalf("insert %d: row changed after later decodes: %v", i, r.Row)
			}
		}
		if unsafe.StringData(r.Table) != unsafe.StringData(held[0].Table) {
			t.Fatalf("insert %d: the unchanged table name was copied again", i)
		}
	}
	frame, _ := AppendRequest(nil, &Request{Type: ReqDelete, Table: "u", PK: 1})
	if got, err := dec.Decode(frame[4:]); err != nil || got.Table != "u" {
		t.Fatalf("a new table name: decoded %+v (%v)", got, err)
	}
}

// TestDecodeRejectsHostileCounts feeds payloads whose declared element
// counts exceed the bytes that could back them: the decoder must reject
// them without large allocations (cannot be asserted directly, but the
// count-vs-remaining validation paths are exercised).
func TestDecodeRejectsHostileCounts(t *testing.T) {
	// Insert with a row count of 2^31 backed by no bytes.
	payload := []byte{Version, byte(ReqInsert)}
	payload = appendU64(payload, 0)
	payload, _ = appendStr(payload, "t")
	payload = appendU32(payload, 1<<31-1)
	if _, err := DecodeRequest(payload); err == nil {
		t.Fatal("hostile insert row count accepted")
	}
	// Batch claiming 2^20 ops backed by 1 byte.
	payload = []byte{Version, byte(ReqBatch)}
	payload = appendU32(payload, 1<<20)
	payload = append(payload, 0)
	if _, err := DecodeRequest(payload); err == nil {
		t.Fatal("hostile batch count accepted")
	}
	// Rows claiming a million wide rows backed by nothing.
	payload = []byte{Version, byte(RespRows)}
	payload = appendU32(payload, 1<<20)
	payload = appendU16(payload, 64)
	if _, err := DecodeResponse(payload); err == nil {
		t.Fatal("hostile rows count accepted")
	}
	// Zero-width rows with a nonzero count would loop forever if accepted.
	payload = []byte{Version, byte(RespRows)}
	payload = appendU32(payload, 5)
	payload = appendU16(payload, 0)
	if _, err := DecodeResponse(payload); !errors.Is(err, ErrBadMessage) {
		t.Fatal("zero-width nonzero-count rows accepted")
	}
}

// countingReader tracks how many bytes ReadFrame consumed from the
// underlying stream.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReadFrameNeverOverReads asserts ReadFrame consumes exactly the
// length prefix plus the declared payload — never bytes of the next
// frame — for every sample message followed by a sentinel frame.
func TestReadFrameNeverOverReads(t *testing.T) {
	for i, req := range sampleRequests() {
		frame, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		next, err := AppendRequest(nil, &Request{Type: ReqPing})
		if err != nil {
			t.Fatal(err)
		}
		cr := &countingReader{r: bytes.NewReader(append(append([]byte(nil), frame...), next...))}
		if _, err := ReadFrame(cr); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if cr.n != len(frame) {
			t.Fatalf("request %d: ReadFrame consumed %d bytes, frame is %d", i, cr.n, len(frame))
		}
	}
}
