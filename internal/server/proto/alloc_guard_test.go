package proto

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Allocation guards for the wire hot path: encoding into a reused buffer
// must not allocate at all (frames build directly in dst — reserve the
// length prefix, append the body, patch the length), and decoding must
// allocate only the copied-out message fields, never scratch.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector bookkeeping under -race")
	}
}

func TestAppendRequestZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	req := Request{Type: ReqPoint, Table: "orders", Col: 2, Lo: 17}
	buf, err := AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(200, func() {
		b, err := AppendRequest(buf[:0], &req)
		if err != nil {
			t.Fatal(err)
		}
		buf = b
	})
	if allocs != 0 {
		t.Fatalf("AppendRequest into reused buffer allocates %.2f/op, want 0", allocs)
	}
}

func TestAppendResponseZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	rows := [][]float64{{1, 2}, {3, 4}}
	resp := Response{Type: RespRows, Rows: rows}
	buf, err := AppendResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(200, func() {
		b, err := AppendResponse(buf[:0], &resp)
		if err != nil {
			t.Fatal(err)
		}
		buf = b
	})
	if allocs != 0 {
		t.Fatalf("AppendResponse into reused buffer allocates %.2f/op, want 0", allocs)
	}
}

// TestRoundTripSteadyStateAllocs pins the full encode+decode round trip
// for a point query: the only tolerated allocations are the decoded
// request's own copied-out fields (its table name), never encode or
// cursor scratch.
func TestRoundTripSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	req := Request{Type: ReqPoint, Table: "orders", Col: 2, Lo: 17}
	buf, err := AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(200, func() {
		b, err := AppendRequest(buf[:0], &req)
		if err != nil {
			t.Fatal(err)
		}
		buf = b
		got, err := DecodeRequest(buf[4:]) // past the length prefix
		if err != nil || got.Table != "orders" {
			t.Fatalf("decode: %v %+v", err, got)
		}
	})
	// One allocation: the decoded Table string (copied out of the payload
	// so the frame buffer can be reused).
	if allocs > 1 {
		t.Fatalf("point-read round trip allocates %.2f/op, want <= 1", allocs)
	}
}

// allocsPer is testing.AllocsPerRun without its rounding down to a whole
// allocation per run: fn's mallocs over runs calls, as a fraction.
func allocsPer(runs int, fn func()) float64 {
	fn() // warm-up: first-use allocations are not steady state
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestDecoderSteadyStateAllocs pins what a connection's Decoder costs per
// request once warm: nothing for a point, range, update or delete (the
// table name is the previous request's string), and for an insert a share
// of one slab — a 4-column row is 1/128 of one.
func TestDecoderSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	cases := []struct {
		req  Request
		want float64
	}{
		{Request{Type: ReqPoint, Table: "orders", Col: 2, Lo: 17}, 0},
		{Request{Type: ReqRange, Table: "orders", Col: 2, Lo: 17, Hi: 40}, 0},
		{Request{Type: ReqUpdate, Table: "orders", PK: 3, Col: 1, Value: 9}, 0},
		{Request{Type: ReqDelete, Table: "orders", PK: 3}, 0},
		{Request{Type: ReqInsert, Table: "orders", Row: []float64{1, 2, 3, 4}}, 0.01},
	}
	var dec Decoder
	for _, tc := range cases {
		frame, err := AppendRequest(nil, &tc.req)
		if err != nil {
			t.Fatal(err)
		}
		var got Request
		allocs := allocsPer(10000, func() { got, err = dec.Decode(frame[4:]) })
		if err != nil || !eqRequest(got, tc.req) {
			t.Fatalf("type %d: decoded %+v (%v), want %+v", tc.req.Type, got, err, tc.req)
		}
		if allocs > tc.want {
			t.Errorf("type %d: a Decoder allocates %.4f/op, want <= %.2f", tc.req.Type, allocs, tc.want)
		}
	}
}

// TestDecodeRowsAllocs: a row set decodes into one backing array and one
// slice of row headers, however many rows it has.
func TestDecodeRowsAllocs(t *testing.T) {
	skipUnderRace(t)
	resp := Response{Type: RespRows}
	for i := range 64 {
		resp.Rows = append(resp.Rows, []float64{float64(i), 1, 2, 3})
	}
	frame, err := AppendResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeResponse(frame[4:]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("a 64-row response decodes in %.0f allocations, want 2", allocs)
	}
}
