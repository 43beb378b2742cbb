package proto

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"
)

// This file fuzzes the wire decoder the way internal/wal/fuzz_test.go
// fuzzes log replay: arbitrary bytes must never panic the decoder, never
// make ReadFrame consume bytes beyond one frame's declared extent, and a
// successfully decoded message must re-encode to a decodable frame.

// fuzzSeeds returns valid encoded frames (requests and responses) used as
// the fuzz corpus, so mutation explores near-valid inputs.
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, req := range sampleRequests() {
		frame, err := AppendRequest(nil, &req)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, frame)
	}
	for _, resp := range sampleResponses() {
		frame, err := AppendResponse(nil, &resp)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, frame)
	}
	return seeds
}

// FuzzDecodeFrame feeds arbitrary bytes through ReadFrame + both decoders.
// Invariants: no panic; ReadFrame never consumes more than 4 bytes + the
// declared payload length; a decode that succeeds re-encodes to a frame
// that decodes back to the same message; and a request payload decodes
// through one long-lived Decoder — the server's per-connection path, its
// table name and slab carried from input to input — to the request
// DecodeRequest returns, bit for bit, with every row cap-limited. `go test`
// runs the seed corpus; `go test -fuzz=FuzzDecodeFrame` explores.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, Version})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
		if len(s) > 3 {
			f.Add(s[:len(s)-3])
		}
		f.Add(append(append([]byte(nil), s...), 0xde, 0xad))
	}

	var dec Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		cr := &countingReader{r: bytes.NewReader(data)}
		payload, err := ReadFrame(cr)
		if err != nil {
			// Even on failure ReadFrame must not have consumed past one
			// frame's extent (4-byte header + declared length).
			if cr.n > len(data) {
				t.Fatalf("ReadFrame consumed %d of %d bytes", cr.n, len(data))
			}
			return
		}
		if cr.n != 4+len(payload) {
			t.Fatalf("ReadFrame consumed %d bytes for a %d-byte payload", cr.n, len(payload))
		}

		// The Decoder fails where DecodeRequest fails and agrees with it
		// where it succeeds.
		req, err := DecodeRequest(payload)
		viaDec, decErr := dec.Decode(payload)
		if (err == nil) != (decErr == nil) {
			t.Fatalf("DecodeRequest: %v, Decoder: %v", err, decErr)
		}
		if err == nil {
			if !bitEqual(req, viaDec) {
				t.Fatalf("the Decoder's request differs\nDecodeRequest: %+v\n      Decoder: %+v", req, viaDec)
			}
			for _, r := range append([]Request{viaDec}, viaDec.Ops...) {
				if cap(r.Row) != len(r.Row) {
					t.Fatalf("a decoded row has cap %d, len %d", cap(r.Row), len(r.Row))
				}
			}
		}

		// Decoding must never panic; on success the message must survive a
		// re-encode/decode cycle (the server echoes decoded requests into
		// batches, so self-consistency matters).
		if err == nil {
			frame, err := AppendRequest(nil, &req)
			if err != nil {
				t.Fatalf("decoded request does not re-encode: %v\nreq: %+v", err, req)
			}
			again, err := ReadRequest(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			if !eqRequest(req, again) {
				t.Fatalf("request changed across re-encode\n was: %+v\n now: %+v", req, again)
			}
		}
		if resp, err := DecodeResponse(payload); err == nil {
			frame, err := AppendResponse(nil, &resp)
			if err != nil {
				t.Fatalf("decoded response does not re-encode: %v\nresp: %+v", err, resp)
			}
			again, err := ReadResponse(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("re-encoded response does not decode: %v", err)
			}
			if !eqResponse(resp, again) {
				t.Fatalf("response changed across re-encode\n was: %+v\n now: %+v", resp, again)
			}
		}
	})
}

// FuzzDecodeStream feeds arbitrary bytes as a stream and reads frames
// until error: the reader must terminate (bounded by input length) and
// never loop or panic on any prefix structure.
func FuzzDecodeStream(f *testing.F) {
	var stream []byte
	for _, s := range fuzzSeeds(f) {
		stream = append(stream, s...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add([]byte{5, 0, 0, 0, Version, byte(ReqPing), 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; ; i++ {
			if i > len(data) {
				t.Fatal("stream reader failed to terminate")
			}
			if _, err := ReadFrame(r); err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF &&
					err != ErrFrameTooLarge {
					t.Fatalf("unexpected stream error: %v", err)
				}
				return
			}
		}
	})
}

// bitEqual reports whether a and b are one request bit for bit: floats
// compared by their bits (NaN payloads and signed zeros included), slices
// by nil-ness, length and contents.
func bitEqual(a, b Request) bool {
	if !floatBitsEqual([]float64{a.Lo, a.Hi, a.BLo, a.BHi, a.PK, a.Value},
		[]float64{b.Lo, b.Hi, b.BLo, b.BHi, b.PK, b.Value}) ||
		(a.Row == nil) != (b.Row == nil) || !floatBitsEqual(a.Row, b.Row) ||
		(a.Ops == nil) != (b.Ops == nil) || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		if !bitEqual(a.Ops[i], b.Ops[i]) {
			return false
		}
	}
	// What is left has no floats: compare it whole.
	for _, r := range []*Request{&a, &b} {
		r.Lo, r.Hi, r.BLo, r.BHi, r.PK, r.Value = 0, 0, 0, 0, 0, 0
		r.Row, r.Ops = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

func floatBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
