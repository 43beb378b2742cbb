package client

import (
	"bufio"
	"net"
	"runtime/debug"
	"testing"

	"hermit/internal/server/proto"
)

// cannedServer answers every request frame it reads on nc with RespOK,
// flushing when it has no more input buffered, as a session does. It
// allocates nothing per frame, so an allocation count taken while it runs
// is the client's. It returns when nc is closed.
func cannedServer(nc net.Conn, done chan<- struct{}) {
	defer close(done)
	ok, err := proto.AppendResponse(nil, &proto.Response{Type: proto.RespOK})
	if err != nil {
		panic(err)
	}
	br, bw := bufio.NewReaderSize(nc, 64<<10), bufio.NewWriterSize(nc, 64<<10)
	var payload []byte
	for {
		if payload, err = proto.ReadFrameBuf(br, payload); err != nil {
			return
		}
		if _, err := bw.Write(ok); err != nil {
			return
		}
		if br.Buffered() == 0 && bw.Flush() != nil {
			return
		}
	}
}

// TestPipelineFlushAllocs: a burst of 64 inserts is encoded into the
// connection's write scratch and its responses are decoded through its
// read scratch, so Flush allocates its []Result and nothing per request.
func TestPipelineFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector bookkeeping under -race")
	}
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go cannedServer(srv, done)
	defer func() {
		cli.Close()
		<-done
	}()

	c := newConn(cli)
	p := c.Pipeline()
	var rows [64][4]float64
	burst := func() {
		for i := range rows {
			rows[i] = [4]float64{float64(i), 1, 2, 3}
			p.Insert("t", rows[i][:])
		}
		results, err := p.Flush()
		if err != nil || len(results) != len(rows) {
			t.Fatalf("flush: %d results, %v", len(results), err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	burst() // grows the pipeline and both scratch buffers
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(50, burst); allocs > 2 {
		t.Fatalf("a 64-insert Flush allocates %.0f objects, want <= 2", allocs)
	}
}

// TestPipelineReleasesBurst: after Flush the pipeline keeps no queued
// request's row or table name reachable.
func TestPipelineReleasesBurst(t *testing.T) {
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go cannedServer(srv, done)
	defer func() {
		cli.Close()
		<-done
	}()

	p := newConn(cli).Pipeline()
	p.Insert("t", []float64{1, 2})
	p.Delete("t", 1)
	if _, err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, r := range p.reqs[:cap(p.reqs)] {
		if r.Row != nil || r.Table != "" {
			t.Fatalf("queued request %d still held after Flush: %+v", i, r)
		}
	}
}
