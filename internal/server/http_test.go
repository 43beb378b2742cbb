package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"hermit/internal/client"
)

// TestHTTPEndpoints writes through the binary protocol and reads the
// server's state back over HTTP: the stats and health routes, pprof, and
// that no route executes data operations.
func TestHTTPEndpoints(t *testing.T) {
	srv, d := startServer(t, Options{HTTPAddr: "127.0.0.1:0"})
	base := fmt.Sprintf("http://%s", srv.HTTPAddr())
	c := dial(t, srv, client.Options{})
	if err := c.CreateTable("t", []string{"id", "x", "y"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Insert("t", []float64{float64(i), float64(i * 2), float64(i * 3)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := c.Update("t", 4, 2, 99); err != nil {
		t.Fatal(err)
	}
	if found, err := c.Delete("t", 9); err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}

	// Stats and health. There is no GC pass to watch: the update and the
	// delete above reclaimed what they ended before they were answered, and
	// the delete waits in its table's list for the flush to record it.
	stats := func() StatsSnapshot {
		t.Helper()
		hr, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var st StatsSnapshot
		if err := json.NewDecoder(hr.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := stats().Storage; st.VersionsPending != 0 || st.VersionsReclaimed != 2 || st.UnflushedDeletes != 1 {
		t.Fatalf("stats after an update and a delete: %d versions pending, %d reclaimed, %d unflushed deletes; want 0, 2, 1",
			st.VersionsPending, st.VersionsReclaimed, st.UnflushedDeletes)
	}
	// None of the nine live rows is in a block yet: each is one unflushed bit,
	// and none carries a version header for it — no snapshot is open.
	if st := stats().Storage; st.VersionsUnfrozen != 0 || st.VersionsUnflushed != 9 || st.VersionBytes == 0 {
		t.Fatalf("stats before the first checkpoint: %d rows carry a header, %d are unflushed, %d B of version table; want 0, 9, > 0",
			st.VersionsUnfrozen, st.VersionsUnflushed, st.VersionBytes)
	}
	// A checkpoint, so the storage section has real block-tier numbers to
	// report.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := stats()
	if st.Storage.UnflushedDeletes != 0 || st.Storage.VersionsUnflushed != 0 || st.Storage.VersionsUnfrozen != 0 {
		t.Fatalf("stats: %d unflushed deletes, %d unflushed rows, %d rows with a header after a checkpoint",
			st.Storage.UnflushedDeletes, st.Storage.VersionsUnflushed, st.Storage.VersionsUnfrozen)
	}
	if st.Requests < 13 {
		t.Fatalf("stats counted %d requests, want the 13 sent: %+v", st.Requests, st)
	}
	if st.Storage.Flushes < 1 || st.Storage.Blocks < 1 {
		t.Fatalf("stats missing block-storage tier: %+v", st.Storage)
	}
	if st.Storage.WriteAmplification < 1 {
		t.Fatalf("write amplification %v < 1 after a flush", st.Storage.WriteAmplification)
	}
	if st.Storage.BlockResidentBytes <= 0 || st.Storage.BlockPageReads != 0 {
		t.Fatalf("stats: open blocks hold %d B after %d page reads, want > 0 and none yet",
			st.Storage.BlockResidentBytes, st.Storage.BlockPageReads)
	}
	for path, want := range map[string]int{"/healthz": http.StatusOK, "/debug/pprof/cmdline": http.StatusOK} {
		hr, err := http.Get(base + path)
		if err != nil || hr.StatusCode != want {
			t.Fatalf("GET %s: %v %d", path, err, hr.StatusCode)
		}
		hr.Body.Close()
	}
	hr, err := http.Post(base+"/v1/exec", "application/json", strings.NewReader(`{"op":"ping"}`))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/exec: status %d, want 404: data operations are the binary protocol's", hr.StatusCode)
	}

	// After Close the health endpoint is gone with the server.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("healthz still serving after Close")
	}
}
