package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/server/proto"
)

// postExec sends one JSON op to the fallback endpoint and decodes the
// result, also returning the HTTP status.
func postExec(t *testing.T, base string, op map[string]any) (httpResult, int) {
	t.Helper()
	body, err := json.Marshal(op)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/exec", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res httpResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res, resp.StatusCode
}

// TestHTTPFallback drives the JSON endpoint across the op surface, the
// stats and health routes, and the error→status mapping.
func TestHTTPFallback(t *testing.T) {
	d, err := engine.OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := New(d, Options{HTTPAddr: "127.0.0.1:0"})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("http://%s", srv.HTTPAddr())

	if res, code := postExec(t, base, map[string]any{"op": "ping"}); !res.OK || code != 200 {
		t.Fatalf("ping: %+v code=%d", res, code)
	}
	if res, _ := postExec(t, base, map[string]any{
		"op": "create-table", "table": "t", "cols": []string{"id", "x", "y"},
	}); !res.OK {
		t.Fatalf("create-table: %+v", res)
	}
	if res, _ := postExec(t, base, map[string]any{
		"op": "create-index", "table": "t", "col": 1,
	}); !res.OK {
		t.Fatalf("create btree index: %+v", res)
	}
	if res, _ := postExec(t, base, map[string]any{
		"op": "create-index", "table": "t", "kind": "hermit", "col": 2, "host": 1,
	}); !res.OK {
		t.Fatalf("create hermit index: %+v", res)
	}
	for i := 0; i < 10; i++ {
		if res, _ := postExec(t, base, map[string]any{
			"op": "insert", "table": "t", "row": []float64{float64(i), float64(i * 2), float64(i * 3)},
		}); !res.OK {
			t.Fatalf("insert %d: %+v", i, res)
		}
	}

	res, _ := postExec(t, base, map[string]any{"op": "point", "table": "t", "col": 0, "lo": 4})
	if !res.OK || len(res.Rows) != 1 || res.Rows[0][1] != 8 {
		t.Fatalf("point: %+v", res)
	}
	res, _ = postExec(t, base, map[string]any{"op": "range", "table": "t", "col": 1, "lo": 2, "hi": 8})
	if !res.OK || len(res.Rows) != 4 {
		t.Fatalf("range: %+v", res)
	}
	res, _ = postExec(t, base, map[string]any{
		"op": "range2", "table": "t", "col": 1, "lo": 2, "hi": 8, "bcol": 2, "blo": 0, "bhi": 9,
	})
	if !res.OK || len(res.Rows) != 3 {
		t.Fatalf("range2: %+v", res)
	}
	if res, _ = postExec(t, base, map[string]any{
		"op": "update", "table": "t", "pk": 4, "col": 2, "value": 99,
	}); !res.OK {
		t.Fatalf("update: %+v", res)
	}
	res, _ = postExec(t, base, map[string]any{"op": "delete", "table": "t", "pk": 9})
	if !res.OK || res.Found == nil || !*res.Found {
		t.Fatalf("delete: %+v", res)
	}

	// Atomic batch: a dup-key insert aborts the whole batch with 409.
	res, code := postExec(t, base, map[string]any{
		"op": "batch", "table": "t", "ops": []map[string]any{
			{"op": "insert", "table": "t", "row": []float64{100, 1, 1}},
			{"op": "insert", "table": "t", "row": []float64{3, 1, 1}},
		},
	})
	if len(res.Results) != 2 || res.Results[1].Code != int(proto.CodeDupKey) {
		t.Fatalf("batch abort: %+v code=%d", res, code)
	}
	if res, _ := postExec(t, base, map[string]any{"op": "point", "table": "t", "col": 0, "lo": 100}); len(res.Rows) != 0 {
		t.Fatal("aborted batch leaked an insert")
	}

	// Error→status mapping.
	if res, code := postExec(t, base, map[string]any{"op": "nope"}); res.OK || code != http.StatusBadRequest {
		t.Fatalf("unknown op: %+v code=%d", res, code)
	}
	if res, code := postExec(t, base, map[string]any{
		"op": "create-index", "table": "t", "kind": "wat", "col": 1,
	}); res.OK || code != http.StatusBadRequest {
		t.Fatalf("unknown index kind: %+v code=%d", res, code)
	}
	if _, code := postExec(t, base, map[string]any{"op": "point", "table": "missing", "col": 0}); code != http.StatusNotFound {
		t.Fatalf("missing table status %d", code)
	}
	if _, code := postExec(t, base, map[string]any{
		"op": "insert", "table": "t", "row": []float64{3, 1, 1},
	}); code != http.StatusConflict {
		t.Fatalf("dup key status %d", code)
	}
	if _, code := postExec(t, base, map[string]any{"op": "ping", "tenant": "bad@t"}); code != http.StatusBadRequest {
		t.Fatalf("bad tenant status %d", code)
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
	if st.Requests == 0 {
		t.Fatalf("stats did not count HTTP requests: %+v", st)
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
	hr, err := http.Get(base + "/healthz")
	if err != nil || hr.StatusCode != 200 {
		t.Fatalf("healthz: %v %d", err, hr.StatusCode)
	}
	hr.Body.Close()

	// After Close the health endpoint is gone with the server.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("healthz still serving after Close")
	}
}

// TestHTTPQuota exercises the per-tenant quota on the JSON path.
func TestHTTPQuota(t *testing.T) {
	d, err := engine.OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := New(d, Options{HTTPAddr: "127.0.0.1:0", TenantOps: 3})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	base := fmt.Sprintf("http://%s", srv.HTTPAddr())

	var last int
	for i := 0; i < 5; i++ {
		_, last = postExec(t, base, map[string]any{"op": "ping", "tenant": "q"})
	}
	if last != http.StatusTooManyRequests {
		t.Fatalf("quota exhaustion status %d", last)
	}
	if srv.Stats().QuotaRejected == 0 {
		t.Fatal("quota rejections not counted")
	}
}
