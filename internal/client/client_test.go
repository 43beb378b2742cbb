package client_test

import (
	"errors"
	"testing"

	"hermit/internal/client"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/server"
	"hermit/internal/workload"
)

// startServer serves a fresh durable DB on loopback, torn down with the
// test.
func startServer(t *testing.T, opts server.Options) *server.Server {
	t.Helper()
	srv, _ := startServerDB(t, opts)
	return srv
}

// startServerDB is startServer for tests that also inspect the database
// behind the server.
func startServerDB(t *testing.T, opts server.Options) (*server.Server, *engine.DB) {
	t.Helper()
	d, err := engine.OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := server.New(d, opts)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, d
}

func dial(t *testing.T, srv *server.Server, opts client.Options) *client.Conn {
	t.Helper()
	c, err := client.Dial(srv.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestConnSurface exercises every Conn method against a live server:
// DDL, the six data ops, and the error sentinels the codes map onto.
func TestConnSurface(t *testing.T) {
	srv := startServer(t, server.Options{})
	c := dial(t, srv, client.Options{Tenant: "app"})

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("t", []string{"id", "x", "y"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBTreeIndex("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateHermitIndex("t", 2, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := c.Insert("t", []float64{float64(i), float64(i * 2), float64(i * 3)}); err != nil {
			t.Fatal(err)
		}
	}

	rows, err := c.Point("t", 0, 7)
	if err != nil || len(rows) != 1 || rows[0][1] != 14 {
		t.Fatalf("point: rows=%v err=%v", rows, err)
	}
	rows, err = c.Range("t", 1, 10, 20)
	if err != nil || len(rows) != 6 {
		t.Fatalf("range: %d rows, err=%v", len(rows), err)
	}
	rows, err = c.Range2("t", 1, 10, 20, 2, 0, 24)
	if err != nil || len(rows) != 4 {
		t.Fatalf("range2: %d rows, err=%v", len(rows), err)
	}

	if err := c.Update("t", 7, 2, 99); err != nil {
		t.Fatal(err)
	}
	rows, _ = c.Point("t", 0, 7)
	if len(rows) != 1 || rows[0][2] != 99 {
		t.Fatalf("update not visible: %v", rows)
	}
	found, err := c.Delete("t", 7)
	if err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	found, err = c.Delete("t", 7)
	if err != nil || found {
		t.Fatalf("re-delete: found=%v err=%v", found, err)
	}

	// Error mapping: unknown table and duplicate key surface as sentinels
	// through errors.Is, with the wire code on the concrete *Error.
	if _, err := c.Point("missing", 0, 1); !errors.Is(err, client.ErrNoTable) {
		t.Fatalf("want ErrNoTable, got %v", err)
	}
	err = c.Insert("t", []float64{3, 0, 0})
	if !errors.Is(err, client.ErrDupKey) {
		t.Fatalf("want ErrDupKey, got %v", err)
	}
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Error() == "" {
		t.Fatalf("dup-key error not a *client.Error: %v", err)
	}
}

// TestBatchAndPipeline covers the atomic Batch surface and every
// Pipeline queueing method.
func TestBatchAndPipeline(t *testing.T) {
	srv := startServer(t, server.Options{})
	c := dial(t, srv, client.Options{})
	if err := c.CreateTable("t", []string{"id", "x"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Insert("t", []float64{float64(i), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	results, err := c.Batch([]client.Op{
		{Kind: client.OpInsert, Table: "t", Row: []float64{100, 1}},
		{Kind: client.OpPoint, Table: "t", Col: 0, Lo: 3},
		{Kind: client.OpRange, Table: "t", Col: 1, Lo: 0, Hi: 4},
		{Kind: client.OpRange2, Table: "t", Col: 0, Lo: 0, Hi: 9, BCol: 1, BLo: 2, BHi: 5},
		{Kind: client.OpUpdate, Table: "t", PK: 4, Col: 1, Value: 44},
		{Kind: client.OpDelete, Table: "t", PK: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("batch op %d: %v", i, r.Err)
		}
	}
	if len(results[1].Rows) != 1 || len(results[2].Rows) != 5 || len(results[3].Rows) != 4 {
		t.Fatalf("batch query results garbled: %+v", results)
	}
	if !results[5].Found {
		t.Fatal("batch delete did not find its row")
	}

	// An atomic batch with a failing mutation applies nothing: the dup
	// insert errors and the sibling mutation reports ErrAborted.
	results, err = c.Batch([]client.Op{
		{Kind: client.OpInsert, Table: "t", Row: []float64{200, 1}},
		{Kind: client.OpInsert, Table: "t", Row: []float64{3, 1}}, // dup pk
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[1].Err, client.ErrDupKey) {
		t.Fatalf("dup in batch: %v", results[1].Err)
	}
	if !errors.Is(results[0].Err, client.ErrAborted) {
		t.Fatalf("sibling not aborted: %v", results[0].Err)
	}
	if rows, _ := c.Point("t", 0, 200); len(rows) != 0 {
		t.Fatal("aborted batch leaked an insert")
	}

	p := c.Pipeline()
	p.Ping()
	p.Insert("t", []float64{300, 9})
	p.Point("t", 0, 300)
	p.Range("t", 0, 0, 2)
	p.Update("t", 300, 1, 10)
	p.Delete("t", 300)
	p.Op(client.Op{Kind: client.OpPoint, Table: "t", Col: 0, Lo: 1})
	if p.Len() != 7 {
		t.Fatalf("pipeline len %d", p.Len())
	}
	results, err = p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("pipeline returned %d results", len(results))
	}
	if len(results[2].Rows) != 1 || !results[5].Found || len(results[6].Rows) != 1 {
		t.Fatalf("pipeline results garbled: %+v", results)
	}
}

// TestTxnSurface covers the wire transaction: snapshot reads, buffered
// writes, commit, rollback, and the conflict sentinel.
func TestTxnSurface(t *testing.T) {
	srv := startServer(t, server.Options{})
	c := dial(t, srv, client.Options{})
	if err := c.CreateTable("t", []string{"id", "x"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Insert("t", []float64{float64(i), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("t", []float64{50, 1}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("t", 1, 1, 11); err != nil {
		t.Fatal(err)
	}
	if found, err := tx.Delete("t", 2); err != nil || !found {
		t.Fatalf("txn delete: found=%v err=%v", found, err)
	}
	if rows, err := tx.Point("t", 0, 1); err != nil || len(rows) != 1 {
		t.Fatalf("txn point: %v err=%v", rows, err)
	}
	if rows, err := tx.Range("t", 0, 0, 10); err != nil || len(rows) != 5 {
		t.Fatalf("txn range sees %d rows (snapshot is pre-write), err=%v", len(rows), err)
	}
	// Writes are invisible to auto-commit reads until commit.
	if rows, _ := c.Point("t", 0, 50); len(rows) != 0 {
		t.Fatal("uncommitted insert visible")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if rows, _ := c.Point("t", 0, 50); len(rows) != 1 {
		t.Fatal("committed insert not visible")
	}

	// First-committer-wins: a rival auto-commit update to the same key
	// dooms the transaction.
	tx2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Update("t", 3, 1, 33); err != nil {
		t.Fatal(err)
	}
	rival := dial(t, srv, client.Options{})
	if err := rival.Update("t", 3, 1, 42); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); !errors.Is(err, client.ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}

	// Rollback discards; after Commit it is a no-op.
	tx3, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx3.Insert("t", []float64{60, 1}); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Rollback(); err != nil {
		t.Fatal(err)
	}
	if rows, _ := c.Point("t", 0, 60); len(rows) != 0 {
		t.Fatal("rolled-back insert visible")
	}
}

// TestDialErrors covers transport-level failures and tenant validation.
func TestDialErrors(t *testing.T) {
	if _, err := client.Dial("127.0.0.1:1", client.Options{}); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	srv := startServer(t, server.Options{})
	if _, err := client.Dial(srv.Addr().String(), client.Options{Tenant: "bad@name"}); err == nil {
		t.Fatal("tenant with '@' accepted")
	}
}

// TestWireHermitIndexUsesDefaultParams: the wire DDL carries no TRS-Tree
// parameters, and zero parameters must mean the defaults — not the
// sanitized zero value, which is one leaf with every row an outlier
// (16 B/row and a linear scan per lookup).
func TestWireHermitIndexUsesDefaultParams(t *testing.T) {
	srv, d := startServerDB(t, server.Options{})
	c := dial(t, srv, client.Options{})

	spec := workload.SyntheticSpec{Rows: 50_000, Fn: workload.Sigmoid, Noise: 0.01, Seed: 1}
	if err := c.CreateTable("syn", spec.Columns(), spec.PKCol(), 0); err != nil {
		t.Fatal(err)
	}
	var ops []client.Op
	flush := func() {
		if _, err := c.Batch(ops); err != nil {
			t.Fatal(err)
		}
		ops = ops[:0]
	}
	_ = spec.Generate(func(row []float64) error {
		ops = append(ops, client.Op{Kind: client.OpInsert, Table: "syn", Row: append([]float64(nil), row...)})
		if len(ops) == 1000 {
			flush()
		}
		return nil
	})
	flush()
	if err := c.CreateBTreeIndex("syn", spec.HostCol()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateHermitIndex("syn", spec.TargetCol(), spec.HostCol()); err != nil {
		t.Fatal(err)
	}

	tb, err := d.Table("syn")
	if err != nil {
		t.Fatal(err)
	}
	if leaves := tb.Hermit(spec.TargetCol()).Tree().LeafCount(); leaves <= 1 {
		t.Errorf("wire-created TRS-Tree has %d leaf", leaves)
	}
	if per := float64(tb.Memory().NewBytes) / float64(spec.Rows); per >= 2 {
		t.Errorf("wire-created Hermit index takes %.2f B/row, want < 2", per)
	}
	rows, err := c.Range("syn", spec.TargetCol(), 100, 101)
	if err != nil || len(rows) == 0 {
		t.Fatalf("range through the wire-created index: %d rows, err=%v", len(rows), err)
	}
}
