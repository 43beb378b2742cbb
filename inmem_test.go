package hermitdb_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	hermitdb "hermit"
	"hermit/internal/engine"
)

// TestInMemoryDurableSurface calls every method that needs a log on a
// database made by NewDB and checks the result each documents there: a zero
// value, nil or engine.ErrNotDurable, and no panic.
func TestInMemoryDurableSurface(t *testing.T) {
	db := hermitdb.NewDB(hermitdb.PhysicalPointers)
	if _, err := db.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	notDurable := func(err error) error {
		if !errors.Is(err, engine.ErrNotDurable) {
			return fmt.Errorf("got %v, want ErrNotDurable", err)
		}
		return nil
	}
	zero := func(got ...any) error {
		for _, v := range got {
			if v != nil && !reflect.ValueOf(v).IsZero() {
				return fmt.Errorf("got %v, want the zero value", got)
			}
		}
		return nil
	}
	for _, c := range []struct {
		method string
		check  func() error
	}{
		{"RecoverySkipped", func() error { n, err := db.RecoverySkipped(); return zero(n, err) }},
		{"RecoveryUncommitted", func() error { return zero(db.RecoveryUncommitted()) }},
		{"Sync", func() error { return notDurable(db.Sync()) }},
		{"Checkpoint", func() error { return notDurable(db.Checkpoint()) }},
		{"Compact", func() error {
			merged, err := db.Compact()
			if merged {
				return fmt.Errorf("merged")
			}
			return notDurable(err)
		}},
		{"StorageStats", func() error { return zero(db.StorageStats()) }},
		{"BlockRead", func() error {
			row, found, probed, err := db.BlockRead("t", 1)
			if row != nil || found || probed != 0 {
				return fmt.Errorf("row %v found %v probed %d", row, found, probed)
			}
			return notDurable(err)
		}},
		{"LastLSN", func() error { return zero(db.LastLSN()) }},
		{"WALSize", func() error { return zero(db.WALSize()) }},
		{"WALPosition", func() error { seg, base, last := db.WALPosition(); return zero(seg, base, last) }},
		{"WatchWAL", func() error {
			ch := make(chan struct{}, 1)
			cancel := db.WatchWAL(ch)
			if _, err := db.Insert("t", []float64{2, 3}); err != nil {
				return err
			}
			cancel()
			if len(ch) != 0 {
				return fmt.Errorf("woken by a write to a database without a log")
			}
			return nil
		}},
		{"Dir", func() error { return zero(db.Dir()) }},
		{"ReplWALSegments", func() error { return zero(db.ReplWALSegments()) }},
		{"ReplSnapshot", func() error {
			snap, err := db.ReplSnapshot()
			if snap != nil {
				return fmt.Errorf("snapshot %+v", snap)
			}
			return notDurable(err)
		}},
		{"ReplRestore", func() error { return notDurable(db.ReplRestore(&engine.ReplSnap{})) }},
		{"ReplApply", func() error {
			applied, open, err := db.ReplApply(nil)
			if applied != 0 || open != 0 {
				return fmt.Errorf("applied %d open %d", applied, open)
			}
			return notDurable(err)
		}},
		{"NewReplLeader", func() error {
			l, err := hermitdb.NewReplLeader(db, hermitdb.ReplLeaderOptions{})
			if l != nil {
				return fmt.Errorf("leader %v", l)
			}
			return notDurable(err)
		}},
		{"Close", func() error { return db.Close() }},
	} {
		t.Run(c.method, func(t *testing.T) {
			if err := c.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Closing did nothing: the database still reads and writes.
	if _, err := db.Insert("t", []float64{3, 4}); err != nil {
		t.Fatalf("insert after Close: %v", err)
	}
}

// TestInMemoryApplyEach runs a write run on a database without a log: each
// op is its own mutation with its own result, as on a durable one.
func TestInMemoryApplyEach(t *testing.T) {
	db := hermitdb.NewDB(hermitdb.PhysicalPointers)
	if _, err := db.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	ops := []hermitdb.Op{
		{Table: "t", Kind: hermitdb.OpInsert, Row: []float64{1, 10}},
		{Table: "t", Kind: hermitdb.OpInsert, Row: []float64{1, 11}},
		{Table: "t", Kind: hermitdb.OpUpdate, PK: 1, Col: 1, Value: 12},
		{Table: "t", Kind: hermitdb.OpDelete, PK: 2},
		{Table: "nope", Kind: hermitdb.OpInsert, Row: []float64{1, 10}},
	}
	res := make([]hermitdb.OpResult, len(ops))
	db.ApplyEach(ops, res)
	switch {
	case res[0].Err != nil:
		t.Fatalf("insert: %v", res[0].Err)
	case !errors.Is(res[1].Err, engine.ErrDupKey):
		t.Fatalf("duplicate insert: %v", res[1].Err)
	case res[2].Err != nil:
		t.Fatalf("update: %v", res[2].Err)
	case res[3].Err != nil || res[3].Found:
		t.Fatalf("delete of an absent key: found %v, %v", res[3].Found, res[3].Err)
	case !errors.Is(res[4].Err, engine.ErrNoSuchTable):
		t.Fatalf("insert into no table: %v", res[4].Err)
	}
	rows, _, err := db.Exec("t", hermitdb.Query{Col: 0, Lo: 1, Hi: 1}, 1, nil)
	if err != nil || len(rows) != 2 || rows[1] != 12 {
		t.Fatalf("row 1 = %v, %v; want [1 12]", rows, err)
	}
}
