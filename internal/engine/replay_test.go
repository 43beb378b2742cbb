package engine

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"hermit/internal/hermit"
	"hermit/internal/storage"
	"hermit/internal/wal"
)

// TestRecoveryAppliesTxnAllOrNothing writes by hand a committed transaction
// whose second insert repeats the first one's key: the group cannot apply
// as a whole, so recovery applies none of it — neither row is live — and
// counts both of its records as skipped, while the auto-commit rows around
// it stay.
func TestRecoveryAppliesTxnAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert("t", []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(fmt.Sprintf("%s/wal.%08d.log", dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	const txnID = 7777
	for _, rec := range []wal.Record{
		{Op: wal.OpTxnBegin, Txn: txnID},
		{Op: wal.OpInsert, Txn: txnID, Table: "t", Payload: appendFloats(nil, 100, 1)},
		{Op: wal.OpInsert, Txn: txnID, Table: "t", Payload: appendFloats(nil, 100, 2)},
		{Op: wal.OpTxnCommit, Txn: txnID},
		{Op: wal.OpInsert, Table: "t", Payload: appendFloats(nil, 2, 0)},
	} {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if n, serr := d2.RecoverySkipped(); n != 2 || serr == nil {
		t.Fatalf("RecoverySkipped = %d (%v), want the group's 2 records", n, serr)
	}
	if got := liveRows(t, d2, "t"); len(got) != 2 || got[0][0] != 1 || got[1][0] != 2 {
		t.Fatalf("recovered rows %v, want the auto-commit keys 1 and 2 only", got)
	}
}

// FuzzReplay holds recovery and replication to one replay path. A leader
// runs a seeded mix of auto-commit writes, DurableTxn commits and
// rollbacks, and DDL on a plain and a partitioned table — odd values and
// keys (NaN, ±Inf, −0) among the writes, a checkpoint midway — and its log
// ends in a torn transaction. That log is replayed twice: (a) by reopening
// the directory (blocks, then the tail) and (b) by ReplApply into an empty
// database, in random batches that cut groups apart. Every table's rows
// must be bit-identical across the two, and (b)'s open groups must be
// (a)'s RecoveryUncommitted.
func FuzzReplay(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, seed>>32^0x9e3779b97f4a7c15))
		dir := t.TempDir()
		opts := DurableOptions{DisableAutoCompact: true, WALRotateBytes: -1}
		ld, err := OpenDurableOptions(dir, hermit.PhysicalPointers, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ld.CreateTable("plain", []string{"id", "a", "b"}, 0); err != nil {
			t.Fatal(err)
		}
		if err := ld.CreatePartitionedTable("parts", []string{"id", "a", "b"}, 0, 3); err != nil {
			t.Fatal(err)
		}
		tables := []string{"plain", "parts"}
		for step := 0; step < 150; step++ {
			if step == 75 {
				if err := ld.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			switch r := rng.IntN(100); {
			case r < 55:
				ld.ApplyEach([]Op{replayOp(rng, tables)}, make([]OpResult, 1))
			case r < 80:
				tx := ld.Begin()
				for range 1 + rng.IntN(4) {
					tx.Mutate(replayOp(rng, tables))
				}
				if rng.IntN(5) == 0 {
					tx.Rollback()
				} else if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			case r < 96:
				// DDL that fails (an index already there, or not) logs nothing.
				table, col := tables[rng.IntN(len(tables))], 1+rng.IntN(2)
				switch rng.IntN(3) {
				case 0:
					ld.CreateIndex(table, IndexDef{Kind: "btree", Col: col})
				case 1:
					ld.CreateIndex(table, IndexDef{Kind: "hermit", Col: col, Host: 3 - col})
				default:
					ld.DropIndex(table, col, []string{"btree", "hermit"}[rng.IntN(2)])
				}
			case r < 98 && len(tables) == 2:
				if err := ld.CreatePartitionedTable("late", []string{"id", "a", "b"}, 0, 2); err != nil {
					t.Fatal(err)
				}
				tables = append(tables, "late")
			case r < 99:
				if err := ld.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ld.Close(); err != nil {
			t.Fatal(err)
		}
		// The torn group: a begin and mutation frames, and no commit.
		l, err := wal.Open(fmt.Sprintf("%s/wal.%08d.log", dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		const torn = 1 << 40
		if _, err := l.Append(wal.Record{Op: wal.OpTxnBegin, Txn: torn}); err != nil {
			t.Fatal(err)
		}
		for i := range 1 + rng.IntN(3) {
			if _, err := l.Append(wal.Record{Op: wal.OpInsert, Txn: torn, Table: "plain", Payload: appendFloats(nil, float64(1000+i), 1, 2)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// (a) Recovery.
		da, err := OpenDurableOptions(dir, hermit.PhysicalPointers, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer da.Close()
		if n, serr := da.RecoverySkipped(); n != 0 {
			t.Fatalf("recovery skipped %d records: %v", n, serr)
		}
		// (b) Replication, in batches that cut groups apart.
		db, err := OpenDurableOptions(t.TempDir(), hermit.PhysicalPointers, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		open := 0
		for recs := replRecords(t, da); len(recs) > 0; {
			n := 1 + rng.IntN(min(len(recs), 8))
			if _, open, err = db.ReplApply(recs[:n]); err != nil {
				t.Fatalf("ReplApply at LSN %d: %v", recs[0].LSN, err)
			}
			recs = recs[n:]
		}
		if want := da.RecoveryUncommitted(); open != want || want != 1 {
			t.Fatalf("%d groups open after ReplApply, recovery left %d uncommitted; want 1", open, want)
		}
		for _, name := range tables {
			a, b := rowBits(t, da, name), rowBits(t, db, name)
			if !slices.Equal(a, b) {
				t.Fatalf("table %q: recovery has %d rows, ReplApply %d; first of each:\n%v\n%v", name, len(a), len(b), a[:min(len(a), 1)], b[:min(len(b), 1)])
			}
		}
	})
}

// replayKeys is the key space FuzzReplay writes: few enough keys that
// inserts collide and deletes and updates find their rows, the odd ones
// included.
var replayKeys = []float64{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000009),
}

// replayOp draws one mutation on one of tables: inserts, deletes and
// updates of keys in replayKeys, a value in ten odd.
func replayOp(rng *rand.Rand, tables []string) Op {
	val := func() float64 {
		if rng.IntN(10) == 0 {
			return replayKeys[12+rng.IntN(len(replayKeys)-12)]
		}
		return float64(rng.IntN(1000))
	}
	op := Op{Table: tables[rng.IntN(len(tables))], PK: replayKeys[rng.IntN(len(replayKeys))]}
	switch rng.IntN(3) {
	case 0:
		op.Kind, op.Row = OpInsert, []float64{op.PK, val(), val()}
	case 1:
		op.Kind = OpDelete
	default:
		op.Kind, op.Col, op.Value = OpUpdate, 1+rng.IntN(2), val()
	}
	return op
}

// rowBits dumps a logical table's live rows as the hex bit patterns of their
// values, sorted, so two databases compare bit for bit — NaN payloads and
// the sign of zero included.
func rowBits(t *testing.T, d *DB, name string) []string {
	t.Helper()
	l := d.lookup(name)
	if l == nil {
		t.Fatalf("no table %q", name)
	}
	var rows []string
	for _, tb := range l.phys {
		tb.ScanLive(func(_ storage.RID, row []float64) bool {
			var sb strings.Builder
			for _, v := range row {
				fmt.Fprintf(&sb, "%016x ", math.Float64bits(v))
			}
			rows = append(rows, sb.String())
			return true
		})
	}
	slices.Sort(rows)
	return rows
}
