package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hermit/internal/hermit"
	"hermit/internal/workload"
)

// buildConcurrentTable creates a Synthetic table with every single-column
// access path in play: primary on colA, complete B+-tree on colB (the
// host), Hermit on colC, and an unindexed payload colD.
func buildConcurrentTable(t *testing.T, rows int) (*DB, *Table) {
	t.Helper()
	db := NewDB(hermit.PhysicalPointers)
	spec := workload.SyntheticSpec{Rows: rows, Fn: workload.Linear, Noise: 0.05, Seed: 7}
	tb, err := db.CreateTable("synthetic", spec.Columns(), spec.PKCol())
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Generate(func(row []float64) error {
		_, err := tb.Insert(row)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateBTreeIndex(spec.HostCol(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateHermitIndex(spec.TargetCol(), spec.HostCol()); err != nil {
		t.Fatal(err)
	}
	return db, tb
}

// TestConcurrentReadersAndWriters hammers one table with parallel point,
// range and Hermit-index queries while writers insert, delete and update.
// It must pass under -race; result correctness is checked by validating
// every returned tuple against its predicate.
func TestConcurrentReadersAndWriters(t *testing.T) {
	const (
		rows       = 4000
		readers    = 6
		writers    = 3
		opsPerGoro = 400
	)
	_, tb := buildConcurrentTable(t, rows)
	spec := workload.SyntheticSpec{}

	var wg sync.WaitGroup
	var failures atomic.Int32
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}

	// Readers: one third point queries on the primary key, one third range
	// queries on the complete B+-tree, one third Hermit range queries.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			pointGen := workload.PointGen(0, rows, int64(100+r))
			rangeGen := workload.QueryGen(100, 2100, 0.02, int64(200+r))
			hermitGen := workload.QueryGen(0, workload.SyntheticSpan, 0.02, int64(300+r))
			for i := 0; i < opsPerGoro; i++ {
				switch r % 3 {
				case 0:
					pk := float64(int(pointGen()))
					rids, st, err := rowsOf(tb, Query{Col: spec.PKCol(), Lo: pk, Hi: pk})
					if err != nil {
						fail("point query: %v", err)
						return
					}
					if st.Kind != KindPrimary || len(rids) > 1 {
						fail("point query on pk: kind %v, %d rids", st.Kind, len(rids))
						return
					}
				case 1:
					q := rangeGen()
					if err := checkBTreeRange(tb, spec.HostCol(), q.Lo, q.Hi); err != nil {
						fail("btree range query: %v", err)
						return
					}
				default:
					q := hermitGen()
					_, st, err := rowsOf(tb, Query{Col: spec.TargetCol(), Lo: q.Lo, Hi: q.Hi})
					if err != nil {
						fail("hermit range query: %v", err)
						return
					}
					if st.Kind != KindHermit {
						fail("target column served by %v, want hermit", st.Kind)
						return
					}
				}
			}
		}(r)
	}

	// Writers: each owns a disjoint pk band, cycling insert -> update ->
	// delete so writer-writer conflicts exercise the stripes without
	// double-insert errors.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := float64(rows + w*opsPerGoro)
			for i := 0; i < opsPerGoro; i++ {
				pk := base + float64(i)
				c := float64(i%1000) + 0.5
				row := []float64{pk, 2*c + 100, c, 0.25}
				if _, err := tb.Insert(row); err != nil {
					fail("insert pk %v: %v", pk, err)
					return
				}
				if err := tb.UpdateColumn(pk, 3, 0.75); err != nil {
					fail("update pk %v: %v", pk, err)
					return
				}
				if i%2 == 0 {
					found, err := tb.Delete(pk)
					if err != nil || !found {
						fail("delete pk %v: found=%v err=%v", pk, found, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d concurrent-access failures", failures.Load())
	}

	// The table must be structurally intact afterwards: every surviving
	// writer key answers a point query.
	for w := 0; w < writers; w++ {
		base := float64(rows + w*opsPerGoro)
		for i := 1; i < opsPerGoro; i += 2 {
			pk := base + float64(i)
			rids, _, err := rowsOf(tb, Query{Col: spec.PKCol(), Lo: pk, Hi: pk})
			if err != nil {
				t.Fatalf("post-check pk %v: %v", pk, err)
			}
			if len(rids) != 1 {
				t.Fatalf("post-check pk %v: %d rids, want 1", pk, len(rids))
			}
		}
	}
}

// checkBTreeRange runs a range query that the complete B+-tree on col must
// serve and checks every returned row against the predicate.
func checkBTreeRange(tb *Table, col int, lo, hi float64) error {
	rows, st, err := rowsOf(tb, Query{Col: col, Lo: lo, Hi: hi})
	if err != nil {
		return err
	}
	if st.Kind != KindBTree {
		return fmt.Errorf("column %d served by %v, want btree", col, st.Kind)
	}
	for _, row := range rows {
		if v := row[col]; v < lo || v > hi {
			return fmt.Errorf("returned %v outside [%v, %v]", v, lo, hi)
		}
	}
	return nil
}

// TestExecuteBatchMatchesSerial runs the same query batch through the
// worker pool and serially, and requires identical results.
func TestExecuteBatchMatchesSerial(t *testing.T) {
	db, tb := buildConcurrentTable(t, 3000)
	spec := workload.SyntheticSpec{}
	gen := workload.QueryGen(0, workload.SyntheticSpan, 0.05, 42)
	var ops []Op
	for i := 0; i < 200; i++ {
		q := gen()
		col := spec.TargetCol()
		if i%3 == 0 {
			col = spec.PKCol()
		}
		ops = append(ops, Op{Table: tb.Name(), Kind: OpQuery, Query: Query{Col: col, Lo: q.Lo, Hi: q.Hi}})
	}
	parallel := db.ExecuteBatch(ops, 8)
	for i, op := range ops {
		rows, _, err := rowsOf(tb, op.Query)
		if err != nil {
			t.Fatal(err)
		}
		if parallel[i].Err != nil {
			t.Fatalf("op %d: %v", i, parallel[i].Err)
		}
		if got := SplitRows(parallel[i].Rows, len(tb.cols), nil); !sameRows(got, rows) {
			t.Fatalf("op %d: parallel %d rows, serial %d, or different rows", i, len(got), len(rows))
		}
	}
}

// TestExecuteBatchMixed drives reads and writes through the executor
// across two tables and checks per-op results land at their positions.
func TestExecuteBatchMixed(t *testing.T) {
	db := NewDB(hermit.PhysicalPointers)
	for _, name := range []string{"a", "b"} {
		tb, err := db.CreateTable(name, []string{"id", "v"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if _, err := tb.Insert([]float64{float64(i), float64(i * 2)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var ops []Op
	for i := 0; i < 50; i++ {
		name := []string{"a", "b"}[i%2]
		switch i % 4 {
		case 0:
			ops = append(ops, Op{Table: name, Kind: OpInsert, Row: []float64{float64(1000 + i), 1}})
		case 1:
			ops = append(ops, Op{Table: name, Kind: OpQuery, Query: Query{Col: 0, Lo: float64(i), Hi: float64(i)}})
		case 2:
			ops = append(ops, Op{Table: name, Kind: OpUpdate, PK: float64(i), Col: 1, Value: -1})
		default:
			ops = append(ops, Op{Table: name, Kind: OpDelete, PK: float64(90 + i%10)})
		}
	}
	ops = append(ops, Op{Table: "missing", Kind: OpQuery, Query: Query{Col: 0, Lo: 1, Hi: 1}})
	results := db.ExecuteBatch(ops, 4)
	for i, op := range ops {
		r := results[i]
		if op.Table == "missing" {
			if r.Err == nil {
				t.Fatal("expected error for missing table")
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("op %d (%v on %s): %v", i, op.Kind, op.Table, r.Err)
		}
		if op.Kind == OpQuery && r.Stats.Rows != 1 {
			t.Fatalf("op %d: point query found %d rows", i, r.Stats.Rows)
		}
	}
	// Inserted rows are queryable afterwards.
	for i := 0; i < 50; i += 4 {
		tb, _ := db.Table([]string{"a", "b"}[i%2])
		rids, _, err := rowsOf(tb, Query{Col: 0, Lo: float64(1000 + i), Hi: float64(1000 + i)})
		if err != nil || len(rids) != 1 {
			t.Fatalf("inserted pk %d: rids=%d err=%v", 1000+i, len(rids), err)
		}
	}
}

// TestExecuteBatchMalformedOps: batches are atomic transactions, so a
// malformed mutation must abort the whole batch — every mutation errors
// (the malformed one with its specific error, the rest with
// ErrTxnAborted), nothing is applied, and the process stays up.
func TestExecuteBatchMalformedOps(t *testing.T) {
	db := NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("t", []string{"id", "v"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	results := db.ExecuteBatch([]Op{
		{Table: "t", Kind: OpInsert, Row: []float64{7, 8}},        // valid, but aborted below
		{Table: "t", Kind: OpQuery, Query: Query{Col: 99, Hi: 1}}, // bad column: per-op query error
		{Table: "t", Kind: OpInsert},                              // nil row: aborts the txn
		{Table: "t", Kind: OpInsert, Row: []float64{1}},           // never attempted
		{Table: "t", Kind: OpUpdate, PK: 7, Col: 99, Value: 0},    // never attempted
		{Table: "t", Kind: OpKind(42), Row: []float64{1, 2}},      // never attempted
	}, 4)
	for i, wantErr := range []bool{true, true, true, true, true, true} {
		if (results[i].Err != nil) != wantErr {
			t.Fatalf("op %d: err=%v, wantErr=%v", i, results[i].Err, wantErr)
		}
	}
	if !errors.Is(results[0].Err, ErrTxnAborted) {
		t.Fatalf("valid mutation in aborted batch: err=%v, want ErrTxnAborted", results[0].Err)
	}
	if errors.Is(results[2].Err, ErrTxnAborted) {
		t.Fatalf("failing op should carry its own error, got ErrTxnAborted")
	}
	if rids, _, err := rowsOf(tb, Query{Col: 0, Lo: 7, Hi: 7}); err != nil || len(rids) != 0 {
		t.Fatalf("aborted batch leaked a row: rids=%d err=%v", len(rids), err)
	}
	// The same valid insert in a clean batch applies.
	clean := db.ExecuteBatch([]Op{{Table: "t", Kind: OpInsert, Row: []float64{7, 8}}}, 1)
	if clean[0].Err != nil {
		t.Fatalf("clean batch: %v", clean[0].Err)
	}
	if rids, _, err := rowsOf(tb, Query{Col: 0, Lo: 7, Hi: 7}); err != nil || len(rids) != 1 {
		t.Fatalf("clean batch not applied: rids=%d err=%v", len(rids), err)
	}
}

// TestQueryConcurrentAcrossIndexes issues batches that fan out over all
// index kinds at once, the "concurrent readers on different indexes never
// contend" property the latching is for.
func TestQueryConcurrentAcrossIndexes(t *testing.T) {
	db, tb := buildConcurrentTable(t, 3000)
	spec := workload.SyntheticSpec{}
	var reqs []Op
	gen := workload.QueryGen(0, workload.SyntheticSpan, 0.03, 5)
	for i := 0; i < 120; i++ {
		q := gen()
		switch i % 3 {
		case 0:
			reqs = append(reqs, Op{Table: tb.Name(), Kind: OpQuery, Query: Query{Col: spec.PKCol(), Lo: q.Lo, Hi: q.Hi}})
		case 1:
			reqs = append(reqs, Op{Table: tb.Name(), Kind: OpQuery, Query: Query{Col: spec.HostCol(), Lo: 2*q.Lo + 100, Hi: 2*q.Hi + 100}})
		default:
			reqs = append(reqs, Op{Table: tb.Name(), Kind: OpQuery, Query: Query{Col: spec.TargetCol(), Lo: q.Lo, Hi: q.Hi}})
		}
	}
	for _, workers := range []int{1, 4, 16} {
		results := db.ExecuteBatch(reqs, workers)
		if len(results) != len(reqs) {
			t.Fatalf("workers=%d: %d results for %d reqs", workers, len(results), len(reqs))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d req %d: %v", workers, i, r.Err)
			}
		}
	}
}

// TestConcurrentInsertDuplicateKeys races many goroutines inserting the
// same keys; exactly one insert per key must win.
func TestConcurrentInsertDuplicateKeys(t *testing.T) {
	db := NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("dup", []string{"id", "v"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 50
	const contenders = 8
	var wins atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < contenders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				if _, err := tb.Insert([]float64{float64(k), float64(c)}); err == nil {
					wins.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if got := wins.Load(); got != keys {
		t.Fatalf("%d successful inserts for %d keys", got, keys)
	}
	if tb.Len() != keys {
		t.Fatalf("table has %d rows, want %d", tb.Len(), keys)
	}
	for k := 0; k < keys; k++ {
		rids, _, err := rowsOf(tb, Query{Col: 0, Lo: float64(k), Hi: float64(k)})
		if err != nil || len(rids) != 1 {
			t.Fatalf("key %d: rids=%d err=%v", k, len(rids), err)
		}
	}
}

// TestHermitHostLatchBoundAtCreation regression-tests the latch binding:
// a Hermit index hosted on the primary index must keep latching the
// primary even after a secondary B+-tree appears on the pk column, and
// lookups must stay race-free against concurrent writers.
func TestHermitHostLatchBoundAtCreation(t *testing.T) {
	db := NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("t", []string{"id", "v"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := tb.Insert([]float64{float64(i), float64(i) * 1.5}); err != nil {
			t.Fatal(err)
		}
	}
	// Hermit on "v" hosted on the primary index (§5.2's pk-as-host case).
	if _, err := tb.CreateHermitIndex(1, 0); err != nil {
		t.Fatal(err)
	}
	if tb.get(KindHermit, 1, noCol).hostMu != &tb.mvccMu {
		t.Fatal("hermit host latch not bound to primary")
	}
	// A complete index on the pk column created later must not steal the
	// binding: the lookup still scans the primary B+-tree.
	if _, err := tb.CreateBTreeIndex(0, true); err != nil {
		t.Fatal(err)
	}
	if tb.get(KindHermit, 1, noCol).hostMu != &tb.mvccMu {
		t.Fatal("hermit host latch rebound away from primary by later DDL")
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if _, err := tb.Insert([]float64{float64(10000 + i), float64(i)}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if _, _, err := rowsOf(tb, Query{Col: 1, Lo: 100, Hi: 200}); err != nil {
				t.Errorf("hermit lookup: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestUpdatePrimaryKeyRejected: changing the pk column would desynchronise
// the primary index and the per-key stripes, so it must be refused
// unconditionally (even a same-value update, for consistent behaviour).
func TestUpdatePrimaryKeyRejected(t *testing.T) {
	db := NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("t", []string{"id", "v"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert([]float64{5, 1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.UpdateColumn(5, 0, 9); err == nil {
		t.Fatal("pk change accepted")
	}
	if err := tb.UpdateColumn(5, 0, 5); err == nil {
		t.Fatal("same-value pk update accepted; rejection should be unconditional")
	}
	rids, _, err := rowsOf(tb, Query{Col: 0, Lo: 5, Hi: 5})
	if err != nil || len(rids) != 1 {
		t.Fatalf("row lost after rejected pk update: rids=%d err=%v", len(rids), err)
	}
}

// TestUpdateMaintainsCompositeIndexes: UpdateColumn must reindex composite
// B+-trees and composite Hermit indexes on either component, so a
// two-column query neither returns stale entries nor misses moved rows.
func TestUpdateMaintainsCompositeIndexes(t *testing.T) {
	db := NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("t", []string{"id", "a", "n", "m"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		f := float64(i)
		// m tracks n so the composite Hermit correlation is usable.
		if _, err := tb.Insert([]float64{f, f / 10, f * 2, f*2 + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.CreateCompositeBTreeIndex(1, 2, false); err != nil { // (a, n)
		t.Fatal(err)
	}
	if _, err := tb.CreateCompositeHermitIndex(1, 3, 2); err != nil { // (a, m) over (a, n)
		t.Fatal(err)
	}
	// Move row 100's second component n: 200 -> 9000.
	if err := tb.UpdateColumn(100, 2, 9000); err != nil {
		t.Fatal(err)
	}
	if rids, _, err := rowsOf(tb, Query{Col: 1, Lo: 10, Hi: 10, And: &Pred{Col: 2, Lo: 200, Hi: 200}}); err != nil || len(rids) != 0 {
		t.Fatalf("stale composite entry after n update: rids=%d err=%v", len(rids), err)
	}
	if rids, _, err := rowsOf(tb, Query{Col: 1, Lo: 10, Hi: 10, And: &Pred{Col: 2, Lo: 9000, Hi: 9000}}); err != nil || len(rids) != 1 {
		t.Fatalf("moved row not found via composite: rids=%d err=%v", len(rids), err)
	}
	// Move row 200's leading component a: 20 -> 777.
	if err := tb.UpdateColumn(200, 1, 777); err != nil {
		t.Fatal(err)
	}
	if rids, _, err := rowsOf(tb, Query{Col: 1, Lo: 20, Hi: 20, And: &Pred{Col: 2, Lo: 400, Hi: 400}}); err != nil || len(rids) != 0 {
		t.Fatalf("stale composite entry after a update: rids=%d err=%v", len(rids), err)
	}
	if rids, _, err := rowsOf(tb, Query{Col: 1, Lo: 777, Hi: 777, And: &Pred{Col: 2, Lo: 400, Hi: 400}}); err != nil || len(rids) != 1 {
		t.Fatalf("moved row not found after a update: rids=%d err=%v", len(rids), err)
	}
	// Move row 300's composite-Hermit target m: 601 -> 5555; the (a, m)
	// lookup must validate correctly against the moved value.
	if err := tb.UpdateColumn(300, 3, 5555); err != nil {
		t.Fatal(err)
	}
	if rids, _, err := rowsOf(tb, Query{Col: 1, Lo: 30, Hi: 30, And: &Pred{Col: 3, Lo: 601, Hi: 601}}); err != nil || len(rids) != 0 {
		t.Fatalf("stale composite hermit result: rids=%d err=%v", len(rids), err)
	}
	if rids, _, err := rowsOf(tb, Query{Col: 1, Lo: 30, Hi: 30, And: &Pred{Col: 3, Lo: 5555, Hi: 5555}}); err != nil || len(rids) != 1 {
		t.Fatalf("moved target not found via composite hermit: rids=%d err=%v", len(rids), err)
	}
}

// reorgAll rebuilds every first-level subtree of hx's TRS-Tree from the
// table.
func reorgAll(hx *hermit.Index) error {
	for i := range hx.Tree().Params().NodeFanout {
		if err := hx.Tree().ReorgSubtree(i, hx.Source()); err != nil {
			return err
		}
	}
	return nil
}

// TestConcurrentHermitReorg keeps Hermit lookups and writes running while
// forcing TRS-Tree reorganizations, the §4.4/Appendix B protocol.
func TestConcurrentHermitReorg(t *testing.T) {
	_, tb := buildConcurrentTable(t, 3000)
	spec := workload.SyntheticSpec{}
	hx := tb.Hermit(spec.TargetCol())
	if hx == nil {
		t.Fatal("no hermit index")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := workload.QueryGen(0, workload.SyntheticSpan, 0.05, 11)
		for {
			select {
			case <-stop:
				return
			default:
			}
			q := gen()
			if _, _, err := rowsOf(tb, Query{Col: spec.TargetCol(), Lo: q.Lo, Hi: q.Hi}); err != nil {
				t.Errorf("lookup during reorg: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			pk := float64(100000 + i)
			c := float64(i % 1000)
			// Uncorrelated colB values land in outlier buffers for the
			// reorganizations to refit.
			if _, err := tb.Insert([]float64{pk, 9e6, c, 0}); err != nil {
				t.Errorf("insert during reorg: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if err := reorgAll(hx); err != nil {
			t.Fatalf("reorg: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}
