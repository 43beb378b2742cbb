package engine

import (
	"errors"
	"math"
	"sync"
	"testing"

	"hermit/internal/hermit"
	"hermit/internal/storage"
)

// The auto-commit insert's two shortcuts: a quiet insert of a fresh key is
// born frozen (stampInsert), and a key above the table's key ceiling skips
// the duplicate probe (applyInsert).

// versionBooks is what a stamp and a freeze keep count of.
type versionBooks struct {
	headers, granFree int
	late              int64
}

func booksOf(tb *Table) versionBooks {
	tb.mvccMu.RLock()
	defer tb.mvccMu.RUnlock()
	return versionBooks{headers: tb.headers, granFree: len(tb.granFree), late: tb.late.Load()}
}

func headerOf(tb *Table, rid storage.RID) verHeader {
	tb.mvccMu.RLock()
	defer tb.mvccMu.RUnlock()
	return tb.header(rid)
}

// applyInsertOnly runs an auto-commit insert up to and including its commit,
// without the reclamation that ends Insert.
func applyInsertOnly(t *testing.T, tb *Table, row []float64) storage.RID {
	t.Helper()
	tb.catalog.RLock()
	rid, _, err := tb.applyInsert(row)
	tb.catalog.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	return rid
}

// TestQuietInsertIsBornFrozen: with no snapshot open, an insert of a fresh
// key writes no header — the counts of headers and late versions and the
// granule free list do not move — and its slot reads as frozen.
func TestQuietInsertIsBornFrozen(t *testing.T) {
	_, tb := newTxnTable(t)
	before := booksOf(tb)
	for i := 0; i < 300; i++ { // across granules
		rid, err := tb.Insert([]float64{float64(1000 + i), 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if h := headerOf(tb, rid); h != frozenHeader {
			t.Fatalf("insert %d: header %+v, want frozen", i, h)
		}
	}
	if after := booksOf(tb); after != before {
		t.Fatalf("quiet inserts moved the books: %+v -> %+v", before, after)
	}
	tb.mvccMu.RLock()
	defer tb.mvccMu.RUnlock()
	for b, vb := range tb.vers {
		for g, gr := range vb.gran {
			if gr != nil {
				t.Fatalf("block %d granule %d exists after quiet inserts only", b, g)
			}
		}
	}
}

// TestInsertUnderSnapshotKeepsHeader: an open snapshot below the commit
// keeps the version's header (late, waiting on the horizon); once the
// snapshot is released, the sweep at the end of the next commits freezes it.
func TestInsertUnderSnapshotKeepsHeader(t *testing.T) {
	db, tb := newTxnTable(t)
	before := booksOf(tb)
	snap := db.Snapshot()
	rid, err := tb.Insert([]float64{500, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := verHeader{beginTS: snap.TS() + 1, prev: noRID}
	if h := headerOf(tb, rid); h != want {
		t.Fatalf("insert under a snapshot: header %+v, want %+v", h, want)
	}
	if got := booksOf(tb); got.headers != before.headers+1 || got.late != before.late+1 {
		t.Fatalf("books %+v after one late insert, were %+v", got, before)
	}
	rows, _, err := rowsOf(tb, Query{Col: 0, Lo: 500, Hi: 500, Snap: snap})
	if err != nil || len(rows) != 0 {
		t.Fatalf("the snapshot sees the later insert: %v %v", rows, err)
	}
	snap.Release()
	for i := 0; headerOf(tb, rid) != frozenHeader; i++ {
		if i == 10 {
			t.Fatalf("10 commits after Release the version still has header %+v", headerOf(tb, rid))
		}
		if _, err := tb.Insert([]float64{float64(600 + i), 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if got := booksOf(tb); got.headers != before.headers || got.late != 0 {
		t.Fatalf("books %+v after the sweep, want %d headers and none late", got, before.headers)
	}
}

// TestReinsertOverUnreclaimedDeleteStampsHeader: a key whose deleted version
// is still queued has a chain, so its re-insert links to it and is stamped
// even with no snapshot open; the reclamation that cuts the link freezes it.
func TestReinsertOverUnreclaimedDeleteStampsHeader(t *testing.T) {
	db, tb := newTxnTable(t)
	snap := db.Snapshot()
	tb.mvccMu.RLock()
	id, _ := tb.primary.Get(7)
	tb.mvccMu.RUnlock()
	dead := storage.RID(id)
	if ok, err := tb.Delete(7); !ok || err != nil {
		t.Fatalf("delete: %v %v", ok, err)
	}
	snap.Release() // nothing pins the deleted version now, but it is queued
	if n := tb.VersionStats().Pending; n != 1 {
		t.Fatalf("pending %d, want the deleted version", n)
	}
	rid := applyInsertOnly(t, tb, []float64{7, 70, 0})
	h := headerOf(tb, rid)
	if h == frozenHeader || h.prev != dead || h.beginTS == 0 || h.endTS != 0 {
		t.Fatalf("re-insert over a queued delete: header %+v, want stamped with prev %d", h, dead)
	}
	tb.reclaimAfter(1)
	if h := headerOf(tb, rid); h != frozenHeader {
		t.Fatalf("after the delete is reclaimed: header %+v, want frozen", h)
	}
	if rows, _, _ := rowsOf(tb, Query{Col: 0, Lo: 7, Hi: 7}); len(rows) != 1 || rows[0][1] != 70 {
		t.Fatalf("re-inserted row reads %v", rows)
	}
}

// TestDuplicateRejectedAroundCeiling: a duplicate is rejected whether the
// key is at the ceiling or below it (a key above it has never been added),
// for the keys < cannot place — ±0 and NaN payloads — for ±Inf, and for a
// key whose chain a delete and reclamation removed.
func TestDuplicateRejectedAroundCeiling(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan1 := math.Float64frombits(0x7FF8000000000001)
	nan2 := math.Float64frombits(0xFFF8000000000002)
	for _, c := range []struct {
		name string
		ok   []float64 // inserted in order, each accepted
		dup  []float64 // then each rejected
	}{
		{"at and below", []float64{10, 20}, []float64{20, 10}},
		{"-0 then +0", []float64{negZero}, []float64{0, negZero}},
		{"+0 then -0", []float64{0}, []float64{negZero, 0}},
		{"zero above a negative ceiling", []float64{-5, 0}, []float64{negZero, -5}},
		{"zero below the ceiling", []float64{5, negZero}, []float64{0}},
		{"NaN payloads", []float64{nan1, 3, nan2}, []float64{nan1, nan2}},
		{"+Inf", []float64{math.Inf(1), math.MaxFloat64}, []float64{math.Inf(1), math.MaxFloat64}},
		{"-Inf on an empty table", []float64{math.Inf(-1)}, []float64{math.Inf(-1)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb, err := NewDB(hermit.PhysicalPointers).CreateTable("t", []string{"pk", "v"}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range c.ok {
				if _, err := tb.Insert([]float64{k, 1}); err != nil {
					t.Fatalf("insert %v (ceiling %v): %v", k, tb.ceiling(), err)
				}
			}
			for _, k := range c.dup {
				if _, err := tb.Insert([]float64{k, 2}); !errors.Is(err, ErrDupKey) {
					t.Fatalf("duplicate %v (ceiling %v): got %v, want ErrDupKey", k, tb.ceiling(), err)
				}
			}
			if n := tb.Len(); n != len(c.ok) {
				t.Fatalf("%d live rows, want %d", n, len(c.ok))
			}
		})
	}
	t.Run("after delete and reclamation", func(t *testing.T) {
		_, tb := newTxnTable(t)
		top := float64(99) // newTxnTable's greatest key: the ceiling
		for _, k := range []float64{top, 50} {
			if ok, _ := tb.Delete(k); !ok {
				t.Fatalf("delete %v", k)
			}
			if n := tb.VersionStats().Pending; n != 0 {
				t.Fatalf("delete %v left %d pending", k, n)
			}
			if _, err := tb.Insert([]float64{k, 1, 1}); err != nil {
				t.Fatalf("re-insert %v after reclamation: %v", k, err)
			}
			if _, err := tb.Insert([]float64{k, 2, 2}); !errors.Is(err, ErrDupKey) {
				t.Fatalf("duplicate %v after re-insert: got %v, want ErrDupKey", k, err)
			}
		}
		if c := tb.ceiling(); c != top {
			t.Fatalf("ceiling %v, want %v: it never falls", c, top)
		}
	})
}

// TestFreshKeyRaceOneWins: two goroutines insert the same ascending fresh
// keys, each above the ceiling when the first of them reads it; exactly one
// insert of every key succeeds (run it under -race).
func TestFreshKeyRaceOneWins(t *testing.T) {
	tb, err := NewDB(hermit.PhysicalPointers).CreateTable("t", []string{"pk", "v"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	var won [2][n]bool
	var wg sync.WaitGroup
	for g := range won {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < n; k++ {
				_, err := tb.Insert([]float64{float64(k), float64(g)})
				switch {
				case err == nil:
					won[g][k] = true
				case !errors.Is(err, ErrDupKey):
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := 0; k < n; k++ {
		if won[0][k] == won[1][k] {
			t.Fatalf("key %d: goroutine 0 won %v, goroutine 1 won %v", k, won[0][k], won[1][k])
		}
	}
	if live := tb.Len(); live != n {
		t.Fatalf("%d live rows, want %d", live, n)
	}
}
