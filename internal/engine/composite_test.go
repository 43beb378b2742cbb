package engine

import (
	"math/rand"
	"testing"

	"hermit/internal/hermit"
	"hermit/internal/storage"
)

// newStockHistory builds the paper's running-example table:
// 0=TIME, 1=DJ, 2=SP (correlated with DJ), 3=VOL, with the (TIME, DJ)
// composite host index in place.
func newStockHistory(t testing.TB, n int, seed int64) *Table {
	t.Helper()
	db := NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("stock_history", []string{"TIME", "DJ", "SP", "VOL"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	dj := 2500.0
	for day := 0; day < n; day++ {
		dj *= 1 + rng.NormFloat64()*0.01
		sp := dj/8 + rng.NormFloat64()*0.05
		if rng.Float64() < 0.003 {
			sp = rng.Float64() * dj / 4 // decoupled day
		}
		if _, err := tb.Insert([]float64{float64(day), dj, sp, rng.Float64() * 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.CreateCompositeBTreeIndex(0, 1, false); err != nil {
		t.Fatal(err)
	}
	return tb
}

func expected2(tb *Table, aCol int, aLo, aHi float64, bCol int, bLo, bHi float64) [][]float64 {
	var out [][]float64
	tb.ScanLive(func(_ storage.RID, row []float64) bool {
		if row[aCol] >= aLo && row[aCol] <= aHi && row[bCol] >= bLo && row[bCol] <= bHi {
			out = append(out, append([]float64(nil), row...))
		}
		return true
	})
	return out
}

func TestCompositeEngineRunningExample(t *testing.T) {
	tbH := newStockHistory(t, 15000, 1)
	tbB := newStockHistory(t, 15000, 1)
	if _, err := tbH.CreateCompositeHermitIndex(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tbB.CreateCompositeBTreeIndex(0, 2, true); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		aLo := rng.Float64() * 14000
		aHi := aLo + rng.Float64()*2000
		spLo := 100 + rng.Float64()*400
		spHi := spLo + rng.Float64()*100
		want := expected2(tbH, 0, aLo, aHi, 2, spLo, spHi)
		rh, sh, err := rowsOf(tbH, Query{Col: 0, Lo: aLo, Hi: aHi, And: &Pred{Col: 2, Lo: spLo, Hi: spHi}})
		if err != nil {
			t.Fatal(err)
		}
		rb, sb, err := rowsOf(tbB, Query{Col: 0, Lo: aLo, Hi: aHi, And: &Pred{Col: 2, Lo: spLo, Hi: spHi}})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(rh, want) {
			t.Fatalf("composite hermit wrong for TIME[%v,%v] SP[%v,%v]", aLo, aHi, spLo, spHi)
		}
		if !sameRows(rb, want) {
			t.Fatal("composite baseline wrong")
		}
		if sh.Kind != KindHermit || sb.Kind != KindBTree {
			t.Fatalf("kinds %v/%v", sh.Kind, sb.Kind)
		}
	}
	// The composite hermit's TRS-Tree is far smaller than the complete
	// composite index.
	mH, mB := tbH.Memory(), tbB.Memory()
	if mH.NewBytes*3 > mB.NewBytes {
		t.Fatalf("composite hermit new=%d not ≪ baseline new=%d", mH.NewBytes, mB.NewBytes)
	}
	if tbH.CompositeHermit(0, 2) == nil {
		t.Fatal("accessor")
	}
}

func TestCompositeEngineErrors(t *testing.T) {
	tb := newStockHistory(t, 500, 3)
	if _, err := tb.CreateCompositeBTreeIndex(0, 99, false); err != ErrNoSuchColumn {
		t.Fatal(err)
	}
	if _, err := tb.CreateCompositeBTreeIndex(0, 1, false); err != ErrDupIndex {
		t.Fatal(err)
	}
	if _, err := tb.CreateCompositeHermitIndex(0, 2, 3); err != ErrNoHostIndex {
		t.Fatal(err)
	}
	if _, err := tb.CreateCompositeHermitIndex(0, 99, 1); err != ErrNoSuchColumn {
		t.Fatal(err)
	}
	if _, err := tb.CreateCompositeHermitIndex(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateCompositeHermitIndex(0, 2, 1); err != ErrDupIndex {
		t.Fatal(err)
	}
	if _, _, err := rowsOf(tb, Query{Col: 99, Lo: 0, Hi: 1, And: &Pred{Col: 0, Lo: 0, Hi: 1}}); err != ErrNoSuchColumn {
		t.Fatal(err)
	}
	// Logical-pointer DB rejects composite indexes.
	db := NewDB(hermit.LogicalPointers)
	tb2, _ := db.CreateTable("t", []string{"a", "b"}, 0)
	tb2.Insert([]float64{1, 2})
	if _, err := tb2.CreateCompositeBTreeIndex(0, 1, false); err == nil {
		t.Fatal("logical composite accepted")
	}
	if _, err := tb2.CreateCompositeHermitIndex(0, 1, 0); err == nil {
		t.Fatal("logical composite hermit accepted")
	}
}

func TestRangeQuery2SingleColumnFallback(t *testing.T) {
	// No composite index on (0, 3): falls back to the TIME index plus a
	// residual filter on VOL.
	tb := newStockHistory(t, 3000, 4)
	rids, st, err := rowsOf(tb, Query{Col: 0, Lo: 100, Hi: 200, And: &Pred{Col: 3, Lo: 0, Hi: 5e5}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindPrimary {
		t.Fatalf("fallback kind=%v", st.Kind)
	}
	if !sameRows(rids, expected2(tb, 0, 100, 200, 3, 0, 5e5)) {
		t.Fatal("fallback results wrong")
	}
}

func TestCompositeMaintenanceThroughEngine(t *testing.T) {
	tb := newStockHistory(t, 2000, 5)
	if _, err := tb.CreateCompositeHermitIndex(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	// Insert, query, delete.
	row := []float64{99999, 3000, 375, 1}
	if _, err := tb.Insert(row); err != nil {
		t.Fatal(err)
	}
	rids, _, err := rowsOf(tb, Query{Col: 0, Lo: 99999, Hi: 99999, And: &Pred{Col: 2, Lo: 375, Hi: 375}})
	if err != nil || len(rids) != 1 {
		t.Fatalf("inserted row not found: %v %v", rids, err)
	}
	if ok, err := tb.Delete(99999); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	rids, _, err = rowsOf(tb, Query{Col: 0, Lo: 99999, Hi: 99999, And: &Pred{Col: 2, Lo: 375, Hi: 375}})
	if err != nil || len(rids) != 0 {
		t.Fatalf("deleted row visible: %v %v", rids, err)
	}
	rids, _, err = rowsOf(tb, Query{Col: 0, Lo: 0, Hi: 2000, And: &Pred{Col: 2, Lo: 0, Hi: 1e9}})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rids, expected2(tb, 0, 0, 2000, 2, 0, 1e9)) {
		t.Fatal("full-range composite query wrong after maintenance")
	}
}
