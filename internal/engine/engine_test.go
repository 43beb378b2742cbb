package engine

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hermit/internal/cm"
	"hermit/internal/correlation"
	"hermit/internal/hermit"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// loadSynthetic fills a table in the Appendix A Synthetic layout:
// colA (pk), colB (host = fn(colC), noisy), colC (target), colD (payload).
func loadSynthetic(t testing.TB, tb *Table, n int, fn func(float64) float64, noise float64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c := rng.Float64() * 1000
		b := fn(c)
		if rng.Float64() < noise {
			b = rng.Float64() * 3000
		}
		if _, err := tb.Insert([]float64{float64(i), b, c, rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
}

func linearFn(c float64) float64  { return 2*c + 100 }
func sigmoidFn(c float64) float64 { return 10000 / (1 + math.Exp(-(c-500)/80)) }

var synthCols = []string{"colA", "colB", "colC", "colD"}

func newSynthetic(t testing.TB, scheme hermit.PointerScheme, n int, fn func(float64) float64, noise float64, seed int64) (*DB, *Table) {
	t.Helper()
	db := NewDB(scheme)
	tb, err := db.CreateTable("synthetic", synthCols, 0)
	if err != nil {
		t.Fatal(err)
	}
	loadSynthetic(t, tb, n, fn, noise, seed)
	if _, err := tb.CreateBTreeIndex(1, false); err != nil { // host index on colB
		t.Fatal(err)
	}
	return db, tb
}

// rowsOf runs q through Exec and views the answer one slice per row.
func rowsOf(tb *Table, q Query) ([][]float64, QueryStats, error) {
	flat, st, err := tb.Exec(q, nil)
	return SplitRows(flat, len(tb.cols), nil), st, err
}

// expected computes the ground truth by scanning the live rows (the raw
// store also holds superseded/deleted versions awaiting GC).
func expected(tb *Table, col int, lo, hi float64) [][]float64 {
	var out [][]float64
	tb.ScanLive(func(_ storage.RID, row []float64) bool {
		if v := row[col]; v >= lo && v <= hi {
			out = append(out, append([]float64(nil), row...))
		}
		return true
	})
	return out
}

// sameRows reports whether a and b hold the same rows, in any order.
func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	byPK := func(rows [][]float64) [][]float64 {
		rows = slices.Clone(rows)
		slices.SortFunc(rows, func(x, y []float64) int { return cmp.Compare(x[0], y[0]) })
		return rows
	}
	return slices.EqualFunc(byPK(a), byPK(b), slices.Equal[[]float64])
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDB(hermit.PhysicalPointers)
	if _, err := db.CreateTable("t", synthCols, 9); err != ErrNoSuchColumn {
		t.Fatalf("want ErrNoSuchColumn, got %v", err)
	}
	if _, err := db.CreateTable("t", synthCols, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", synthCols, 0); err != ErrDupTable {
		t.Fatalf("want ErrDupTable, got %v", err)
	}
	if _, err := db.Table("nope"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("want ErrNoSuchTable, got %v", err)
	}
	tb, err := db.Table("t")
	if err != nil || tb.Name() != "t" {
		t.Fatalf("table lookup: %v", err)
	}
	if db.Scheme() != hermit.PhysicalPointers {
		t.Fatal("scheme")
	}
	if got := tb.Columns(); len(got) != 4 || got[0] != "colA" {
		t.Fatalf("columns=%v", got)
	}
	if _, err := tb.colIndex("colC"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.colIndex("nope"); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatal("colIndex missing")
	}
}

func TestDuplicatePKRejected(t *testing.T) {
	db := NewDB(hermit.PhysicalPointers)
	tb, _ := db.CreateTable("t", synthCols, 0)
	if _, err := tb.Insert([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert([]float64{1, 9, 9, 9}); !errors.Is(err, ErrDupKey) {
		t.Fatalf("want ErrDupKey, got %v", err)
	}
}

func TestHermitVsBaselineSameResults(t *testing.T) {
	for _, scheme := range []hermit.PointerScheme{hermit.PhysicalPointers, hermit.LogicalPointers} {
		dbH, tbH := newSynthetic(t, scheme, 20000, sigmoidFn, 0.05, 1)
		_, tbB := newSynthetic(t, scheme, 20000, sigmoidFn, 0.05, 1)
		_ = dbH
		if _, err := tbH.CreateHermitIndex(2, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := tbB.CreateBTreeIndex(2, true); err != nil {
			t.Fatal(err)
		}
		if tbH.IndexOn(2) != KindHermit || tbB.IndexOn(2) != KindBTree {
			t.Fatal("routing wrong")
		}
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 25; trial++ {
			lo := rng.Float64() * 1000
			hi := lo + rng.Float64()*80
			rh, sh, err := rowsOf(tbH, Query{Col: 2, Lo: lo, Hi: hi})
			if err != nil {
				t.Fatal(err)
			}
			rb, sb, err := rowsOf(tbB, Query{Col: 2, Lo: lo, Hi: hi})
			if err != nil {
				t.Fatal(err)
			}
			want := expected(tbH, 2, lo, hi)
			if !sameRows(rh, want) {
				t.Fatalf("%v hermit wrong for [%v,%v]", scheme, lo, hi)
			}
			if !sameRows(rb, want) {
				t.Fatalf("%v baseline wrong for [%v,%v]", scheme, lo, hi)
			}
			if sh.Rows != len(want) || sb.Rows != len(want) {
				t.Fatal("row counts wrong")
			}
		}
	}
}

func TestQueryRouting(t *testing.T) {
	_, tb := newSynthetic(t, hermit.PhysicalPointers, 5000, linearFn, 0.01, 3)
	// Primary-key routing.
	rids, st, err := rowsOf(tb, Query{Col: 0, Lo: 10, Hi: 20})
	if err != nil || st.Kind != KindPrimary {
		t.Fatalf("pk routing kind=%v err=%v", st.Kind, err)
	}
	if !sameRows(rids, expected(tb, 0, 10, 20)) {
		t.Fatal("pk results")
	}
	// Unindexed column falls back to a scan.
	rids, st, err = rowsOf(tb, Query{Col: 3, Lo: 0.1, Hi: 0.2})
	if err != nil || st.Kind != KindNone {
		t.Fatalf("scan routing kind=%v err=%v", st.Kind, err)
	}
	if !sameRows(rids, expected(tb, 3, 0.1, 0.2)) {
		t.Fatal("scan results")
	}
	// Host column uses its complete index.
	_, st, err = rowsOf(tb, Query{Col: 1, Lo: 200, Hi: 400})
	if err != nil || st.Kind != KindBTree {
		t.Fatalf("host routing kind=%v err=%v", st.Kind, err)
	}
	// Out-of-range column.
	if _, _, err := rowsOf(tb, Query{Col: 99, Lo: 0, Hi: 1}); err != ErrNoSuchColumn {
		t.Fatalf("want ErrNoSuchColumn, got %v", err)
	}
	// Point query.
	pk := 1234.0
	rids, _, err = rowsOf(tb, Query{Col: 0, Lo: pk, Hi: pk})
	if err != nil || len(rids) != 1 {
		t.Fatalf("point query: %v %v", rids, err)
	}
}

func TestCreateIndexErrors(t *testing.T) {
	_, tb := newSynthetic(t, hermit.PhysicalPointers, 1000, linearFn, 0, 4)
	if _, err := tb.CreateBTreeIndex(99, false); err != ErrNoSuchColumn {
		t.Fatal(err)
	}
	if _, err := tb.CreateBTreeIndex(1, false); err != ErrDupIndex {
		t.Fatal(err)
	}
	if _, err := tb.CreateHermitIndex(2, 3); err != ErrNoHostIndex {
		t.Fatalf("unindexed host accepted: %v", err)
	}
	if _, err := tb.CreateHermitIndex(99, 1); err != ErrNoSuchColumn {
		t.Fatal(err)
	}
	if _, err := tb.CreateHermitIndex(2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateHermitIndex(2, 1); err != ErrDupIndex {
		t.Fatal(err)
	}
	if tb.Hermit(2) == nil || tb.Secondary(1) == nil || tb.CM(2) != nil {
		t.Fatal("accessors")
	}
}

func TestHermitOnPrimaryHost(t *testing.T) {
	// §5.2: "a primary index can also serve as the host index".
	db := NewDB(hermit.PhysicalPointers)
	tb, _ := db.CreateTable("t", []string{"pk", "corr"}, 0)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		pk := float64(i)
		tb.Insert([]float64{pk, 3*pk + 7 + rng.NormFloat64()})
	}
	if _, err := tb.CreateHermitIndex(1, 0); err != nil {
		t.Fatal(err)
	}
	lo, hi := 3000.0, 3300.0
	rids, _, err := rowsOf(tb, Query{Col: 1, Lo: lo, Hi: hi})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rids, expected(tb, 1, lo, hi)) {
		t.Fatal("primary-hosted hermit wrong")
	}
	// Logical pointers cannot host on the primary index.
	db2 := NewDB(hermit.LogicalPointers)
	tb2, _ := db2.CreateTable("t", []string{"pk", "corr"}, 0)
	tb2.Insert([]float64{1, 2})
	if _, err := tb2.CreateHermitIndex(1, 0); err == nil {
		t.Fatal("logical-pointer primary host accepted")
	}
}

func TestCreateIndexAuto(t *testing.T) {
	_, tb := newSynthetic(t, hermit.PhysicalPointers, 8000, linearFn, 0.02, 6)
	kind, err := tb.CreateIndexAuto(2, correlation.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindHermit {
		t.Fatalf("correlated column built %v, want hermit", kind)
	}
	// colD is uncorrelated: falls back to a complete index.
	kind, err = tb.CreateIndexAuto(3, correlation.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindBTree {
		t.Fatalf("uncorrelated column built %v, want btree", kind)
	}
	rids, _, err := rowsOf(tb, Query{Col: 3, Lo: 0.2, Hi: 0.4})
	if err != nil || !sameRows(rids, expected(tb, 3, 0.2, 0.4)) {
		t.Fatal("auto btree results wrong")
	}
}

func TestDeleteMaintainsAllIndexes(t *testing.T) {
	_, tb := newSynthetic(t, hermit.LogicalPointers, 5000, linearFn, 0.02, 7)
	if _, err := tb.CreateHermitIndex(2, 1); err != nil {
		t.Fatal(err)
	}
	// Delete a third of the rows.
	for pk := 0; pk < 5000; pk += 3 {
		ok, err := tb.Delete(float64(pk))
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", pk, ok, err)
		}
	}
	if ok, err := tb.Delete(999999); err != nil || ok {
		t.Fatalf("delete missing: ok=%v err=%v", ok, err)
	}
	rids, _, err := rowsOf(tb, Query{Col: 2, Lo: 0, Hi: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rids, expected(tb, 2, 0, 1000)) {
		t.Fatal("results wrong after deletes")
	}
	if tb.Len() != 5000-1667 {
		t.Fatalf("len=%d", tb.Len())
	}
}

func TestUpdateColumnPaths(t *testing.T) {
	_, tb := newSynthetic(t, hermit.PhysicalPointers, 3000, linearFn, 0, 8)
	if _, err := tb.CreateHermitIndex(2, 1); err != nil {
		t.Fatal(err)
	}
	// Update the host column of one row (col as hermit host + secondary).
	if err := tb.UpdateColumn(42, 1, 99999); err != nil {
		t.Fatal(err)
	}
	// Update the target column of one row.
	if err := tb.UpdateColumn(43, 2, 777.77); err != nil {
		t.Fatal(err)
	}
	// No-op update.
	if err := tb.UpdateColumn(44, 3, mustValue(t, tb, 44, 3)); err != nil {
		t.Fatal(err)
	}
	// Missing pk.
	if err := tb.UpdateColumn(1e9, 1, 0); err == nil {
		t.Fatal("update of missing pk succeeded")
	}
	rids, _, err := rowsOf(tb, Query{Col: 2, Lo: 777, Hi: 778})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rids, expected(tb, 2, 777, 778)) {
		t.Fatal("updated target not queryable")
	}
	rids, _, err = rowsOf(tb, Query{Col: 2, Lo: 0, Hi: 1000})
	if err != nil || !sameRows(rids, expected(tb, 2, 0, 1000)) {
		t.Fatal("full range wrong after updates")
	}
}

// An update stores the value it was given, bit for bit: -0 over +0 and one
// NaN payload over another are updates, not the value the row already has.
func TestUpdateColumnKeepsBits(t *testing.T) {
	tb, err := NewDB(hermit.PhysicalPointers).CreateTable("t", []string{"k", "v"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert([]float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0x7ff8000000000001)} {
		if err := tb.UpdateColumn(1, 1, v); err != nil {
			t.Fatal(err)
		}
		if got := mustValue(t, tb, 1, 1); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("updated to %#x, reads %#x", math.Float64bits(v), math.Float64bits(got))
		}
	}
}

func mustValue(t *testing.T, tb *Table, pk float64, col int) float64 {
	t.Helper()
	v, ok := tb.Primary().Get(pk)
	if !ok {
		t.Fatal("pk missing")
	}
	x, err := tb.Store().Value(storage.RID(v), col)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestInsertProfiledBreakdown(t *testing.T) {
	_, tb := newSynthetic(t, hermit.PhysicalPointers, 2000, linearFn, 0.01, 9)
	if _, err := tb.CreateHermitIndex(2, 1); err != nil {
		t.Fatal(err)
	}
	tb.SetProfile(true)
	_, st, err := tb.InsertProfiled([]float64{111111, 300, 100, 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.Table == 0 {
		t.Fatal("no table time recorded")
	}
}

func TestMemoryBreakdown(t *testing.T) {
	_, tb := newSynthetic(t, hermit.PhysicalPointers, 10000, linearFn, 0.01, 10)
	if _, err := tb.CreateHermitIndex(2, 1); err != nil {
		t.Fatal(err)
	}
	m := tb.Memory()
	if m.TableBytes == 0 || m.PrimaryBytes == 0 || m.ExistingBytes == 0 || m.NewBytes == 0 {
		t.Fatalf("memory breakdown has zero component: %+v", m)
	}
	if m.Total() != m.TableBytes+m.PrimaryBytes+m.ExistingBytes+m.NewBytes {
		t.Fatal("total mismatch")
	}
	// The version table of a table as loaded: every row is frozen and carries
	// no header, which leaves a bit and an eighth of a granule pointer per
	// slot (1088 B per store block of 4096) and nothing per key — the primary
	// index is the key→head structure.
	if vs := tb.VersionStats(); vs.Unfrozen != 0 || vs.Bytes != m.VersionBytes || float64(m.VersionBytes)/10000 > 1 {
		t.Fatalf("version table as loaded: %+v, Memory reports %d B", vs, m.VersionBytes)
	}
	// Hermit's new-index bytes must be far below a complete index.
	_, tb2 := newSynthetic(t, hermit.PhysicalPointers, 10000, linearFn, 0.01, 10)
	if _, err := tb2.CreateBTreeIndex(2, true); err != nil {
		t.Fatal(err)
	}
	m2 := tb2.Memory()
	if m.NewBytes*3 > m2.NewBytes {
		t.Fatalf("hermit new=%d not ≪ baseline new=%d", m.NewBytes, m2.NewBytes)
	}
}

func TestCMIndexInEngine(t *testing.T) {
	_, tb := newSynthetic(t, hermit.PhysicalPointers, 10000, linearFn, 0.05, 11)
	cfg := cm.Config{TargetBucket: 16, HostBucket: 64}
	if _, err := tb.CreateCMIndex(2, 1, cfg); err != nil {
		t.Fatal(err)
	}
	if tb.IndexOn(2) != KindCM {
		t.Fatal("routing")
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		lo := rng.Float64() * 1000
		hi := lo + rng.Float64()*60
		// The path is forced: this test exercises the CM mechanism itself,
		// and the cost planner would (correctly) abandon CM for a scan once
		// it observes CM's coarse-bucket false-positive ratio.
		rids, st, err := rowsOf(tb, Query{Col: 2, Lo: lo, Hi: hi, Path: PathCM})
		if err != nil || st.Kind != KindCM {
			t.Fatalf("err=%v kind=%v", err, st.Kind)
		}
		if !sameRows(rids, expected(tb, 2, lo, hi)) {
			t.Fatal("cm results wrong")
		}
	}
	// Dup and scheme errors.
	if _, err := tb.CreateCMIndex(2, 1, cfg); err != ErrDupIndex {
		t.Fatal(err)
	}
	db2 := NewDB(hermit.LogicalPointers)
	tb2, _ := db2.CreateTable("t", synthCols, 0)
	tb2.Insert([]float64{1, 2, 3, 4})
	tb2.CreateBTreeIndex(1, false)
	if _, err := tb2.CreateCMIndex(2, 1, cfg); err == nil {
		t.Fatal("cm under logical pointers accepted")
	}
}

func TestProfileQueryBreakdown(t *testing.T) {
	_, tb := newSynthetic(t, hermit.LogicalPointers, 10000, sigmoidFn, 0.02, 13)
	// The paths are forced: the breakdown assertions target the Hermit and
	// baseline mechanisms specifically, and these wide predicates are ones
	// the cost planner would route to a scan under logical pointers.
	if _, err := tb.CreateHermitIndex(2, 1, WithProfile()); err != nil {
		t.Fatal(err)
	}
	tb.SetProfile(true)
	_, st, err := rowsOf(tb, Query{Col: 2, Lo: 100, Hi: 300, Path: PathHermit})
	if err != nil {
		t.Fatal(err)
	}
	if st.Breakdown.Total() == 0 {
		t.Fatal("hermit breakdown empty")
	}
	// Baseline breakdown on the host column.
	_, st, err = rowsOf(tb, Query{Col: 1, Lo: 2000, Hi: 5000, Path: PathBTree})
	if err != nil {
		t.Fatal(err)
	}
	if st.Breakdown[hermit.PhaseHostIndex] == 0 {
		t.Fatal("baseline index phase missing")
	}
	if st.Breakdown[hermit.PhasePrimaryIndex] == 0 {
		t.Fatal("baseline primary phase missing under logical pointers")
	}
	if st.FalsePositiveRatio() != 0 {
		t.Fatal("baseline should have no false positives")
	}
}

// TestFetchRows: Exec's rows are the rows at Lookup's RIDs, whole and in
// Lookup's order, read at one snapshot.
func TestFetchRows(t *testing.T) {
	_, tb := newSynthetic(t, hermit.PhysicalPointers, 1000, linearFn, 0, 14)
	snap := tb.Snapshot()
	defer snap.Release()
	for _, q := range []Query{{Col: 0, Lo: 10, Hi: 14}, {Col: 1, Lo: 300, Hi: 400}, {Col: 3, Lo: 0.2, Hi: 0.3}} {
		q.Snap = snap
		rids, _, err := tb.Lookup(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, st, err := tb.Exec(q, nil)
		if err != nil || st.Rows != len(rids) || len(rows) != len(rids)*len(tb.cols) {
			t.Fatalf("%+v: %d values for %d RIDs (stats %d rows), err=%v", q, len(rows), len(rids), st.Rows, err)
		}
		for i, rid := range rids {
			want, err := tb.Store().Get(rid, nil)
			if err != nil || !slices.Equal(rows[i*4:i*4+4], want) {
				t.Fatalf("%+v: row %d = %v, RID %v holds %v (%v)", q, i, rows[i*4:i*4+4], rid, want, err)
			}
			if v := want[q.Col]; v < q.Lo || v > q.Hi {
				t.Fatalf("%+v: row %v out of range", q, want)
			}
		}
	}
}

func TestIndexKindString(t *testing.T) {
	want := map[IndexKind]string{
		KindNone: "none", KindBTree: "btree", KindHermit: "hermit",
		KindCM: "cm", KindPrimary: "primary",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d -> %q", k, k.String())
		}
	}
}

// Property: hermit-routed queries equal baseline-routed queries on an
// identical table for random shapes/noise/predicates/schemes.
func TestQuickEngineEquivalence(t *testing.T) {
	fns := []func(float64) float64{linearFn, sigmoidFn,
		func(c float64) float64 { return 500 - c/3 }}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scheme := hermit.PointerScheme(rng.Intn(2))
		fn := fns[rng.Intn(len(fns))]
		noise := rng.Float64() * 0.1
		_, tbH := newSynthetic(t, scheme, 3000, fn, noise, seed)
		_, tbB := newSynthetic(t, scheme, 3000, fn, noise, seed)
		params := trstree.DefaultParams()
		if _, err := tbH.CreateHermitIndex(2, 1, WithParams(params)); err != nil {
			return false
		}
		if _, err := tbB.CreateBTreeIndex(2, true); err != nil {
			return false
		}
		for trial := 0; trial < 6; trial++ {
			lo := rng.Float64() * 1000
			hi := lo + rng.Float64()*100
			rh, _, err := rowsOf(tbH, Query{Col: 2, Lo: lo, Hi: hi})
			if err != nil {
				return false
			}
			rb, _, err := rowsOf(tbB, Query{Col: 2, Lo: lo, Hi: hi})
			if err != nil {
				return false
			}
			if !sameRows(rh, rb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestHermitNoFalseNegativeBeyondBuildBounds: rows inserted, or updated
// to, a target value outside the range the TRS-Tree was built over must be
// found — the paper's one safety property — also when the tree is deep
// enough that the edge child of an internal node is itself internal.
func TestHermitNoFalseNegativeBeyondBuildBounds(t *testing.T) {
	cubic := func(c float64) float64 { return math.Pow(c-500, 3) } // steepest at the domain edges
	for _, scheme := range []hermit.PointerScheme{hermit.PhysicalPointers, hermit.LogicalPointers} {
		_, tb := newSynthetic(t, scheme, 60000, cubic, 0, 31)
		if _, err := tb.CreateHermitIndex(2, 1); err != nil {
			t.Fatal(err)
		}
		if h := tb.Hermit(2).Tree().Height(); h < 3 {
			t.Fatalf("%v: tree height %d, the test needs >= 3", scheme, h)
		}
		for _, row := range [][]float64{{100001, 0, -5, 0}, {100002, 0, 1005, 0}} {
			if _, err := tb.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.UpdateColumn(7, 2, 1010); err != nil {
			t.Fatal(err)
		}
		if err := tb.UpdateColumn(8, 2, -10); err != nil {
			t.Fatal(err)
		}
		for _, q := range [][2]float64{{-5, -5}, {-100, -1}, {1005, 1005}, {1001, 3000}, {-20, 2000}} {
			got, st, err := rowsOf(tb, Query{Col: 2, Lo: q[0], Hi: q[1], Path: PathHermit})
			if err != nil || st.Path != PathHermit {
				t.Fatalf("%v: query %v: err=%v path=%v", scheme, q, err, st.Path)
			}
			if want := expected(tb, 2, q[0], q[1]); !sameRows(got, want) {
				t.Errorf("%v: query %v returned %d rows, want %d", scheme, q, len(got), len(want))
			}
		}
	}
}
