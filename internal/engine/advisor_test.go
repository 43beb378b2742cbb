package engine

import (
	"testing"

	"hermit/internal/advisor"
	"hermit/internal/hermit"
)

// driveQueries runs n range queries against col so the column's query
// counter crosses the advisor's MinQueries gate.
func driveQueries(t *testing.T, tb *Table, col, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lo := float64(i%40) * 20
		if _, _, err := rowsOf(tb, Query{Col: col, Lo: lo, Hi: lo + 10}); err != nil {
			t.Fatal(err)
		}
	}
}

// manualAdvisor returns deterministic (RunOnce-only) advisor options.
func manualAdvisor() AdvisorOptions {
	return AdvisorOptions{Interval: 0, MinQueries: 32}
}

func TestAdvisorAutoCreatesHermitInMemory(t *testing.T) {
	db, tb := newSynthetic(t, hermit.PhysicalPointers, 6000, linearFn, 0, 21)
	driveQueries(t, tb, 2, 50) // served by scans for now
	if tb.IndexOn(2) != KindNone {
		t.Fatal("precondition: col 2 indexed")
	}
	a := db.EnableAdvisor(manualAdvisor())
	defer a.Stop()
	acts, err := a.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 1 || acts[0].Kind != advisor.CreatedHermit || acts[0].Col != 2 || acts[0].Host != 1 {
		t.Fatalf("actions: %+v", acts)
	}
	if tb.IndexOn(2) != KindHermit {
		t.Fatalf("col 2 served by %v", tb.IndexOn(2))
	}
	// The planner now routes through the auto-created index, exactly.
	plan, err := tb.Explain(2, 100, 140)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen != PathHermit {
		t.Fatalf("planner chose %v after auto-create\n%+v", plan.Chosen, plan.Candidates)
	}
	rids, st, err := rowsOf(tb, Query{Col: 2, Lo: 100, Hi: 140})
	if err != nil || st.Path != PathHermit {
		t.Fatalf("query path %v err %v", st.Path, err)
	}
	if !sameRows(rids, expected(tb, 2, 100, 140)) {
		t.Fatal("auto-indexed results wrong")
	}
}

func TestAdvisorUncorrelatedColumnGetsBTree(t *testing.T) {
	db, tb := newSynthetic(t, hermit.PhysicalPointers, 6000, linearFn, 0, 23)
	driveQueries(t, tb, 3, 50) // colD is random noise: no usable host
	a := db.EnableAdvisor(manualAdvisor())
	defer a.Stop()
	acts, err := a.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 1 || acts[0].Kind != advisor.CreatedBTree || acts[0].Col != 3 {
		t.Fatalf("actions: %+v", acts)
	}
	if tb.IndexOn(3) != KindBTree {
		t.Fatalf("col 3 served by %v", tb.IndexOn(3))
	}
}

// TestAdvisorDurableEndToEnd is the acceptance flow: the advisor discovers
// a correlated pair on a durable database, auto-creates a Hermit index
// through the WAL-logged DDL path, the planner uses it — and the index
// survives a close/reopen (WAL replay), then a checkpoint plus reopen
// (manifest defs), then a logged drop.
func TestAdvisorDurableEndToEnd(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("syn", synthCols, 0); err != nil {
		t.Fatal(err)
	}
	tb, err := d.Table("syn")
	if err != nil {
		t.Fatal(err)
	}
	loadDurableSynthetic(t, d, 4000)
	if err := d.CreateIndex("syn", IndexDef{Kind: "btree", Col: 1}); err != nil {
		t.Fatal(err)
	}
	driveQueries(t, tb, 2, 50)

	a := d.EnableAdvisor(manualAdvisor())
	defer a.Stop()
	acts, err := a.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 1 || acts[0].Kind != advisor.CreatedHermit || acts[0].Col != 2 || acts[0].Host != 1 {
		t.Fatalf("actions: %+v", acts)
	}
	if plan, _ := tb.Explain(2, 100, 140); plan.Chosen != PathHermit {
		t.Fatalf("planner chose %v after durable auto-create", plan.Chosen)
	}
	want := expected(tb, 2, 100, 140)

	// Reopen #1: the advisor's DDL replays from the WAL.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if n, serr := d.RecoverySkipped(); n != 0 {
		t.Fatalf("recovery skipped %d records: %v", n, serr)
	}
	tb, err = d.Table("syn")
	if err != nil {
		t.Fatal(err)
	}
	if tb.IndexOn(2) != KindHermit {
		t.Fatalf("after reopen col 2 served by %v", tb.IndexOn(2))
	}
	rids, st, err := rowsOf(tb, Query{Col: 2, Lo: 100, Hi: 140})
	if err != nil || st.Path != PathHermit {
		t.Fatalf("after reopen: path %v err %v", st.Path, err)
	}
	if !sameRows(rids, want) {
		t.Fatal("after reopen: results wrong")
	}

	// Reopen #2: the index definition also lives through a checkpoint
	// (manifest defs, fresh WAL segment).
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	tb, err = d.Table("syn")
	if err != nil {
		t.Fatal(err)
	}
	if tb.IndexOn(2) != KindHermit {
		t.Fatalf("after checkpoint+reopen col 2 served by %v", tb.IndexOn(2))
	}

	// A logged drop survives its own reopen and leaves the manifest defs.
	if err := d.DropIndex("syn", 2, "hermit"); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tb, err = d.Table("syn")
	if err != nil {
		t.Fatal(err)
	}
	if tb.IndexOn(2) != KindNone {
		t.Fatalf("dropped index resurrected as %v", tb.IndexOn(2))
	}
}

// loadDurableSynthetic inserts the linear Synthetic layout through the
// logged mutation path.
func loadDurableSynthetic(t *testing.T, d *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		c := float64((i * 37) % 1000)
		row := []float64{float64(i), linearFn(c), c, float64(i % 17)}
		if _, err := d.Insert("syn", row); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDurableDropIndexRejectsUnknownKind(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.DropIndex("t", 1, "composite-btree"); err == nil {
		t.Fatal("composite drop accepted")
	}
	if err := d.DropIndex("t", 1, "btree"); err == nil {
		t.Fatal("drop of absent index accepted")
	}
}
