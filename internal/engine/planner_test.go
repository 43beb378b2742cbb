package engine

import (
	"errors"
	"testing"

	"hermit/internal/hermit"
)

// explain is a test helper that fails on error.
func explain(t *testing.T, tb *Table, col int, lo, hi float64) Plan {
	t.Helper()
	plan, err := tb.Explain(col, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// estFor digs one path's estimate out of a plan.
func estFor(t *testing.T, plan Plan, p AccessPath) PathEstimate {
	t.Helper()
	for _, e := range plan.Candidates {
		if e.Path == p {
			return e
		}
	}
	t.Fatalf("path %v missing from plan", p)
	return PathEstimate{}
}

// TestExplainPathChoice is the table-driven planner matrix the advisor's
// decisions lean on: Hermit wins under high correlation / low outlier
// ratio; as the outlier ratio rises (noisy data, or churn pushed through
// updates) the planner falls back to a complete B+-tree when one exists,
// or to a scan for unselective predicates.
func TestExplainPathChoice(t *testing.T) {
	cases := []struct {
		name    string
		noise   float64 // fraction of rows with junk host values (outliers)
		btree   bool    // also build a complete B+-tree on the target
		lo, hi  float64
		want    AccessPath
		altWant AccessPath // KindNone-sentinel -1 means exact match only
	}{
		{"hermit wins: high correlation, low outliers, selective", 0.0, false, 100, 140, PathHermit, -1},
		{"btree fallback: outlier ratio high, btree available", 0.5, true, 100, 140, PathBTree, -1},
		{"scan fallback: outlier ratio high, unselective, no btree", 0.5, false, 0, 1000, PathScan, -1},
		{"scan fallback: full-range predicate even on a clean hermit", 0.0, false, 0, 1000, PathScan, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, tb := newSynthetic(t, hermit.PhysicalPointers, 10000, linearFn, tc.noise, 7)
			if _, err := tb.CreateHermitIndex(2, 1); err != nil {
				t.Fatal(err)
			}
			if tc.btree {
				if _, err := tb.CreateBTreeIndex(2, true); err != nil {
					t.Fatal(err)
				}
			}
			plan := explain(t, tb, 2, tc.lo, tc.hi)
			if plan.Chosen != tc.want && (tc.altWant < 0 || plan.Chosen != tc.altWant) {
				t.Fatalf("chose %v, want %v\nplan: %+v", plan.Chosen, tc.want, plan.Candidates)
			}
			// The chosen path heads the available candidates.
			if plan.Candidates[0].Path != plan.Chosen {
				t.Fatalf("candidates not sorted: head %v, chosen %v",
					plan.Candidates[0].Path, plan.Chosen)
			}
			// Executing must agree with the plan and return exact results.
			rids, st, err := rowsOf(tb, Query{Col: 2, Lo: tc.lo, Hi: tc.hi})
			if err != nil {
				t.Fatal(err)
			}
			if st.Path != plan.Chosen {
				t.Fatalf("executed %v, planned %v", st.Path, plan.Chosen)
			}
			if !sameRows(rids, expected(tb, 2, tc.lo, tc.hi)) {
				t.Fatalf("path %v returned wrong rows", st.Path)
			}
		})
	}
}

// TestExplainDegradesUnderUpdates drives host-column churn through
// UpdateColumn: the moved pairs land in the TRS-Tree's outlier buffers, the
// outlier fraction inflates Hermit's false-positive estimate, and
// the planner abandons Hermit for the complete B+-tree.
func TestExplainDegradesUnderUpdates(t *testing.T) {
	_, tb := newSynthetic(t, hermit.PhysicalPointers, 8000, linearFn, 0, 11)
	if _, err := tb.CreateHermitIndex(2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateBTreeIndex(2, true); err != nil {
		t.Fatal(err)
	}
	if plan := explain(t, tb, 2, 100, 150); plan.Chosen == PathScan {
		t.Fatalf("clean table should not scan: %+v", plan.Candidates)
	}
	before := explain(t, tb, 2, 100, 150)
	// Update rate rises: half the table's host values drift off the model.
	for pk := 0; pk < 4000; pk++ {
		junk := 50000 + float64(pk)
		if err := tb.UpdateColumn(float64(pk), 1, junk); err != nil {
			t.Fatal(err)
		}
	}
	after := explain(t, tb, 2, 100, 150)
	if after.Chosen != PathBTree {
		t.Fatalf("after churn chose %v, want btree\nplan: %+v", after.Chosen, after.Candidates)
	}
	hb := estFor(t, before, PathHermit)
	ha := estFor(t, after, PathHermit)
	if ha.FPEstimate <= hb.FPEstimate {
		t.Fatalf("hermit fp estimate did not rise under churn: %.3f -> %.3f",
			hb.FPEstimate, ha.FPEstimate)
	}
}

// TestPlannerRuntimeFeedback checks that execution populates the per-path
// statistics Explain reports: hit counts, false-positive EWMAs and sampled
// latency EWMAs.
func TestPlannerRuntimeFeedback(t *testing.T) {
	_, tb := newSynthetic(t, hermit.PhysicalPointers, 5000, linearFn, 0.02, 3)
	if _, err := tb.CreateHermitIndex(2, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		lo := float64(i % 40 * 20)
		if _, _, err := rowsOf(tb, Query{Col: 2, Lo: lo, Hi: lo + 15}); err != nil {
			t.Fatal(err)
		}
	}
	e := estFor(t, explain(t, tb, 2, 100, 120), PathHermit)
	if e.ObservedQueries < 64 {
		t.Fatalf("observed queries %d, want >= 64", e.ObservedQueries)
	}
	if e.ObservedLatency <= 0 {
		t.Fatal("latency EWMA not populated")
	}
	cs, err := tb.QueryStatsFor(2)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Queries < 64 || cs.ServingPath != PathHermit {
		t.Fatalf("column stats: %+v", cs)
	}
	if tb.Writes() == 0 {
		t.Fatal("writes counter empty after loading")
	}
}

// TestTRSDirectPath forces the TRS-direct access path (the cost model
// rarely picks it in this row-store — a plain scan qualifies the target
// column at the same per-row price — but it must stay correct) and checks
// it appears costed in plans under both pointer schemes.
func TestTRSDirectPath(t *testing.T) {
	for _, scheme := range []hermit.PointerScheme{hermit.PhysicalPointers, hermit.LogicalPointers} {
		_, tb := newSynthetic(t, scheme, 6000, sigmoidFn, 0.05, 9)
		if _, err := tb.CreateHermitIndex(2, 1); err != nil {
			t.Fatal(err)
		}
		for _, q := range [][2]float64{{100, 150}, {0, 1000}, {900, 910}} {
			rids, st, err := rowsOf(tb, Query{Col: 2, Lo: q[0], Hi: q[1], Path: PathTRSDirect})
			if err != nil {
				t.Fatal(err)
			}
			if st.Kind != KindHermit || st.Path != PathTRSDirect {
				t.Fatalf("trs-direct ran as %v/%v", st.Kind, st.Path)
			}
			if !sameRows(rids, expected(tb, 2, q[0], q[1])) {
				t.Fatalf("%v trs-direct wrong for [%v,%v]", scheme, q[0], q[1])
			}
		}
		e := estFor(t, explain(t, tb, 2, 100, 150), PathTRSDirect)
		if !e.Available || e.Cost <= 0 {
			t.Fatalf("trs-direct estimate: %+v", e)
		}
	}
}

// TestExplainUnavailablePaths checks unavailability reporting and argument
// validation, and that forcing a path Explain lists as unavailable fails
// instead of running another one.
func TestExplainUnavailablePaths(t *testing.T) {
	_, tb := newSynthetic(t, hermit.PhysicalPointers, 3000, linearFn, 0, 5)
	plan := explain(t, tb, 3, 0.2, 0.4) // colD: unindexed
	if plan.Chosen != PathScan {
		t.Fatalf("unindexed column chose %v", plan.Chosen)
	}
	for _, p := range []AccessPath{PathHermit, PathBTree, PathCM, PathPrimary, PathTRSDirect} {
		if e := estFor(t, plan, p); e.Available {
			t.Fatalf("%v reported available on unindexed column", p)
		} else if e.Reason == "" {
			t.Fatalf("%v has no unavailability reason", p)
		}
		if _, _, err := tb.Exec(Query{Col: 3, Lo: 0.2, Hi: 0.4, Path: p}, nil); !errors.Is(err, ErrPathUnavailable) {
			t.Fatalf("forcing unavailable %v: err %v, want ErrPathUnavailable", p, err)
		}
	}
	if _, _, err := tb.Exec(Query{Col: 3, Lo: 0.2, Hi: 0.4, Path: numPaths}, nil); !errors.Is(err, ErrPathUnavailable) {
		t.Fatalf("forcing an unknown path: err %v, want ErrPathUnavailable", err)
	}
	if rows, st, err := rowsOf(tb, Query{Col: 3, Lo: 0.2, Hi: 0.4, Path: PathScan}); err != nil || st.Path != PathScan ||
		!sameRows(rows, expected(tb, 3, 0.2, 0.4)) {
		t.Fatalf("forced scan: path %v err %v", st.Path, err)
	}
	if plan := explain(t, tb, 0, 10, 20); plan.Chosen != PathPrimary {
		t.Fatalf("pk column chose %v", plan.Chosen)
	}
	if _, err := tb.Explain(99, 0, 1); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("want ErrNoSuchColumn, got %v", err)
	}
}

// TestDropIndex covers the DDL surface the advisor reclaims indexes with.
func TestDropIndex(t *testing.T) {
	_, tb := newSynthetic(t, hermit.PhysicalPointers, 3000, linearFn, 0, 6)
	if _, err := tb.CreateHermitIndex(2, 1); err != nil {
		t.Fatal(err)
	}
	// The host B+-tree cannot go while the Hermit index scans it.
	if err := tb.DropIndex(1, KindBTree); !errors.Is(err, ErrHostInUse) {
		t.Fatalf("want ErrHostInUse, got %v", err)
	}
	// Accrue some hermit-path history first, so the drop has stats to clear.
	if _, _, err := rowsOf(tb, Query{Col: 2, Lo: 100, Hi: 140}); err != nil {
		t.Fatal(err)
	}
	if err := tb.DropIndex(2, KindHermit); err != nil {
		t.Fatal(err)
	}
	if tb.IndexOn(2) != KindNone {
		t.Fatalf("hermit still routed after drop: %v", tb.IndexOn(2))
	}
	// A recreated index must not inherit the dropped index's feedback.
	if e := estFor(t, explain(t, tb, 2, 100, 140), PathHermit); e.ObservedQueries != 0 || e.ObservedFP != 0 {
		t.Fatalf("path stats survived the drop: %+v", e)
	}
	// Queries survive the drop (scan fallback) and stay correct.
	rids, st, err := rowsOf(tb, Query{Col: 2, Lo: 100, Hi: 140})
	if err != nil || st.Path == PathHermit {
		t.Fatalf("post-drop query: path %v err %v", st.Path, err)
	}
	if !sameRows(rids, expected(tb, 2, 100, 140)) {
		t.Fatal("post-drop results wrong")
	}
	// Dependent gone: the host drops now.
	if err := tb.DropIndex(1, KindBTree); err != nil {
		t.Fatal(err)
	}
	if err := tb.DropIndex(1, KindBTree); !errors.Is(err, ErrNoSuchIndex) {
		t.Fatalf("double drop: %v", err)
	}
	if err := tb.DropIndex(0, KindPrimary); !errors.Is(err, ErrNoSuchIndex) {
		t.Fatalf("primary drop accepted: %v", err)
	}
	if err := tb.DropIndex(99, KindBTree); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("bad column: %v", err)
	}
}
