package engine

import (
	"errors"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"hermit/internal/hermit"
	"hermit/internal/trstree"
	"hermit/internal/wal"
)

// populateDurable creates the Synthetic table with a host index and a
// Hermit index through the durable layer.
func populateDurable(t *testing.T, d *DurableDB, n int, seed int64) {
	t.Helper()
	if _, err := d.CreateTable("syn", synthCols, 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c := rng.Float64() * 1000
		if _, err := d.Insert("syn", []float64{float64(i), 2*c + 100, c, rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CreateIndex("syn", IndexDef{Kind: "btree", Col: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateIndex("syn", IndexDef{Kind: "hermit", Col: 2, Host: 1, Params: trstree.DefaultParams()}); err != nil {
		t.Fatal(err)
	}
}

// snapshotResults captures query answers for later comparison.
func snapshotResults(t *testing.T, tb *Table) map[[2]float64]int {
	t.Helper()
	out := map[[2]float64]int{}
	for _, q := range [][2]float64{{0, 100}, {250, 300}, {500, 501}, {900, 1000}} {
		rids, _, err := rowsOf(tb, Query{Col: 2, Lo: q[0], Hi: q[1]})
		if err != nil {
			t.Fatal(err)
		}
		out[q] = len(rids)
	}
	return out
}

func TestDurableRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.LogicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	populateDurable(t, d, 3000, 1)
	tb, _ := d.Table("syn")
	want := snapshotResults(t, tb)
	// Simulate crash: close without checkpoint.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, hermit.LogicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tb2, err := d2.Table("syn")
	if err != nil {
		t.Fatal(err)
	}
	if tb2.Len() != 3000 {
		t.Fatalf("recovered %d rows", tb2.Len())
	}
	if tb2.IndexOn(2) != KindHermit {
		t.Fatalf("hermit index not rebuilt: %v", tb2.IndexOn(2))
	}
	got := snapshotResults(t, tb2)
	for q, n := range want {
		if got[q] != n {
			t.Fatalf("query %v: got %d rows, want %d", q, got[q], n)
		}
	}
}

func TestDurableCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.LogicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	populateDurable(t, d, 2000, 2)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint tail: more inserts, updates, deletes.
	for i := 2000; i < 2500; i++ {
		c := float64(i % 1000)
		if _, err := d.Insert("syn", []float64{float64(i), 2*c + 100, c, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Delete("syn", 100); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateColumn("syn", 200, 2, 777.5); err != nil {
		t.Fatal(err)
	}
	tb, _ := d.Table("syn")
	want := snapshotResults(t, tb)
	wantLen := tb.Len()
	d.Close()

	d2, err := OpenDurable(dir, hermit.LogicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tb2, _ := d2.Table("syn")
	if tb2.Len() != wantLen {
		t.Fatalf("recovered %d rows, want %d", tb2.Len(), wantLen)
	}
	got := snapshotResults(t, tb2)
	for q, n := range want {
		if got[q] != n {
			t.Fatalf("query %v: got %d want %d", q, got[q], n)
		}
	}
	// The update must be visible.
	rids, _, err := rowsOf(tb2, Query{Col: 2, Lo: 777.5, Hi: 777.5})
	if err != nil || len(rids) != 1 {
		t.Fatalf("updated row not recovered: %v %v", rids, err)
	}
}

func TestDurableTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	populateDurable(t, d, 500, 3)
	// The record that will be torn: one extra insert after index creation.
	if _, err := d.Insert("syn", []float64{99999, 300, 100, 0}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Tear the final WAL record mid-frame (crash during append).
	walPath := durablePaths{dir}.wal(0)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tb, err := d2.Table("syn")
	if err != nil {
		t.Fatal(err)
	}
	// The torn insert is lost; everything before is intact, including the
	// index DDL.
	if tb.Len() != 500 {
		t.Fatalf("recovered %d rows, want 500", tb.Len())
	}
	if tb.IndexOn(2) != KindHermit {
		t.Fatal("index DDL before the torn record lost")
	}
	rids, _, err := rowsOf(tb, Query{Col: 0, Lo: 99999, Hi: 99999})
	if err != nil || len(rids) != 0 {
		t.Fatalf("torn insert visible: %v %v", rids, err)
	}
}

func TestDurableSchemeMismatch(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	populateDurable(t, d, 100, 4)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := OpenDurable(dir, hermit.LogicalPointers); err == nil {
		t.Fatal("scheme mismatch accepted")
	}
}

func TestDurableCompositeIndexRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("sh", []string{"TIME", "DJ", "SP", "VOL"}, 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	dj := 2500.0
	for day := 0; day < 2000; day++ {
		dj *= 1 + rng.NormFloat64()*0.01
		if _, err := d.Insert("sh", []float64{float64(day), dj, dj / 8, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CreateIndex("sh", IndexDef{Kind: "composite-btree", ACol: 0, Col: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateIndex("sh", IndexDef{
		Kind: "composite-hermit", ACol: 0, Col: 2, Host: 1, Params: trstree.DefaultParams(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d2, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tb, _ := d2.Table("sh")
	if tb.CompositeHermit(0, 2) == nil {
		t.Fatal("composite hermit not rebuilt")
	}
	rids, _, err := rowsOf(tb, Query{Col: 0, Lo: 100, Hi: 200, And: &Pred{Col: 2, Lo: 0, Hi: 1e9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 101 {
		t.Fatalf("recovered composite query returned %d rows", len(rids))
	}
}

func TestDurableUnknownIndexKind(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.CreateTable("t", []string{"a", "b"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateIndex("t", IndexDef{Kind: "voodoo"}); err == nil {
		t.Fatal("unknown index kind accepted")
	}
	if _, err := d.Insert("nope", []float64{1}); err == nil {
		t.Fatal("insert into missing table accepted")
	}
}

// TestApplyEachReusedResults: ApplyEach overwrites every result it is
// handed, so a slice reused across runs — as the server's write runs reuse
// theirs — carries no stale Err or Found from the run before into an op
// that succeeded, a delete that found nothing, or an op whose table does
// not exist; a slot past the run is left alone.
func TestApplyEachReusedResults(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.CreateTable("t", []string{"id", "a"}, 0); err != nil {
		t.Fatal(err)
	}
	stale := errors.New("stale")
	results := make([]OpResult, 5)
	for i := range results {
		results[i] = OpResult{Found: true, Err: stale}
	}
	d.ApplyEach([]Op{
		{Kind: OpInsert, Table: "t", Row: []float64{1, 1}},
		{Kind: OpDelete, Table: "t", PK: 2}, // absent
		{Kind: OpUpdate, Table: "t", PK: 1, Col: 1, Value: 5},
		{Kind: OpDelete, Table: "missing", PK: 1},
	}, results)
	for i, res := range results[:3] {
		if res.Err != nil || res.Found {
			t.Fatalf("op %d: %+v, want no error and not found", i, res)
		}
	}
	if !errors.Is(results[3].Err, ErrNoSuchTable) || results[3].Found {
		t.Fatalf("delete from a missing table: %+v", results[3])
	}
	if !results[4].Found || results[4].Err != stale {
		t.Fatalf("slot past the run: %+v, want it untouched", results[4])
	}
}

// TestApplyEachSameKeyRun drives the submit/wait split directly: a run
// that writes one key over and over — with a failing op in the middle —
// must give each op its own outcome in order, and, since every record is
// submitted under its key's stripe before the run waits once, recovery
// must replay the run's records in apply order on a plain table and on a
// partitioned one, under every sync policy.
func TestApplyEachSameKeyRun(t *testing.T) {
	run := []Op{
		{Kind: OpInsert, Row: []float64{7, 1, 1}},
		{Kind: OpUpdate, PK: 7, Col: 1, Value: 2},
		{Kind: OpInsert, Row: []float64{7, 9, 9}}, // duplicate: fails alone
		{Kind: OpDelete, PK: 7},
		{Kind: OpDelete, PK: 7},                   // absent: found=false, not logged
		{Kind: OpUpdate, PK: 7, Col: 1, Value: 3}, // absent: fails alone
		{Kind: OpInsert, Row: []float64{7, 4, 4}},
		{Kind: OpUpdate, PK: 7, Col: 2, Value: 5},
		{Kind: OpInsert, Row: []float64{8, 0, 0}},
		{Kind: OpQuery, Query: Query{Col: 0, Lo: 7, Hi: 7}}, // not a mutation: fails alone
	}
	wantErr := []bool{false, false, true, false, false, true, false, false, false, true}
	want := [][]float64{{7, 4, 5}, {8, 0, 0}}

	for _, policy := range []SyncPolicy{SyncNever, SyncGroup, SyncAlways} {
		for _, parts := range []int{0, 3} {
			dir := t.TempDir()
			opts := DurableOptions{Policy: policy}
			d, err := OpenDurableOptions(dir, hermit.PhysicalPointers, opts)
			if err != nil {
				t.Fatal(err)
			}
			if parts == 0 {
				_, err = d.CreateTable("t", []string{"id", "a", "b"}, 0)
			} else {
				err = d.CreatePartitionedTable("t", []string{"id", "a", "b"}, 0, parts)
			}
			if err != nil {
				t.Fatal(err)
			}
			ops := append([]Op(nil), run...)
			for i := range ops {
				ops[i].Table = "t"
			}
			results := make([]OpResult, len(ops))
			d.ApplyEach(ops, results)
			for i, res := range results {
				if (res.Err != nil) != wantErr[i] {
					t.Fatalf("%v/%d parts: op %d (%v): err %v, want failure=%v", policy, parts, i, ops[i].Kind, res.Err, wantErr[i])
				}
			}
			if !results[3].Found || results[4].Found {
				t.Fatalf("%v/%d parts: deletes found %v then %v, want true then false", policy, parts, results[3].Found, results[4].Found)
			}
			if got := liveRows(t, d, "t"); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v/%d parts: rows after the run %v, want %v", policy, parts, got, want)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d, err = OpenDurableOptions(dir, hermit.PhysicalPointers, opts)
			if err != nil {
				t.Fatal(err)
			}
			if n, serr := d.RecoverySkipped(); n != 0 {
				t.Fatalf("%v/%d parts: recovery skipped %d records: %v", policy, parts, n, serr)
			}
			if got := liveRows(t, d, "t"); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v/%d parts: rows after recovery %v, want %v", policy, parts, got, want)
			}
			d.Close()
		}
	}
}

// TestRecoveryDeterministic: recovery inserts the rows a table's blocks
// fold to in primary-key order, not in the order a Go map yields them, so
// two recoveries of one directory give every key the same RID and the
// tables the same Memory(), and the primary B+-tree — loaded ascending —
// is no larger than the one the shuffled inserts and deletes left behind.
// Four partitions, so the side-by-side restore is what runs.
func TestRecoveryDeterministic(t *testing.T) {
	const parts, rows = 4, 6000
	dir := t.TempDir()
	opts := DurableOptions{DisableAutoCompact: true}
	d, err := OpenDurableOptions(dir, hermit.PhysicalPointers, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreatePartitionedTable("syn", synthCols, 0, parts); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for _, i := range rng.Perm(rows) {
		c := rng.Float64() * 1000
		if _, err := d.Insert("syn", []float64{float64(i), 2*c + 100, c, rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CreateIndex("syn", IndexDef{Kind: "btree", Col: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateIndex("syn", IndexDef{Kind: "hermit", Col: 2, Host: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i += 7 {
		if _, err := d.Delete("syn", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.GC() // the deleted keys leave the primary index, as they have left the blocks
	// state is what a recovery must reproduce: each partition's key→RID map
	// and its memory breakdown.
	type state struct {
		rids map[float64]uint64
		mem  MemoryStats
	}
	capture := func(d *DurableDB) []state {
		out := make([]state, parts)
		for i, tb := range d.db.lookup("syn").phys {
			out[i] = state{rids: map[float64]uint64{}, mem: tb.Memory()}
			tb.Primary().Each(func(k float64, id uint64) bool {
				out[i].rids[k] = id
				return true
			})
		}
		return out
	}
	loaded := capture(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	var recovered [2][]state
	for run := range recovered {
		d, err := OpenDurableOptions(dir, hermit.PhysicalPointers, opts)
		if err != nil {
			t.Fatal(err)
		}
		recovered[run] = capture(d)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range loaded {
		a, b := recovered[0][i], recovered[1][i]
		if len(a.rids) != len(loaded[i].rids) {
			t.Fatalf("partition %d: recovered %d keys, loaded %d", i, len(a.rids), len(loaded[i].rids))
		}
		if !reflect.DeepEqual(a.rids, b.rids) {
			t.Errorf("partition %d: two recoveries assigned different RIDs", i)
		}
		if a.mem != b.mem {
			t.Errorf("partition %d: two recoveries differ in Memory(): %+v vs %+v", i, a.mem, b.mem)
		}
		if a.mem.PrimaryBytes > loaded[i].mem.PrimaryBytes {
			t.Errorf("partition %d: primary index %d B after recovery, %d B as loaded",
				i, a.mem.PrimaryBytes, loaded[i].mem.PrimaryBytes)
		}
	}
}

// TestTicketSurvivesRotation: a ticket names its own log, so one taken
// before a rotating checkpoint — which syncs and closes the segment the
// record went to — and waited on after it answers nil, on the auto-commit
// path and on the transaction path; both records recover.
func TestTicketSurvivesRotation(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{DisableAutoCompact: true, WALRotateBytes: 1}
	d, err := OpenDurableOptions(dir, hermit.PhysicalPointers, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []string{"id", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	rotate := func() {
		t.Helper()
		seg, _, _ := d.WALPosition()
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if next, _, _ := d.WALPosition(); next == seg {
			t.Fatal("checkpoint did not rotate the segment")
		}
	}

	var res OpResult
	tk := d.submit(&Op{Kind: OpInsert, Table: "t", Row: []float64{1, 10}}, &res)
	if res.Err != nil || tk == (wal.Ticket{}) {
		t.Fatalf("submit: %v, ticket %+v", res.Err, tk)
	}
	rotate()
	if awaitLogged(tk, &res); res.Err != nil {
		t.Fatalf("auto-commit ticket waited on after the rotation: %v", res.Err)
	}

	tx := d.Begin()
	if err := tx.Insert("t", []float64{2, 20}); err != nil {
		t.Fatal(err)
	}
	ctk, err := tx.submitCommit()
	if err != nil || ctk == (wal.Ticket{}) {
		t.Fatalf("submitCommit: %v, ticket %+v", err, ctk)
	}
	rotate()
	if _, err := ctk.Wait(); err != nil {
		t.Fatalf("commit ticket waited on after the rotation: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurableOptions(dir, hermit.PhysicalPointers, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tb, err := d2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("recovered %d rows, want 2", tb.Len())
	}
}
