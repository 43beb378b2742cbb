package partition

import (
	"sort"
	"testing"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/trstree"
	"hermit/internal/workload"
)

// rowsOf runs q through Exec and views the answer one slice per row.
func rowsOf(pt *Table, q engine.Query) ([][]float64, Stats, error) {
	flat, st, err := pt.Exec(q, nil)
	return engine.SplitRows(flat, len(pt.cols), nil), st, err
}

// pks is the sorted primary keys of rows.
func pks(pt *Table, rows [][]float64) []float64 {
	out := make([]float64, 0, len(rows))
	for _, row := range rows {
		out = append(out, row[pt.PKCol()])
	}
	sort.Float64s(out)
	return out
}

func TestDurablePartitionedCloseReopen(t *testing.T) {
	dir := t.TempDir()
	spec := workload.SyntheticSpec{Rows: 1200, Fn: workload.Linear, Noise: 0.01, Seed: 5}

	d, err := engine.OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := CreateDurable(d, "syn", spec.Columns(), spec.PKCol(), Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Generate(func(row []float64) error {
		_, err := pt.Insert(row)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := pt.CreateBTreeIndex(spec.HostCol(), false); err != nil {
		t.Fatal(err)
	}
	if err := pt.CreateHermitIndex(spec.TargetCol(), spec.HostCol(), trstree.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if found, err := pt.Delete(100); err != nil || !found {
		t.Fatalf("Delete(100) = %v, %v", found, err)
	}
	if err := pt.UpdateColumn(101, 2, 55.5); err != nil {
		t.Fatal(err)
	}
	wantRange, _, err := rowsOf(pt, engine.Query{Col: 2, Lo: 50, Hi: 60})
	if err != nil {
		t.Fatal(err)
	}
	wantPKs := pks(pt, wantRange)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from WAL replay alone (no checkpoint yet).
	d2, err := engine.OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if n, serr := d2.RecoverySkipped(); n != 0 {
		t.Fatalf("recovery skipped %d records (%v)", n, serr)
	}
	pt2, err := OpenDurable(d2, "syn", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pt2.Partitions() != 4 {
		t.Fatalf("recovered %d partitions, want 4", pt2.Partitions())
	}
	if pt2.Len() != spec.Rows-1 {
		t.Fatalf("recovered %d rows, want %d", pt2.Len(), spec.Rows-1)
	}
	got, st, err := rowsOf(pt2, engine.Query{Col: 2, Lo: 50, Hi: 60})
	if err != nil {
		t.Fatal(err)
	}
	if st.FanOut != 4 {
		t.Fatalf("fan-out %d after recovery", st.FanOut)
	}
	gotPKs := pks(pt2, got)
	if len(gotPKs) != len(wantPKs) {
		t.Fatalf("range after reopen: %d rows, want %d", len(gotPKs), len(wantPKs))
	}
	for i := range wantPKs {
		if gotPKs[i] != wantPKs[i] {
			t.Fatalf("range after reopen differs at %d: %v vs %v", i, gotPKs[i], wantPKs[i])
		}
	}
	// The Hermit index was rebuilt on every partition.
	for i := 0; i < 4; i++ {
		if kind := pt2.Part(i).IndexOn(spec.TargetCol()); kind != engine.KindHermit {
			t.Fatalf("partition %d recovered with %v on target, want hermit", i, kind)
		}
	}

	// Checkpoint, mutate past it, close, reopen: image + routed tail.
	if err := d2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := pt2.Insert([]float64{90001, 2*500 + 100, 500, 0.5}); err != nil {
		t.Fatal(err)
	}
	if found, err := pt2.Delete(101); err != nil || !found {
		t.Fatalf("post-checkpoint Delete(101) = %v, %v", found, err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := engine.OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if n, serr := d3.RecoverySkipped(); n != 0 {
		t.Fatalf("recovery skipped %d records (%v)", n, serr)
	}
	pt3, err := OpenDurable(d3, "syn", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pt3.Len() != spec.Rows-1 { // -2 deletes +1 insert
		t.Fatalf("after checkpoint+tail: %d rows, want %d", pt3.Len(), spec.Rows-1)
	}
	if rids, _, err := rowsOf(pt3, engine.Query{Col: 0, Lo: 90001, Hi: 90001}); err != nil || len(rids) != 1 {
		t.Fatalf("post-checkpoint insert lost: %v, %v", rids, err)
	}
	if rids, _, err := rowsOf(pt3, engine.Query{Col: 0, Lo: 101, Hi: 101}); err != nil || len(rids) != 0 {
		t.Fatalf("post-checkpoint delete lost: %v, %v", rids, err)
	}
}

func TestDurablePartitionedDDLAndGuards(t *testing.T) {
	dir := t.TempDir()
	d, err := engine.OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.CreatePartitionedTable("bad#name", []string{"a", "b"}, 0, 2); err == nil {
		t.Fatal("'#' in partitioned table name accepted")
	}
	if _, err := d.CreateTable("user#0", []string{"a"}, 0); err == nil {
		t.Fatal("'#' in plain durable table name accepted")
	}
	if err := d.CreatePartitionedTable("p", []string{"a", "b"}, 0, 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
	if err := d.CreatePartitionedTable("p", []string{"a", "b", "c"}, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := d.CreatePartitionedTable("p", []string{"a"}, 0, 2); err == nil {
		t.Fatal("duplicate partitioned table accepted")
	}
	// A plain table must not be able to shadow (and overwrite the metadata
	// of) an existing partitioned logical table.
	if _, err := d.CreateTable("p", []string{"a"}, 0); err == nil {
		t.Fatal("plain CreateTable over a partitioned logical name accepted")
	}
	if n, err := d.Partitions("p"); err != nil || n != 3 {
		t.Fatalf("Partitions(p) = %d, %v", n, err)
	}
	// Composite defs are rejected on partitioned tables.
	err = d.CreateIndex("p", engine.IndexDef{Kind: "composite-btree", ACol: 1, Col: 2})
	if err == nil {
		t.Fatal("composite index on partitioned table accepted")
	}
	// A bad def must not leave partial per-partition state behind.
	if err := d.CreateIndex("p", engine.IndexDef{Kind: "hermit", Col: 2, Host: 1}); err == nil {
		t.Fatal("hermit without host index accepted")
	}
	pt, err := OpenDurable(d, "p", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if kind := pt.Part(i).IndexOn(2); kind != engine.KindNone {
			t.Fatalf("failed CreateIndex left %v on partition %d", kind, i)
		}
	}
	if err := pt.CreateBTreeIndex(1, false); err != nil {
		t.Fatal(err)
	}
	if err := pt.CreateHermitIndex(2, 1, trstree.Params{}); err != nil {
		t.Fatal(err)
	}
	// Host drop is refused while the Hermit depends on it, on every
	// partition.
	if err := pt.DropIndex(1, engine.KindBTree); err == nil {
		t.Fatal("host drop accepted while hermit depends on it")
	}
	if err := pt.DropIndex(2, engine.KindHermit); err != nil {
		t.Fatal(err)
	}
	if err := pt.DropIndex(1, engine.KindBTree); err != nil {
		t.Fatal(err)
	}
	// OpenDurable wraps a plain table as its only partition: writes go
	// through the logged paths, a range gathers in predicate-column order.
	if _, err := d.CreateTable("plain", []string{"x", "y"}, 0); err != nil {
		t.Fatal(err)
	}
	plain, err := OpenDurable(d, "plain", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Partitions() != 1 {
		t.Fatalf("plain table wrapped as %d partitions, want 1", plain.Partitions())
	}
	for i := 0; i < 20; i++ {
		if _, err := plain.Insert([]float64{float64(i), float64(19 - i)}); err != nil {
			t.Fatal(err)
		}
	}
	rids, st, err := rowsOf(plain, engine.Query{Col: 1, Lo: 5, Hi: 9})
	if err != nil || st.FanOut != 1 || len(rids) != 5 {
		t.Fatalf("plain range: %d rows, fan-out %d, err %v", len(rids), st.FanOut, err)
	}
	for i, row := range rids {
		if row[1] != float64(5+i) {
			t.Fatalf("plain range row %d = %v, want y = %d in order", i, row, 5+i)
		}
	}
	if tb, _ := d.Table("plain"); tb.Len() != 20 {
		t.Fatalf("plain table holds %d rows, want 20", tb.Len())
	}
}

// TestPartitionedCreateIndexUnwinds: an index build that fails on one
// partition — here because that partition already has the index, built
// through Part — is dropped from every partition it was built on, on both
// kinds of database. The durable one logs nothing of it: after a reopen no
// partition has the index.
func TestPartitionedCreateIndexUnwinds(t *testing.T) {
	dir := t.TempDir()
	d, err := engine.OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	for name, db := range map[string]Database{"mem": engine.NewDB(hermit.PhysicalPointers), "durable": d} {
		t.Run(name, func(t *testing.T) {
			pt, err := CreateDurable(db, "p", []string{"pk", "v"}, 0, Options{Partitions: 4})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				if _, err := pt.Insert([]float64{float64(i), float64(i % 17)}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := pt.Part(2).CreateBTreeIndex(1, false); err != nil {
				t.Fatal(err)
			}
			if err := pt.CreateBTreeIndex(1, false); err == nil {
				t.Fatal("CreateBTreeIndex succeeded over a partition that already has the index")
			}
			for i := 0; i < pt.Partitions(); i++ {
				if kind := pt.Part(i).IndexOn(1); i != 2 && kind != engine.KindNone {
					t.Fatalf("failed CreateIndex left %v on partition %d", kind, i)
				}
			}
		})
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = engine.OpenDurable(dir, hermit.PhysicalPointers); err != nil {
		t.Fatal(err)
	}
	pt, err := OpenDurable(d, "p", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pt.Partitions(); i++ {
		if kind := pt.Part(i).IndexOn(1); kind != engine.KindNone {
			t.Fatalf("after reopen partition %d has %v: the failed CreateIndex was logged", i, kind)
		}
	}
}

// TestDurablePartitionedBlockTier: checkpoints flush one block stream per
// partition, TableBlocks reports them, and BlockRead answers from the
// blocks of the owning partition alone (fences/blooms keep the probe
// count at one block for a key written once).
func TestDurablePartitionedBlockTier(t *testing.T) {
	dir := t.TempDir()
	d, err := engine.OpenDurableOptions(dir, hermit.PhysicalPointers,
		engine.DurableOptions{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	pt, err := CreateDurable(d, "p", []string{"pk", "v"}, 0, Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := pt.Insert([]float64{float64(i), float64(i) * 2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pt.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stats, err := d.TableBlocks("p")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("TableBlocks returned %d partitions, want 4", len(stats))
	}
	var entries uint64
	for i, st := range stats {
		if st.Blocks != 1 {
			t.Fatalf("partition %d has %d blocks after one checkpoint, want 1", i, st.Blocks)
		}
		entries += st.Entries
	}
	if entries != 400 { // 399 live rows + 1 tombstone, spread across partitions
		t.Fatalf("block tier holds %d entries, want 400", entries)
	}
	row, found, probed, err := d.BlockRead("p", 42)
	if err != nil || !found || row[1] != 84 {
		t.Fatalf("BlockRead(42) = %v found=%v err=%v", row, found, err)
	}
	if probed != 1 {
		t.Fatalf("BlockRead(42) probed %d blocks, want 1", probed)
	}
	if _, found, _, err := d.BlockRead("p", 7); err != nil || found {
		t.Fatalf("BlockRead(7) resurrected a tombstoned key: found=%v err=%v", found, err)
	}
	if _, found, probed, err := d.BlockRead("p", 99999); err != nil || found || probed != 0 {
		t.Fatalf("BlockRead(99999): found=%v probed=%d err=%v (fence should exclude)", found, probed, err)
	}
}
