package hermitdb_test

import (
	"flag"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"

	hermitdb "hermit"
	"hermit/internal/hermit"
	"hermit/internal/storage"
)

// TestFacadeEndToEnd exercises the README quick-start path through the
// public API only.
func TestFacadeEndToEnd(t *testing.T) {
	db := hermitdb.NewDB(hermitdb.PhysicalPointers)
	tb, err := db.CreateTable("stocks", []string{"day", "low", "high"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	price := 100.0
	for day := 0; day < 10000; day++ {
		price *= 1 + rng.NormFloat64()*0.02
		low := price
		high := low * (1 + rng.Float64()*0.02)
		if _, err := tb.Insert([]float64{float64(day), low, high}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.CreateBTreeIndex(1, false); err != nil {
		t.Fatal(err)
	}
	// A daily high within 2% of the low is a noisy correlation on 10,000 rows:
	// the default error_bound of 2 (host tuples per lookup, §4.2) would make
	// nearly every row an outlier and the index as large as a complete one —
	// the trade-off of Figs. 16-18 — so the index is given the bound this
	// noise needs.
	params := hermitdb.DefaultParams()
	params.ErrorBound = 100
	if _, err := tb.CreateHermitIndex(2, 1, hermitdb.WithParams(params)); err != nil {
		t.Fatal(err)
	}
	if tb.IndexOn(2) != hermitdb.KindHermit {
		t.Fatalf("kind=%v", tb.IndexOn(2))
	}
	lo, hi, _ := tb.Store().ColumnBounds(2)
	rows, st, err := tb.Exec(hermitdb.Query{Col: 2, Lo: lo, Hi: (lo + hi) / 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*st.Rows || st.Rows == 0 {
		t.Fatalf("rows=%d values=%d", st.Rows, len(rows))
	}
	m := tb.Memory()
	if m.NewBytes == 0 || m.NewBytes*3 > m.ExistingBytes {
		t.Fatalf("hermit index not succinct: %+v", m)
	}
}

// TestFacadeAutoIndex exercises CreateIndexAuto through the facade.
func TestFacadeAutoIndex(t *testing.T) {
	db := hermitdb.NewDB(hermitdb.LogicalPointers)
	spec := hermitdb.SyntheticSpec{Rows: 5000, Fn: hermitdb.Sigmoid, Noise: 0.02, Seed: 1}
	tb, err := db.CreateTable("syn", spec.Columns(), spec.PKCol())
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
	kind, err := tb.CreateIndexAuto(spec.TargetCol(), hermitdb.DefaultDiscovery())
	if err != nil {
		t.Fatal(err)
	}
	if kind != hermitdb.KindHermit {
		t.Fatalf("auto index built %v, want hermit", kind)
	}
	q := hermitdb.QueryGen(0, 1000, 0.05, 2)()
	_, st, err := tb.Exec(hermitdb.Query{Col: spec.TargetCol(), Lo: q.Lo, Hi: q.Hi}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	err = tb.Store().ScanColumn(spec.TargetCol(), func(_ storage.RID, v float64) bool {
		if v >= q.Lo && v <= q.Hi {
			want++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != want {
		t.Fatalf("auto hermit returned %d rows, want %d", st.Rows, want)
	}
}

// TestPartitionedFacade exercises the README partitioned-table path
// through the public API only: creation, routed and scattered queries,
// Explain's fan-out, and the durable round trip.
func TestPartitionedFacade(t *testing.T) {
	spec := hermitdb.SyntheticSpec{Rows: 2000, Fn: hermitdb.Linear, Noise: 0.01, Seed: 4}
	pt, err := hermitdb.CreatePartitionedTable(hermitdb.PhysicalPointers,
		"syn", spec.Columns(), spec.PKCol(),
		hermitdb.PartitionOptions{Partitions: 4, Workers: 4})
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
	if err := pt.CreateHermitIndex(spec.TargetCol(), spec.HostCol(), hermitdb.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	rows, stats, err := pt.Exec(hermitdb.Query{Col: spec.TargetCol(), Lo: 100, Hi: 120}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FanOut != 4 || stats.Routed {
		t.Fatalf("range stats: %+v, want 4-way scatter", stats)
	}
	if len(rows) == 0 {
		t.Fatal("range query returned no rows")
	}
	if row, st, err := pt.Exec(hermitdb.Query{Col: spec.PKCol(), Lo: 7, Hi: 7}, nil); err != nil || !st.Routed || len(row) == 0 || row[spec.PKCol()] != 7 {
		t.Fatalf("pk point query: routed=%v row=%v err=%v", st.Routed, row, err)
	}
	plan, err := pt.Explain(spec.TargetCol(), 100, 120)
	if err != nil {
		t.Fatal(err)
	}
	if plan.FanOut != 4 || len(plan.PerPartition) != 4 {
		t.Fatalf("Explain fan-out: %+v", plan)
	}

	dir := t.TempDir()
	d, err := hermitdb.OpenDurable(dir, hermitdb.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreatePartitionedTable("orders", []string{"id", "qty"}, 0, 2); err != nil {
		t.Fatal(err)
	}
	dt, err := hermitdb.OpenPartitionedDurable(d, "orders", hermitdb.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := dt.Insert([]float64{float64(i), float64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := hermitdb.OpenDurable(dir, hermitdb.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	dt2, err := hermitdb.OpenPartitionedDurable(d2, "orders", hermitdb.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dt2.Len() != 100 {
		t.Fatalf("recovered %d rows, want 100", dt2.Len())
	}
	if row, _, err := dt2.Exec(hermitdb.Query{Col: 0, Lo: 42, Hi: 42}, nil); err != nil || len(row) != 2 || row[1] != 0 {
		t.Fatalf("recovered pk lookup: %v, %v", row, err)
	}
}

// loadSyntheticWithHermit loads the paper's Synthetic table through the
// public API: rows, the host B+-tree on colB, a Hermit index on colC.
func loadSyntheticWithHermit(t *testing.T, rows int) (*hermitdb.DB, *hermitdb.Table) {
	t.Helper()
	db := hermitdb.NewDB(hermitdb.PhysicalPointers)
	spec := hermitdb.SyntheticSpec{Rows: rows, Fn: hermitdb.Sigmoid, Noise: 0.01, Seed: 1}
	tb, err := db.CreateTable("syn", spec.Columns(), spec.PKCol())
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

// TestHeapBytesPerRowBudget is the memory analogue of the AllocsPerRun
// guards: what the process holds per row for a loaded Synthetic table with
// its host B+-tree and a Hermit index must stay under a budget fixed 10%
// above the figure measured when the budget was set — 38.1 B/row, of
// which Memory() reports 38.0: 24.5 B of row store (full blocks packed
// frame-of-reference, 23 bytes of codes a row: 2 for the key, 7 for each
// of the three other columns, in whole pages; the last block float64s
// while it fills), 3.0 B of primary index
// (which is also the key→version-chain-head map), 10.1 B of host index at
// the same node order, 0.2 B of TRS-Tree and 0.3 B of version table — a
// frozen bit and an eighth of a granule pointer: a row that was loaded
// carries no version header. What the budget keeps from silently eroding,
// newest first: rows of four 8-byte floats, 32.2 B of row store (45.9
// B/row); B+-tree leaves that spent 16 bytes on every entry, where
// packed into frames they spend 2 (primary) and 9 (host) (67.1 B/row);
// primary-index node arrays one slot over the 1 KiB size
// class, which the allocator rounded up to 1152 B (69.9 B/row); the 24 B
// header every row used to carry and the 16-entry nodes that cost the host
// index 8.4 B/row more (103.3 B/row before both), the separate heads map the
// primary replaced (22 B/row), and the per-version heap objects and pinned
// split arrays of the first MVCC engine (219 B/row). Memory() must account
// for what the process holds to within 2%.
func TestHeapBytesPerRowBudget(t *testing.T) {
	const rows, budget = 200_000, 41.9
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle frees what sync.Pools kept as victims
	runtime.ReadMemStats(&before)
	db, tb := loadSyntheticWithHermit(t, rows)
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := float64(after.HeapAlloc-before.HeapAlloc) / rows
	m := tb.Memory()
	reported := float64(m.Total()+m.VersionBytes) / rows
	t.Logf("heap %.1f B/row, Memory() reports %.1f B/row: %+v", heap, reported, m)
	if heap > budget {
		t.Errorf("heap %.1f B/row over the %.0f B/row budget", heap, budget)
	}
	if reported < 0.98*heap || reported > 1.02*heap {
		t.Errorf("Memory() reports %.1f B/row, the process holds %.1f", reported, heap)
	}
	runtime.KeepAlive(db)
}

// churnTable is what churnSynthetic writes through: a *hermitdb.Table, or a
// table of a durable DB (durableSyn).
type churnTable interface {
	Insert(row []float64) (hermitdb.RID, error)
	UpdateColumn(pk float64, col int, v float64) error
	Delete(pk float64) (bool, error)
	Len() int
}

// durableSyn is the table "syn" of a durable database, written through the
// database as a durable table must be.
type durableSyn struct{ d *hermitdb.DB }

func (s durableSyn) Insert(row []float64) (hermitdb.RID, error) { return s.d.Insert("syn", row) }
func (s durableSyn) UpdateColumn(pk float64, col int, v float64) error {
	return s.d.UpdateColumn("syn", pk, col, v)
}
func (s durableSyn) Delete(pk float64) (bool, error) { return s.d.Delete("syn", pk) }
func (s durableSyn) Len() int {
	tb, _ := s.d.Table("syn")
	return tb.Len()
}

// churnSynthetic turns the table loaded by loadSyntheticWithHermit over:
// each turnover visits every live row once, in random order, and either
// rewrites its payload column (a new version of the row) or — one visit in
// deleteOneIn — deletes it and inserts a row under a fresh key, so the live
// count never moves. No GC call is made: each commit reclaims the version it
// ends. keys holds the live primary keys and is kept up to date.
func churnSynthetic(t *testing.T, tb churnTable, keys []float64, turnovers, deleteOneIn int) {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	next := float64(len(keys))
	row := make([]float64, 4)
	for turn := 0; turn < turnovers; turn++ {
		for _, i := range rng.Perm(len(keys)) {
			if rng.Intn(deleteOneIn) < deleteOneIn-1 {
				if err := tb.UpdateColumn(keys[i], 3, rng.Float64()); err != nil {
					t.Fatal(err)
				}
			} else {
				if found, err := tb.Delete(keys[i]); err != nil || !found {
					t.Fatalf("delete %v: found=%v err=%v", keys[i], found, err)
				}
				c := rng.Float64() * 1000
				row[0], row[1], row[2], row[3] = next, hermitdb.Sigmoid.Eval(c), c, rng.Float64()
				if _, err := tb.Insert(row); err != nil {
					t.Fatal(err)
				}
				keys[i] = next
				next++
			}
		}
	}
	if tb.Len() != len(keys) {
		t.Fatalf("%d live rows after the churn, want %d", tb.Len(), len(keys))
	}
}

// liveKeys returns the primary keys loadSyntheticWithHermit loaded.
func liveKeys(rows int) []float64 {
	keys := make([]float64, rows)
	for i := range keys {
		keys[i] = float64(i)
	}
	return keys
}

// TestHeapFollowsLiveRows is TestHeapBytesPerRowBudget after the table has
// been written to: five turnovers of every row later the table has the
// rows it was loaded with, a million versions have come and gone, and what
// the process holds per live row must be within 1.3x of what it held as
// loaded and at most 46.5 B — the row and version slot a commit reclaims is
// refilled by the next, hollow B+-tree nodes merge, and a node array has the
// size class of the entries it holds — with Memory() still accounting for it
// to within 2%. The slack is what a store that has been written to holds
// over a freshly loaded one: B+-tree nodes that splits and merges keep
// between half full and full where the bulk load packed them to 85%, and
// packed blocks whose rows under new keys are exceptions to the key
// frame, or whose key codes widened when those outgrew the wider codes. The version table is not part of it: with no snapshot open
// every commit freezes what it wrote, so it is, to the byte per row, what
// it was as loaded. Measured: 41.8 B/row against 38.1 as loaded, 1.10x —
// the primary index grows from 3.0 to 5.8 B/row, as the row ids it holds
// stop being consecutive and need 3 bytes of code (every row has moved, so
// no narrow id frame holds most of a leaf's ids, and a leaf keeps none of
// them as an exception, as it does the few moved rows of a lighter churn),
// the row store from 24.5 to 24.6 (25.1 when every refill under a new key
// widened its block's key codes); 49.5 against 45.9 when a row was four 8-byte floats; 70.0
// against 67.1 when every B+-tree entry took 16 bytes (70.4 against 67.4
// before that, 1.04x; 78.2 against 67.5 when every node array an insert
// touched had a full node's capacity; 83.6 against 69.9 when node arrays
// spilled into the 1152-byte size class; 122.8 against 103.3 when every
// row carried a header; 130.7, 1.27x, when
// reclamation was a GC pass every tenth of a turnover; an engine that
// appends every version and never merges a node held 468.6 after the same
// run, 4.5x).
func TestHeapFollowsLiveRows(t *testing.T) {
	if testing.Short() {
		t.Skip("five turnovers of 200k rows")
	}
	const rows = 200_000
	keys := liveKeys(rows)
	var before, loaded, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle frees what sync.Pools kept as victims
	runtime.ReadMemStats(&before)
	db, tb := loadSyntheticWithHermit(t, rows)
	runtime.GC()
	runtime.ReadMemStats(&loaded)
	versionsAsLoaded := tb.Memory().VersionBytes
	churnSynthetic(t, tb, keys, 5, 2)
	runtime.GC()
	runtime.ReadMemStats(&after)
	asLoaded := float64(loaded.HeapAlloc-before.HeapAlloc) / rows
	heap := float64(after.HeapAlloc-before.HeapAlloc) / rows
	m := tb.Memory()
	reported := float64(m.Total()+m.VersionBytes) / rows
	t.Logf("heap %.1f B/row as loaded, %.1f after five turnovers; Memory() reports %.1f B/row: %+v", asLoaded, heap, reported, m)
	if heap > 1.3*asLoaded || heap > 46.5 {
		t.Errorf("heap %.1f B/row after five turnovers, %.1f as loaded; want <= 46.5", heap, asLoaded)
	}
	if reported < 0.98*heap || reported > 1.02*heap {
		t.Errorf("Memory() reports %.1f B/row, the process holds %.1f", reported, heap)
	}
	if m.VersionBytes > versionsAsLoaded+rows {
		t.Errorf("version table %d B after five turnovers with no snapshot open, %d B as loaded: more than 1 B/row apart", m.VersionBytes, versionsAsLoaded)
	}
	runtime.KeepAlive(db)
	runtime.KeepAlive(keys)
}

// heapProfile makes TestHeapProfileOfLoad write a heap profile of a loaded
// 1M-row table, taken while the table is live, and heapChurnProfile makes
// TestHeapProfileOfChurn write one of the same table after five turnovers;
// heapDurableProfile makes TestHeapProfileOfDurableChurn write one of a durable
// table five turnovers after its only checkpoint (`make heap-profile`).
var (
	heapProfile        = flag.String("heap.profile", "", "write the heap profile of a 1M-row Synthetic load to this file")
	heapChurnProfile   = flag.String("heap.churnprofile", "", "write the heap profile of a 1M-row Synthetic table after five turnovers to this file")
	heapDurableProfile = flag.String("heap.durableprofile", "", "write the heap profile of a 200k-row durable Synthetic table five turnovers after its checkpoint to this file")
)

// writeHeapProfile writes the heap profile of the live heap to path.
func writeHeapProfile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC() // the profile reports the heap as of the last collection
	if err := pprof.WriteHeapProfile(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapProfileOfLoad(t *testing.T) {
	if *heapProfile == "" {
		t.Skip("no -heap.profile file named")
	}
	db, _ := loadSyntheticWithHermit(t, 1_000_000)
	writeHeapProfile(t, *heapProfile)
	runtime.KeepAlive(db)
}

func TestHeapProfileOfChurn(t *testing.T) {
	if *heapChurnProfile == "" {
		t.Skip("no -heap.churnprofile file named")
	}
	const rows = 1_000_000
	db, tb := loadSyntheticWithHermit(t, rows)
	churnSynthetic(t, tb, liveKeys(rows), 5, 2)
	writeHeapProfile(t, *heapChurnProfile)
	runtime.KeepAlive(db)
}

// TestHeapProfileOfDurableChurn is the census of a table that serves: a
// durable DB, 200k Synthetic rows with the host B+-tree and the Hermit index,
// one checkpoint, then five turnovers (one visit in a hundred a delete and an
// insert) and no checkpoint after them — every live row is in the WAL tail and
// in no block. It is also the guard on what that costs in memory: a bit a row
// and 16 bytes a delete, not a version header a row (24 B/row, when a row kept
// its header until a checkpoint had flushed it).
func TestHeapProfileOfDurableChurn(t *testing.T) {
	if *heapDurableProfile == "" {
		t.Skip("no -heap.durableprofile file named")
	}
	const rows = 200_000
	d, err := hermitdb.OpenDurable(t.TempDir(), hermitdb.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	spec := hermitdb.SyntheticSpec{Rows: rows, Fn: hermitdb.Sigmoid, Noise: 0.01, Seed: 1}
	if _, err := d.CreateTable("syn", spec.Columns(), spec.PKCol()); err != nil {
		t.Fatal(err)
	}
	syn := durableSyn{d}
	if err := spec.Generate(func(row []float64) error {
		_, err := syn.Insert(row)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for _, def := range []hermitdb.IndexDef{
		{Kind: "btree", Col: spec.HostCol()},
		{Kind: "hermit", Col: spec.TargetCol(), Host: spec.HostCol()},
	} {
		if err := d.CreateIndex("syn", def); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	churnSynthetic(t, syn, liveKeys(rows), 5, 100)
	writeHeapProfile(t, *heapDurableProfile)
	tb, _ := d.Table("syn")
	st := d.StorageStats()
	perRow := float64(tb.Memory().VersionBytes) / rows
	t.Logf("version table %.2f B/row; %d rows unflushed, %d deletes listed, %d rows carry a header", perRow, st.VersionsUnflushed, st.UnflushedDeletes, st.VersionsUnfrozen)
	if perRow > 4 {
		t.Errorf("version table %.2f B/row five turnovers after the checkpoint, want <= 4: unflushed rows carry headers again?", perRow)
	}
}

// TestLogicalIDsPacked guards what a logical id costs the indexes of a
// durable table. hermit.LogicalID of a whole key from 0 up is the key
// itself, as dense as a row id, so the B+-tree's leaves and the
// TRS-Tree's outlier arena, which keep an id in the bytes it needs, keep
// it in the bytes a row id would take. A logical-pointer durable DB holds
// 200k Synthetic rows, keys 0 to 199 999, with the host B+-tree and Hermit;
// the targets of a third of the rows then move off the model, as the
// repository benchmark's durable-write moves them, and each becomes an
// outlier record.
//
// The host index must hold at most 11 B/entry, bulk-loaded and after the
// updates (14.8 and 14.7 while ids took 8 bytes of code; 10.1 measured
// since). A Hermit index built afresh over the updated table, row 0 among
// its outliers, must keep its outlier records in at most 7 bytes, a 4-byte
// target code and 3 of id (12 while ids took 8 bytes; 8 while they were
// ranks, which put key 0 2^62 below key 1).
//
// A fresh tree's arena is exactly its records and 8 bytes of pad; what
// SizeBytes holds beside it is the 288-byte Tree, a 40-byte leaf a leaf
// and NodeFanout 4-byte references an inner node (trstree's
// TestLeafLayout), and the allocator's rounding of the three arrays,
// which tens of thousands of records divide to under a byte.
func TestLogicalIDsPacked(t *testing.T) {
	const rows = 200_000
	d, err := hermitdb.OpenDurable(t.TempDir(), hermitdb.LogicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	spec := hermitdb.SyntheticSpec{Rows: rows, Fn: hermitdb.Sigmoid, Noise: 0.01, Seed: 1}
	if _, err := d.CreateTable("syn", spec.Columns(), spec.PKCol()); err != nil {
		t.Fatal(err)
	}
	syn := durableSyn{d}
	if err := spec.Generate(func(row []float64) error {
		_, err := syn.Insert(row)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	hermitDef := hermitdb.IndexDef{Kind: "hermit", Col: spec.TargetCol(), Host: spec.HostCol()}
	for _, def := range []hermitdb.IndexDef{{Kind: "btree", Col: spec.HostCol()}, hermitDef} {
		if err := d.CreateIndex("syn", def); err != nil {
			t.Fatal(err)
		}
	}
	tb, err := d.Table("syn")
	if err != nil {
		t.Fatal(err)
	}
	hostBytes := func(when string) {
		t.Helper()
		host := tb.Secondary(spec.HostCol())
		per := float64(host.SizeBytes()) / float64(host.Len())
		t.Logf("host index %s: %.2f B/entry", when, per)
		if per > 11 {
			t.Errorf("host index %s: %.2f B/entry, want <= 11", when, per)
		}
	}
	hostBytes("bulk-loaded")
	rng := rand.New(rand.NewSource(2))
	for range rows / 3 {
		if err := syn.UpdateColumn(float64(rng.Intn(rows)), spec.TargetCol(), rng.Float64()*1000); err != nil {
			t.Fatal(err)
		}
	}
	hostBytes("after the updates")

	if err := d.DropIndex("syn", spec.TargetCol(), "hermit"); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateIndex("syn", hermitDef); err != nil {
		t.Fatal(err)
	}
	tr := tb.Hermit(spec.TargetCol()).Tree()
	if !slices.Contains(tr.Lookup(math.Inf(-1), math.Inf(1)).IDs, hermit.LogicalID(0)) {
		t.Fatal("row 0 is no outlier: the arena holds no id of key 0")
	}
	st := tr.Stats()
	besides := 288 + 40*st.Leaves + 4*tr.Params().NodeFanout*(st.Nodes-st.Leaves)
	if st.Outliers < 3*8192 {
		t.Fatalf("%d outliers are too few to divide the allocator's rounding to under a byte", st.Outliers)
	}
	rec := (int(st.SizeBytes) - besides - 8) / st.Outliers
	t.Logf("Hermit: %d outliers in %d leaves, %d B: %d-byte records", st.Outliers, st.Leaves, st.SizeBytes, rec)
	if rec > 7 {
		t.Errorf("Hermit: outlier records of %d bytes, want <= 7", rec)
	}
}
