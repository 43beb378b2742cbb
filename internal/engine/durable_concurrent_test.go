package engine

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermit/internal/hermit"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// Concurrent durable-layer tests, mirroring concurrent_test.go for the
// in-memory engine: mutations, queries, DDL and checkpoints race under the
// -race CI job, and the acknowledged state must survive recovery.

// TestDurableConcurrentMutations drives writers on disjoint key ranges
// through the durable batched executor while readers query, then recovers
// and verifies nothing acknowledged was lost.
func TestDurableConcurrentMutations(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurableOptions(dir, hermit.LogicalPointers,
		DurableOptions{Policy: SyncGroup, GroupInterval: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	populateDurable(t, d, 1000, 21)

	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := 10_000 + w*perWriter
			ops := make([]Op, 0, perWriter)
			for i := 0; i < perWriter; i++ {
				pk := float64(base + i)
				c := float64(int(pk) % 1000)
				ops = append(ops, Op{Table: "syn", Kind: OpInsert, Row: []float64{pk, 2*c + 100, c, 0}})
			}
			for _, r := range d.ExecuteBatch(ops, 4) {
				if r.Err != nil {
					t.Error(r.Err)
				}
			}
			// Update then delete a slice of this writer's own keys.
			for i := 0; i < 20; i++ {
				if err := d.UpdateColumn("syn", float64(base+i), 3, 7); err != nil {
					t.Error(err)
				}
			}
			for i := 20; i < 40; i++ {
				if found, err := d.Delete("syn", float64(base+i)); err != nil || !found {
					t.Errorf("delete %d: %v %v", base+i, found, err)
				}
			}
		}(w)
	}
	// Readers race the writers through the durable query surface.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			reqs := []Op{
				{Table: "syn", Kind: OpQuery, Query: Query{Col: 2, Lo: 100, Hi: 200}},
				{Table: "syn", Kind: OpQuery, Query: Query{Col: 1, Lo: 300, Hi: 500}},
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, res := range d.ExecuteBatch(reqs, 2) {
					if res.Err != nil {
						t.Error(res.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	wantLen := 1000 + writers*(perWriter-20)
	tb, _ := d.Table("syn")
	if tb.Len() != wantLen {
		t.Fatalf("%d rows after concurrent batch, want %d", tb.Len(), wantLen)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, hermit.LogicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if n, serr := d2.RecoverySkipped(); n != 0 {
		t.Fatalf("%d records skipped in recovery (last: %v)", n, serr)
	}
	tb2, _ := d2.Table("syn")
	if tb2.Len() != wantLen {
		t.Fatalf("recovered %d rows, want %d", tb2.Len(), wantLen)
	}
	// Spot-check an update and a delete survived.
	if rids, _, err := rowsOf(tb2, Query{Col: 0, Lo: 10_000, Hi: 10_000}); err != nil || len(rids) != 1 {
		t.Fatalf("updated key lost: %v %v", rids, err)
	}
	if rids, _, err := rowsOf(tb2, Query{Col: 0, Lo: 10_020, Hi: 10_020}); err != nil || len(rids) != 0 {
		t.Fatalf("deleted key resurrected: %v %v", rids, err)
	}
}

// TestDurableCheckpointDuringTraffic races checkpoints and index creation
// against a stream of durable mutations: the historical data races were
// exactly here (tables-map writes vs checkpoint marshalling Defs, and WAL
// frame interleaving).
func TestDurableCheckpointDuringTraffic(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.LogicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("syn", synthCols, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		c := float64(i % 1000)
		if _, err := d.Insert("syn", []float64{float64(i), 2*c + 100, c, 0}); err != nil {
			t.Fatal(err)
		}
	}

	const writers, perWriter = 3, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := 50_000 + w*perWriter
			for i := 0; i < perWriter; i++ {
				pk := float64(base + i)
				c := float64(int(pk) % 1000)
				if _, err := d.Insert("syn", []float64{pk, 2*c + 100, c, 0}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// DDL while mutations stream: CreateIndex appends to the same Defs
	// slice Checkpoint marshals.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := d.CreateIndex("syn", IndexDef{Kind: "btree", Col: 1}); err != nil {
			t.Error(err)
		}
		if err := d.CreateIndex("syn", IndexDef{Kind: "hermit", Col: 2, Host: 1, Params: trstree.DefaultParams()}); err != nil {
			t.Error(err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := d.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	wantLen := 500 + writers*perWriter
	tb, _ := d.Table("syn")
	if tb.Len() != wantLen {
		t.Fatalf("%d rows, want %d", tb.Len(), wantLen)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, hermit.LogicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tb2, _ := d2.Table("syn")
	if tb2.Len() != wantLen {
		t.Fatalf("recovered %d rows, want %d", tb2.Len(), wantLen)
	}
	if tb2.IndexOn(1) != KindBTree || tb2.IndexOn(2) != KindHermit {
		t.Fatalf("indexes not recovered: %v %v", tb2.IndexOn(1), tb2.IndexOn(2))
	}
}

// TestDurableMixedBatchAcrossTables exercises the durable executor's
// cross-table dispatch, including per-op errors for missing tables.
func TestDurableMixedBatchAcrossTables(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("a", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("b", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	ops := []Op{
		{Table: "a", Kind: OpInsert, Row: []float64{1, 10}},
		{Table: "b", Kind: OpInsert, Row: []float64{1, 20}},
		{Table: "a", Kind: OpInsert, Row: []float64{2, 30}},
		{Table: "missing", Kind: OpQuery, Query: Query{Col: 0, Lo: 0, Hi: 1}},
	}
	res := d.ExecuteBatch(ops, 4)
	for i := 0; i < 3; i++ {
		if res[i].Err != nil {
			t.Fatalf("op %d: %v", i, res[i].Err)
		}
	}
	if res[3].Err == nil {
		t.Fatal("query on missing table accepted")
	}
	// A mutation on a missing table aborts the whole (atomic) batch.
	bad := d.ExecuteBatch([]Op{
		{Table: "a", Kind: OpInsert, Row: []float64{50, 1}},
		{Table: "missing", Kind: OpInsert, Row: []float64{1, 0}},
	}, 2)
	if bad[0].Err == nil || bad[1].Err == nil {
		t.Fatalf("batch with missing-table mutation not aborted: %v %v", bad[0].Err, bad[1].Err)
	}
	probe := d.ExecuteBatch([]Op{{Table: "a", Kind: OpQuery, Query: Query{Col: 0, Lo: 50, Hi: 50}}}, 1)[0]
	if probe.Err != nil || len(probe.Rows) != 0 {
		t.Fatalf("aborted durable batch leaked a row: %v err=%v", probe.Rows, probe.Err)
	}
	// Queries in a batch see the tables.
	qres := d.ExecuteBatch([]Op{
		{Table: "a", Kind: OpQuery, Query: Query{Col: 0, Lo: 0, Hi: 10}},
		{Table: "b", Kind: OpQuery, Query: Query{Col: 0, Lo: 1, Hi: 1}},
	}, 2)
	// Committed inserts are whole rows in the answers.
	if qres[0].Err != nil || !slices.Equal(qres[0].Rows, []float64{1, 10, 2, 30}) {
		t.Fatalf("query a: %v", qres[0])
	}
	if qres[1].Err != nil || !slices.Equal(qres[1].Rows, []float64{1, 20}) {
		t.Fatalf("query b: %v", qres[1])
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	ta, _ := d2.Table("a")
	tb, _ := d2.Table("b")
	if ta.Len() != 2 || tb.Len() != 1 {
		t.Fatalf("recovered a=%d b=%d, want 2/1", ta.Len(), tb.Len())
	}
}

// TestCheckpointUnderChurn races checkpoints against writers that update,
// delete and re-insert — every commit of theirs reclaiming what it ended —
// and compares what recovery rebuilds with what the writers were
// acknowledged. The checkpoint reads its delta unlatched: a version its cut
// sees that a writer supersedes a moment later must stay until its row is in
// the block (the flush snapshot), and a key deleted since the last cut whose
// chain is gone by then must still leave its tombstone (the delete list).
// Without the first the harvest loses rows, or fails fetching them; without
// the second deleted keys come back.
func TestCheckpointUnderChurn(t *testing.T) {
	const writers, keysPer = 2, 200
	ops := 6000
	if testing.Short() || raceEnabled {
		ops = 2000
	}
	dir := t.TempDir()
	opts := DurableOptions{DisableAutoCompact: true, CompactFanIn: 2}
	d, err := OpenDurableOptions(dir, hermit.PhysicalPointers, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateIndex("t", IndexDef{Kind: "btree", Col: 1}); err != nil {
		t.Fatal(err)
	}
	// Each writer owns a range of keys, so its oracle is exact.
	oracles := make([]map[float64]float64, writers)
	var wg sync.WaitGroup
	for w := range oracles {
		oracles[w] = make(map[float64]float64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			oracle, rng := oracles[w], rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				pk, v := float64(w*keysPer+rng.Intn(keysPer)), float64(i)
				var err error
				switch _, live := oracle[pk]; {
				case !live:
					_, err = d.Insert("t", []float64{pk, v})
					oracle[pk] = v
				case rng.Intn(3) == 0:
					_, err = d.Delete("t", pk)
					delete(oracle, pk)
				default:
					err = d.UpdateColumn("t", pk, 1, v)
					oracle[pk] = v
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var stopped atomic.Bool
	flushes, flusher := 0, make(chan struct{})
	go func() {
		defer close(flusher)
		for !stopped.Load() {
			if err := d.Checkpoint(); err != nil {
				t.Errorf("checkpoint %d: %v", flushes, err)
				return
			}
			if _, err := d.Compact(); err != nil {
				t.Errorf("compaction after checkpoint %d: %v", flushes, err)
				return
			}
			flushes++
		}
	}()
	wg.Wait()
	stopped.Store(true)
	<-flusher
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurableOptions(dir, hermit.PhysicalPointers, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if n, err := d2.RecoverySkipped(); n != 0 {
		t.Fatalf("%d records skipped during recovery (last: %v)", n, err)
	}
	want := make(map[float64]float64)
	for _, o := range oracles {
		maps.Copy(want, o)
	}
	got := make(map[float64]float64)
	tb, _ := d2.Table("t")
	tb.ScanLive(func(_ storage.RID, row []float64) bool { got[row[0]] = row[1]; return true })
	if !maps.Equal(got, want) {
		t.Fatalf("after %d checkpoints: recovered %d rows, acknowledged %d; they differ", flushes, len(got), len(want))
	}
}
