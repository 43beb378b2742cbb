package engine

import (
	"errors"
	"math"
	"os"
	"slices"
	"sync"
	"testing"

	"hermit/internal/hermit"
	"hermit/internal/storage"
)

// NaN is a legal float64 primary key (see partition_test.go), but NaN
// never equals itself, so any float64-keyed map silently loses it. The
// version chains key by bit pattern instead: duplicate NaN inserts are
// rejected, delete/update find the chain, and a delta flush emits exactly
// one entry per NaN payload — not one per insert, which a block.Writer
// would reject as duplicates.
func TestNaNPrimaryKeyEngine(t *testing.T) {
	db := NewDB(hermit.LogicalPointers)
	tb, err := db.CreateTable("t", []string{"k", "v"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb.trackDeletes = true // it flushes deltas: DeltaVersions has bits to read
	nan := math.NaN()
	if _, err := tb.Insert([]float64{nan, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert([]float64{nan, 2}); !errors.Is(err, ErrDupKey) {
		t.Fatalf("duplicate NaN insert: got %v, want ErrDupKey", err)
	}
	if err := tb.UpdateColumn(nan, 1, 3); err != nil {
		t.Fatalf("update by NaN key: %v", err)
	}
	var delta [][]float64
	if err := tb.DeltaVersions(db.Clock().Now(), func(_ float64, row []float64) error {
		delta = append(delta, slices.Clone(row))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(delta) != 1 || len(delta[0]) != 2 || !math.IsNaN(delta[0][0]) || delta[0][1] != 3 {
		t.Fatalf("delta = %v, want exactly one NaN upsert with v=3", delta)
	}
	if found, err := tb.Delete(nan); err != nil || !found {
		t.Fatalf("delete by NaN key: found=%v err=%v", found, err)
	}
	if found, _ := tb.Delete(nan); found {
		t.Fatal("second delete found an already-deleted NaN key")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after deleting the only row", tb.Len())
	}
	// Re-insert over the dead chain.
	if _, err := tb.Insert([]float64{nan, 4}); err != nil {
		t.Fatalf("re-insert after delete: %v", err)
	}
}

// A NaN key must survive the whole block pipeline: repeated delta
// flushes, a merge (which dedupes by key bits — by float it would emit
// duplicates and wedge compaction forever), cold point reads, a
// tombstone, and recovery (where a float-keyed replay map could not
// suppress the earlier upsert, resurrecting the deleted row).
func TestDurableNaNKeyCheckpointCompactRecover(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{CompactFanIn: 2, DisableAutoCompact: true}
	d, err := OpenDurableOptions(dir, hermit.LogicalPointers, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []string{"k", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	if _, err := d.Insert("t", []float64{nan, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert("t", []float64{7, 7}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("first checkpoint with NaN key: %v", err)
	}
	if err := d.UpdateColumn("t", nan, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("second checkpoint (NaN in two blocks): %v", err)
	}
	if merged, err := d.Compact(); err != nil || !merged {
		t.Fatalf("compacting blocks sharing a NaN key: merged=%v err=%v", merged, err)
	}
	row, found, _, err := d.BlockRead("t", nan)
	if err != nil || !found || row[1] != 2 {
		t.Fatalf("cold NaN read = %v found=%v err=%v, want v=2", row, found, err)
	}
	if _, err := d.Delete("t", nan); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint flushing NaN tombstone: %v", err)
	}
	if _, found, _, err := d.BlockRead("t", nan); err != nil || found {
		t.Fatalf("cold read after delete: found=%v err=%v", found, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurableOptions(dir, hermit.LogicalPointers, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tb, err := d2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Fatalf("recovered %d rows, want 1 (the deleted NaN row must not resurrect)", tb.Len())
	}
	tb.ScanLive(func(_ storage.RID, row []float64) bool {
		if math.IsNaN(row[0]) {
			t.Errorf("deleted NaN row resurrected: %v", row)
		}
		return true
	})
}

// A point read that loads a table's stack just before a compaction
// publishes must retry against the fresh stack when the merged-away blocks
// are already closed — not surface a spurious os.ErrClosed.
func TestBlockReadRetriesAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurableOptions(dir, hermit.LogicalPointers,
		DurableOptions{CompactFanIn: 2, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.CreateTable("t", []string{"k", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Insert("t", []float64{float64(i), float64(i * 10)}); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// Load the stack the way a concurrent BlockRead would, before the
	// compaction publishes and setStacks closes the merged-away blocks.
	d.dur.mu.RLock()
	stale := d.dur.stacks["t"]
	d.dur.mu.RUnlock()
	if merged, err := d.Compact(); err != nil || !merged {
		t.Fatalf("compact: merged=%v err=%v", merged, err)
	}
	// The stale stack now names closed blocks: a raw probe fails (the
	// trigger for the retry path)...
	if _, _, _, err := stale.Get(0); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("stale probe error = %v, want os.ErrClosed", err)
	}
	// ...and BlockRead retries against the published stack.
	row, found, _, err := d.BlockRead("t", 0)
	if err != nil || !found || row[1] != 0 {
		t.Fatalf("BlockRead after compaction = %v found=%v err=%v", row, found, err)
	}
	// With no new epoch to retry on — the database closed — the error surfaces.
	d.Close()
	if _, _, _, err := d.BlockRead("t", 0); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("BlockRead on a closed database: %v", err)
	}
}

// Cold point reads hammered while checkpoints and compactions republish
// the block stacks must never fail: BlockRead retries when the stack it loaded
// is retired under it.
func TestBlockReadUnderCompactionChurn(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurableOptions(dir, hermit.LogicalPointers,
		DurableOptions{CompactFanIn: 2, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.CreateTable("t", []string{"k", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert("t", []float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readErr error
	var mu sync.Mutex
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, found, _, err := d.BlockRead("t", 0); err != nil || !found {
					mu.Lock()
					if readErr == nil {
						readErr = errors.Join(err, errors.New("key 0 not found"))
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	for i := 1; i < 40; i++ {
		if _, err := d.Insert("t", []float64{float64(i), float64(i)}); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if readErr != nil {
		t.Fatalf("cold read failed during compaction churn: %v", readErr)
	}
}

// A failing compaction round must be visible in StorageStats — the
// background compactor stops on error, and without the counters a
// stalled compactor with a growing backlog looks idle.
func TestCompactErrorSurfacedInStats(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurableOptions(dir, hermit.LogicalPointers,
		DurableOptions{CompactFanIn: 2, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.CreateTable("t", []string{"k", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Insert("t", []float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	d.dur.failpoint = func(step string) error {
		if step == "compact-begin" {
			return boom
		}
		return nil
	}
	if _, err := d.Compact(); !errors.Is(err, boom) {
		t.Fatalf("Compact error = %v, want boom", err)
	}
	st := d.StorageStats()
	if st.CompactErrors != 1 || st.LastCompactError != "boom" {
		t.Fatalf("stats after failed round: errors=%d last=%q", st.CompactErrors, st.LastCompactError)
	}
	d.dur.failpoint = nil
	if merged, err := d.Compact(); err != nil || !merged {
		t.Fatalf("retry compact: merged=%v err=%v", merged, err)
	}
	st = d.StorageStats()
	if st.LastCompactError != "" {
		t.Fatalf("LastCompactError = %q after a successful round, want cleared", st.LastCompactError)
	}
	if st.CompactErrors != 1 {
		t.Fatalf("CompactErrors = %d, want the counter to persist at 1", st.CompactErrors)
	}
}

// TestNaNPrimaryKeyTxn: a transaction's write buffer keys by bit pattern
// too. A NaN key buffered by one insert is found again by the next — a
// second NaN insert is a duplicate, a delete after the insert cancels it —
// and Commit applies it instead of losing it (a float64-keyed buffer made
// Commit dereference a missing entry and panic).
func TestNaNPrimaryKeyTxn(t *testing.T) {
	db := NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("t", []string{"k", "v"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	x := db.Begin()
	if err := x.Insert("t", []float64{nan, 1}); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert("t", []float64{nan, 2}); !errors.Is(err, ErrDupKey) {
		t.Fatalf("second NaN insert in one txn: got %v, want ErrDupKey", err)
	}
	if row, ok, err := x.Get("t", nan); err != nil || !ok || row[1] != 1 {
		t.Fatalf("read-your-writes of a NaN key: %v %v %v", row, ok, err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, _, err := tb.Exec(Query{Col: 0, Lo: nan, Hi: nan, Path: PathPrimary}, nil)
	if err != nil || len(rows) != 2 || !math.IsNaN(rows[0]) || rows[1] != 1 {
		t.Fatalf("committed NaN row: %v err=%v", rows, err)
	}

	// Insert then delete in one transaction: nothing is applied.
	other := math.Float64frombits(math.Float64bits(nan) ^ 1) // another NaN payload
	x = db.Begin()
	if err := x.Insert("t", []float64{other, 5}); err != nil {
		t.Fatal(err)
	}
	if found, err := x.Delete("t", other); err != nil || !found {
		t.Fatalf("delete of the NaN key the txn inserted: found=%v err=%v", found, err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after insert+delete of a second NaN key, want 1", tb.Len())
	}
}

// TestNaNPrimaryKeyDurableBatch: an atomic batch inserting a NaN key — the
// path a wire batch frame takes — commits, is logged and survives reopen.
func TestNaNPrimaryKeyDurableBatch(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []string{"k", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	res := d.ExecuteBatch([]Op{
		{Table: "t", Kind: OpInsert, Row: []float64{nan, 1}},
		{Table: "t", Kind: OpInsert, Row: []float64{7, 2}},
	}, 1)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	if res := d.ExecuteBatch([]Op{{Table: "t", Kind: OpInsert, Row: []float64{nan, 3}}}, 1); !errors.Is(res[0].Err, ErrDupKey) {
		t.Fatalf("duplicate NaN insert by batch: %v, want ErrDupKey", res[0].Err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tb, err := d.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("reopened: %d rows, want 2", tb.Len())
	}
}
