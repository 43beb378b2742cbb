package engine

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hermit/internal/block"
	"hermit/internal/hermit"
	"hermit/internal/storage"
)

// BenchmarkCheckpointSparseDelta is a checkpoint whose delta is a thousandth
// of the table: 1M rows loaded and checkpointed, then per iteration 1000 of
// them updated (untimed) and Checkpoint (timed). What it costs beyond writing
// a 1000-entry block is what the harvest pays to find those entries.
func BenchmarkCheckpointSparseDelta(b *testing.B) {
	const rows, changed = 1_000_000, 1000
	d, err := OpenDurableOptions(b.TempDir(), hermit.PhysicalPointers, DurableOptions{DisableAutoCompact: true})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if _, err := d.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
		b.Fatal(err)
	}
	ops, results := make([]Op, 0, 4096), make([]OpResult, 4096)
	for i := 0; i < rows; {
		ops = ops[:0]
		for ; i < rows && len(ops) < cap(ops); i++ {
			ops = append(ops, Op{Table: "t", Kind: OpInsert, Row: []float64{float64(i), 0}})
		}
		d.ApplyEach(ops, results)
		for _, r := range results[:len(ops)] {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	if err := d.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 1; n <= b.N; n++ {
		b.StopTimer()
		for i := 0; i < changed; i++ {
			if err := d.UpdateColumn("t", float64(i*(rows/changed)), 1, float64(n)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := d.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// The delta-harvest model check: a seeded schedule of inserts, updates,
// deletes, a delete and a re-insert of one key between two checkpoints, and
// multi-key transactions over a durable table, with checkpoints at random
// steps — plain; racing writers that commit between the cut and the harvest
// (they run inside the after-swap failpoint, where the flush snapshot is pinned
// and the latch is free: among them an update and a delete of rows the cut must
// still write); failing at after-block:<table> and retried; and taken under a
// pinned user snapshot. The oracle is a map of the live rows with the commit
// timestamp each was written at, and of the keys deleted with theirs. After
// every publish the fold of the block stack is the oracle at the cut, row for
// row, and the block just written holds exactly the delta — the rows written
// and the keys deleted since the cut before, nothing the blocks had. After
// every step versions_unflushed is the number of live rows written since the
// last published cut (plus at most the ended versions a snapshot still pins),
// which a failed checkpoint leaves alone; and once the schedule has quiesced
// no row carries a version header, although most are in no block.
func TestDeltaHarvestModel(t *testing.T) {
	seeds, steps := 4, 1200
	if testing.Short() || raceEnabled {
		seeds, steps = 2, 600
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runDeltaHarvestModel(t, int64(seed), steps) })
	}
}

// harvestRow is the oracle's record of a live row: the row, and the commit
// that wrote it.
type harvestRow struct {
	v, w float64
	at   uint64
}

func runDeltaHarvestModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	opts := DurableOptions{DisableAutoCompact: true, WALRotateBytes: -1}
	d, err := OpenDurableOptions(dir, hermit.LogicalPointers, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	if _, err := d.CreateTable("t", []string{"pk", "v", "w"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateIndex("t", IndexDef{Kind: "btree", Col: 1}); err != nil {
		t.Fatal(err)
	}
	tb, _ := d.Table("t")

	live := make(map[float64]harvestRow) // -0 and +0 are one key here too
	died := make(map[float64]uint64)     // key -> its last delete, while no publish has recorded it
	var cut uint64                       // the last published flush cut
	now := func() uint64 { return d.Clock().Now() }
	fail := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	pick := func() float64 {
		if rng.Intn(40) == 0 {
			return math.Copysign(0, -1)
		}
		return float64(rng.Intn(160))
	}
	pickLive := func() (float64, bool) {
		for range 8 {
			if pk := pick(); live[pk] != (harvestRow{}) {
				return pk, true
			}
		}
		return 0, false
	}
	val := func() float64 { return float64(rng.Intn(1000)) }
	insert := func(pk float64) {
		r := harvestRow{v: val(), w: val()}
		_, err := d.Insert("t", []float64{pk, r.v, r.w})
		fail("insert", err)
		r.at = now()
		live[pk] = r
	}
	update := func(pk float64) {
		r := live[pk]
		if v := val(); v != r.v {
			fail("update", d.UpdateColumn("t", pk, 1, v))
			live[pk] = harvestRow{v: v, w: r.w, at: now()}
		}
	}
	del := func(pk float64) {
		found, err := d.Delete("t", pk)
		if err != nil || !found {
			t.Fatalf("delete %v: found=%v err=%v", pk, found, err)
		}
		delete(live, pk)
		died[pk] = now()
	}
	txn := func() {
		tx := d.Begin()
		wrote := make(map[float64]*harvestRow) // nil: deleted
		for range 2 + rng.Intn(3) {
			pk := pick()
			if _, again := wrote[pk]; again {
				continue
			}
			switch r, ok := live[pk]; {
			case !ok:
				r = harvestRow{v: val(), w: val()}
				fail("txn insert", tx.Insert("t", []float64{pk, r.v, r.w}))
				wrote[pk] = &r
			case rng.Intn(3) == 0:
				_, err := tx.Delete("t", pk)
				fail("txn delete", err)
				wrote[pk] = nil
			default:
				r.w = -r.w - 1 // never the value it has
				fail("txn update", tx.Update("t", pk, 2, r.w))
				wrote[pk] = &r
			}
		}
		fail("txn commit", tx.Commit())
		for pk, r := range wrote {
			if r == nil {
				delete(live, pk)
				died[pk] = now()
			} else {
				r.at = now()
				live[pk] = *r
			}
		}
	}
	write := func() {
		switch pk := pick(); {
		case live[pk] == (harvestRow{}):
			insert(pk)
		case rng.Intn(4) == 0:
			del(pk)
		case rng.Intn(6) == 0:
			del(pk) // and back inside one window: the row must win over the tombstone
			insert(pk)
		default:
			update(pk)
		}
	}

	scan := func() map[float64]harvestRow {
		got := make(map[float64]harvestRow)
		tb.ScanLive(func(_ storage.RID, row []float64) bool {
			got[row[0]] = harvestRow{v: row[1], w: row[2]}
			return true
		})
		return got
	}
	rowsOf := func(m map[float64]harvestRow) map[float64]harvestRow {
		out := make(map[float64]harvestRow, len(m))
		for pk, r := range m {
			out[pk] = harvestRow{v: r.v, w: r.w}
		}
		return out
	}
	// checkCounts holds versions_unflushed and unflushed_deletes to the oracle.
	checkCounts := func(what string) {
		t.Helper()
		unflushed, deaths := 0, 0
		for _, r := range live {
			if r.at > cut {
				unflushed++
			}
		}
		st := d.StorageStats()
		if st.VersionsUnflushed < unflushed || st.VersionsUnflushed > unflushed+st.VersionsPending {
			t.Fatalf("%s: versions_unflushed %d, the oracle has %d live rows written since the cut at %d (%d versions pending)",
				what, st.VersionsUnflushed, unflushed, cut, st.VersionsPending)
		}
		for _, ts := range died {
			if ts > cut {
				deaths++
			}
		}
		if st.UnflushedDeletes < deaths {
			t.Fatalf("%s: %d unflushed deletes listed, %d keys died since the cut at %d", what, st.UnflushedDeletes, deaths, cut)
		}
	}
	// checkpoint runs one checkpoint whose after-swap window plays racing and
	// whose write phase fails at failAt (neither: nil, ""), and checks what it
	// published, or that it published nothing.
	checkpoint := func(what string, racing func(), failAt string) {
		t.Helper()
		var atCut map[float64]harvestRow
		var cutTS uint64
		d.failpoint = func(step string) error {
			switch {
			case step == "after-swap":
				atCut, cutTS = rowsOf(live), now()
				if got := scan(); !maps.Equal(got, atCut) {
					t.Fatalf("%s: ScanLive at the cut differs from the oracle (%d rows, %d)", what, len(got), len(atCut))
				}
				if racing != nil {
					racing()
				}
			case step == failAt:
				return errors.New("injected")
			}
			return nil
		}
		// The delta the block must hold, no more: rows written and keys dead
		// since the last published cut, as of now — the cut to be.
		want := 0
		for _, r := range live {
			if r.at > cut {
				want++
			}
		}
		for pk := range died {
			if _, back := live[pk]; !back {
				want++
			}
		}
		before := d.StorageStats()
		err := d.Checkpoint()
		d.failpoint = nil
		if failAt != "" {
			if err == nil {
				t.Fatalf("%s: the checkpoint survived its failpoint", what)
			}
			if st := d.StorageStats(); st.Flushes != before.Flushes || st.BlockEntries != before.BlockEntries {
				t.Fatalf("%s: a failed checkpoint published something", what)
			}
			checkCounts(what + ", failed")
			return
		}
		fail(what, err)
		cut = cutTS
		for pk, ts := range died {
			if ts <= cut {
				delete(died, pk)
			}
		}
		if st := d.StorageStats(); int(st.BlockEntries-before.BlockEntries) != want {
			t.Fatalf("%s: the delta block holds %d entries, the oracle's delta has %d", what, st.BlockEntries-before.BlockEntries, want)
		}
		fold := make(map[float64]harvestRow)
		d.mu.RLock()
		stack := d.stacks["t"]
		d.mu.RUnlock()
		fail(what+": fold", block.Merge(stack, func(pk float64, row []float64) error {
			if row != nil {
				if pk != row[0] {
					t.Fatalf("%s: block entry %v carries the row %v", what, pk, row)
				}
				fold[pk] = harvestRow{v: row[1], w: row[2]}
			}
			return nil
		}))
		if !maps.Equal(fold, atCut) {
			for pk, r := range atCut {
				if fold[pk] != r {
					t.Errorf("%s: key %v is %+v at the cut, the blocks fold to %+v", what, pk, r, fold[pk])
				}
			}
			t.Fatalf("%s: the blocks fold to %d rows, %d were live at the cut (%d)", what, len(fold), len(atCut), cut)
		}
		checkCounts(what)
	}
	// racers commit beside the write phase: an update and a delete of rows the
	// cut must still write, an update of a flushed row, a delete and re-insert,
	// an insert of a fresh key and a transaction.
	fresh := 1000.0
	racers := func() {
		var unflushed, flushed []float64
		for pk, r := range live {
			if r.at > cut {
				unflushed = append(unflushed, pk)
			} else {
				flushed = append(flushed, pk)
			}
		}
		slices.Sort(unflushed) // map order is not the seed's
		slices.Sort(flushed)
		if len(unflushed) > 1 {
			i := rng.Intn(len(unflushed) - 1)
			update(unflushed[i])
			del(unflushed[i+1])
		}
		if len(flushed) > 1 {
			i := rng.Intn(len(flushed) - 1)
			update(flushed[i])
			del(flushed[i+1])
			insert(flushed[i+1])
		}
		fresh++
		insert(fresh)
		txn()
	}

	kinds := 0
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 4:
			switch kinds++; kinds % 4 {
			case 1:
				checkpoint("plain checkpoint", nil, "")
			case 2:
				checkpoint("racing checkpoint", racers, "")
			case 3:
				checkpoint("failing checkpoint", racers, "after-block:t")
				if rng.Intn(2) == 0 {
					write() // the retry's cut may be a later one
				}
				checkpoint("retried checkpoint", nil, "")
			default:
				snap := d.Snapshot()
				for range 20 {
					write()
				}
				checkpoint("checkpoint under a snapshot", racers, "")
				for range 5 {
					write()
				}
				snap.Release()
			}
		case r < 12:
			txn()
		default:
			write()
		}
		checkCounts("write")
		if step%50 == 0 {
			if got := scan(); !maps.Equal(got, rowsOf(live)) {
				t.Fatalf("step %d: ScanLive differs from the oracle (%d rows, %d)", step, len(got), len(live))
			}
		}
	}
	if kinds < 4 {
		t.Fatalf("the schedule took %d checkpoints, fewer than its four kinds", kinds)
	}
	// Quiesce: no snapshot is open, and every commit sweeps a granule, so a
	// revolution later nothing a snapshot kept from freezing is left — with no
	// checkpoint taken, and most of these rows in no block.
	for i := 0; i < len(tb.vers)*blockGranules+8; i++ {
		pk, ok := pickLive()
		if !ok {
			pk = pick()
			insert(pk)
		}
		update(pk)
	}
	checkCounts("quiesced")
	if st := d.StorageStats(); st.VersionsUnfrozen != 0 || st.VersionsPending != 0 || st.VersionsUnflushed == 0 {
		t.Fatalf("quiesced with no checkpoint: %d rows carry a header, %d versions pending, %d unflushed; want 0, 0, some",
			st.VersionsUnfrozen, st.VersionsPending, st.VersionsUnflushed)
	}
	// And what the blocks and the log hold between them is the oracle: the
	// rows replayed from the tail are the unflushed ones again.
	fail("close", d.Close())
	if d, err = OpenDurableOptions(dir, hermit.LogicalPointers, opts); err != nil {
		t.Fatal(err)
	}
	tb, _ = d.Table("t")
	if got := scan(); !maps.Equal(got, rowsOf(live)) {
		t.Fatalf("recovered %d rows, the oracle has %d; they differ", len(got), len(live))
	}
	checkCounts("recovered")
}
