package engine

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hermit/internal/hermit"
	"hermit/internal/storage"
)

// This file is the crash-injection suite: it simulates a process kill at
// every step boundary of the checkpoint and compaction protocols (via the
// failpoint hook) and after torn WAL appends, then verifies that recovery
// restores exactly the acknowledged state — no lost writes, no
// double-applied rows or blocks.

var errInjectedCrash = errors.New("injected crash")

// crashOpts disables the background compactor so failpoint wiring cannot
// race with a concurrent compaction round; rotation stays off by default
// (the incremental path) and is forced per-test with WALRotateBytes: 1.
func crashOpts(rotate bool) DurableOptions {
	opts := DurableOptions{DisableAutoCompact: true, WALRotateBytes: -1}
	if rotate {
		opts.WALRotateBytes = 1
	}
	return opts
}

// checkpointSteps probes the failpoint labels a checkpoint of the given
// database emits, in order, so the crash sweep stays in sync with the
// protocol if steps are added or renamed.
func checkpointSteps(t *testing.T, build func(t *testing.T, dir string) *DB) []string {
	t.Helper()
	dir := t.TempDir()
	d := build(t, dir)
	var steps []string
	d.dur.failpoint = func(step string) error {
		steps = append(steps, step)
		return nil
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if len(steps) < 5 {
		t.Fatalf("checkpoint probe saw only %d steps: %v", len(steps), steps)
	}
	return steps
}

// buildCrashDBOpts creates the standard crash-test database: a
// checkpointed prefix (so the sweep exercises a second, incremental
// checkpoint over a previous one — the double-apply window) plus a logged
// tail of inserts, a delete and an update.
func buildCrashDBOpts(opts DurableOptions) func(t *testing.T, dir string) *DB {
	return func(t *testing.T, dir string) *DB {
		t.Helper()
		d, err := OpenDurableOptions(dir, hermit.LogicalPointers, opts)
		if err != nil {
			t.Fatal(err)
		}
		populateDurable(t, d, 600, 11)
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 600; i < 700; i++ {
			c := float64(i % 1000)
			if _, err := d.Insert("syn", []float64{float64(i), 2*c + 100, c, 0}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.Delete("syn", 42); err != nil {
			t.Fatal(err)
		}
		if err := d.UpdateColumn("syn", 43, 2, 1234.5); err != nil {
			t.Fatal(err)
		}
		return d
	}
}

// verifyCrashDB checks the exact acknowledged state of buildCrashDBOpts.
func verifyCrashDB(t *testing.T, d *DB, ctx string) {
	t.Helper()
	tb, err := d.Table("syn")
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if tb.Len() != 699 { // 700 inserts - 1 delete; a double apply or a lost write breaks this
		t.Fatalf("%s: recovered %d rows, want 699", ctx, tb.Len())
	}
	if n, err := d.RecoverySkipped(); n != 0 {
		t.Fatalf("%s: %d records skipped during recovery (last: %v)", ctx, n, err)
	}
	if tb.IndexOn(2) != KindHermit {
		t.Fatalf("%s: hermit index not rebuilt", ctx)
	}
	if rids, _, err := rowsOf(tb, Query{Col: 0, Lo: 42, Hi: 42}); err != nil || len(rids) != 0 {
		t.Fatalf("%s: deleted row resurrected: %v %v", ctx, rids, err)
	}
	if rids, _, err := rowsOf(tb, Query{Col: 2, Lo: 1234.5, Hi: 1234.5}); err != nil || len(rids) != 1 {
		t.Fatalf("%s: updated row wrong: %v %v", ctx, rids, err)
	}
}

// TestCheckpointCrashAtEveryStep kills a checkpoint at each step boundary
// of its protocol — in both incremental (shared WAL segment) and rotating
// modes — and verifies full recovery, including that the database keeps
// working (mutations + a clean checkpoint) after the recovery.
func TestCheckpointCrashAtEveryStep(t *testing.T) {
	for _, mode := range []struct {
		name   string
		rotate bool
	}{{"incremental", false}, {"rotating", true}} {
		t.Run(mode.name, func(t *testing.T) {
			opts := crashOpts(mode.rotate)
			build := buildCrashDBOpts(opts)
			steps := checkpointSteps(t, build)
			t.Logf("checkpoint protocol steps (%s): %v", mode.name, steps)
			if mode.rotate {
				if !containsStep(steps, "after-new-wal") || containsStep(steps, "after-swap") {
					t.Fatalf("rotating checkpoint took the wrong path: %v", steps)
				}
			} else if containsStep(steps, "after-new-wal") || !containsStep(steps, "after-swap") {
				t.Fatalf("incremental checkpoint took the wrong path: %v", steps)
			}
			for _, step := range steps {
				t.Run(step, func(t *testing.T) {
					dir := t.TempDir()
					d := build(t, dir)
					d.dur.failpoint = func(s string) error {
						if s == step {
							return fmt.Errorf("%w at %s", errInjectedCrash, s)
						}
						return nil
					}
					if err := d.Checkpoint(); !errors.Is(err, errInjectedCrash) {
						// "after-gc" is past the checkpoint's effects, but the
						// error must still be surfaced.
						t.Fatalf("failpoint not hit: %v", err)
					}
					// The crashed process's in-memory state dies with it; Close
					// only releases file handles and mappings (it appends nothing).
					if err := d.Close(); err != nil {
						t.Fatal(err)
					}
					if n := mappingsUnder(t, dir); n > 0 {
						t.Fatalf("%d mappings of the database's files left after Close", n)
					}

					d2, err := OpenDurableOptions(dir, hermit.LogicalPointers, opts)
					if err != nil {
						t.Fatalf("recovery after crash at %q: %v", step, err)
					}
					verifyCrashDB(t, d2, "after recovery")

					// The recovered database must be fully operational: more
					// mutations, a clean checkpoint, and a second recovery.
					for i := 700; i < 750; i++ {
						c := float64(i % 1000)
						if _, err := d2.Insert("syn", []float64{float64(i), 2*c + 100, c, 0}); err != nil {
							t.Fatal(err)
						}
					}
					if err := d2.Checkpoint(); err != nil {
						t.Fatalf("checkpoint after recovery: %v", err)
					}
					if err := d2.Close(); err != nil {
						t.Fatal(err)
					}
					d3, err := OpenDurableOptions(dir, hermit.LogicalPointers, opts)
					if err != nil {
						t.Fatal(err)
					}
					defer d3.Close()
					tb, _ := d3.Table("syn")
					if tb.Len() != 749 {
						t.Fatalf("post-recovery state lost: %d rows, want 749", tb.Len())
					}
				})
			}
		})
	}
}

// mappingsUnder counts the process's memory mappings of files in dir (the
// WAL's mapped windows), or -1 where /proc/self/maps cannot be read.
func mappingsUnder(t *testing.T, dir string) int {
	t.Helper()
	raw, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Logf("mappings not counted: %v", err)
		return -1
	}
	return strings.Count(string(raw), " "+dir+string(filepath.Separator))
}

func containsStep(steps []string, want string) bool {
	for _, s := range steps {
		if s == want {
			return true
		}
	}
	return false
}

// TestCheckpointCrashDoubleApplyWindow pins the historical bug: a crash
// after the manifest publish but before the rotated-out WAL segment is
// discarded must not replay the old segment on top of the new blocks.
func TestCheckpointCrashDoubleApplyWindow(t *testing.T) {
	dir := t.TempDir()
	d := buildCrashDBOpts(crashOpts(true))(t, dir)
	d.dur.failpoint = func(s string) error {
		if s == "after-manifest-rename" {
			return errInjectedCrash
		}
		return nil
	}
	if err := d.Checkpoint(); !errors.Is(err, errInjectedCrash) {
		t.Fatalf("failpoint not hit: %v", err)
	}
	// The rotated-out segment is an orphan, still open with its window mapped.
	if n := mappingsUnder(t, dir); n == 0 {
		t.Fatal("no WAL window mapped before Close")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if n := mappingsUnder(t, dir); n > 0 {
		t.Fatalf("%d mappings of the database's files left after Close", n)
	}
	// Both WAL segments exist on disk at this point — the crash window.
	p := durablePaths{dir}
	if _, err := os.Stat(p.wal(1)); err != nil {
		t.Fatalf("old segment missing, window not reproduced: %v", err)
	}
	d2, err := OpenDurable(dir, hermit.LogicalPointers)
	if err != nil {
		t.Fatalf("recovery double-applied the WAL: %v", err)
	}
	defer d2.Close()
	verifyCrashDB(t, d2, "double-apply window")
	// Recovery must have garbage-collected the superseded segment.
	if _, err := os.Stat(p.wal(1)); !os.IsNotExist(err) {
		t.Fatalf("stale WAL segment not collected: %v", err)
	}
}

// buildCompactDB creates a database with a compaction-ready block stack:
// four incremental checkpoints leave four level-0 blocks on one table
// (with overlapping keys and a tombstone), so a fan-in-2 compactor has
// work at every level.
func buildCompactDB(t *testing.T, dir string) *DB {
	t.Helper()
	opts := crashOpts(false)
	opts.CompactFanIn = 2
	d, err := OpenDurableOptions(dir, hermit.LogicalPointers, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	for ck := 0; ck < 4; ck++ {
		for i := 0; i < 30; i++ {
			pk := float64(ck*20 + i) // overlapping ranges across checkpoints
			if _, err := d.Insert("t", []float64{pk, float64(ck)}); err != nil && ck == 0 {
				t.Fatal(err)
			} else if err != nil {
				// Overlap rows already exist: update them instead so every
				// delta block carries the key again.
				if uerr := d.UpdateColumn("t", pk, 1, float64(ck)); uerr != nil {
					t.Fatal(uerr)
				}
			}
		}
		if ck == 2 {
			if _, err := d.Delete("t", 5); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// verifyCompactDB checks buildCompactDB's logical state: pks 0..89 with
// pk 5 deleted, latest value per key.
func verifyCompactDB(t *testing.T, d *DB, ctx string) {
	t.Helper()
	tb, err := d.Table("t")
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if tb.Len() != 89 {
		t.Fatalf("%s: %d rows, want 89", ctx, tb.Len())
	}
	if rids, _, err := rowsOf(tb, Query{Col: 0, Lo: 5, Hi: 5}); err != nil || len(rids) != 0 {
		t.Fatalf("%s: tombstoned row resurrected: %v %v", ctx, rids, err)
	}
	// pk 60 was written only by the last checkpoint (ck=3): value 3.
	rids, _, err := rowsOf(tb, Query{Col: 0, Lo: 60, Hi: 60})
	if err != nil || len(rids) != 1 {
		t.Fatalf("%s: pk 60: %v %v", ctx, rids, err)
	}
	if v := rids[0][1]; v != 3 {
		t.Fatalf("%s: pk 60 v=%v, want 3", ctx, v)
	}
}

// compactionSteps probes the failpoint labels one compaction round emits.
func compactionSteps(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	d := buildCompactDB(t, dir)
	var steps []string
	d.dur.failpoint = func(step string) error {
		steps = append(steps, step)
		return nil
	}
	merged, err := d.Compact()
	if err != nil || !merged {
		t.Fatalf("compaction probe: merged=%v err=%v", merged, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if len(steps) < 4 {
		t.Fatalf("compaction probe saw only %d steps: %v", len(steps), steps)
	}
	return steps
}

// TestCompactionCrashAtEveryStep kills a compaction round at each step
// boundary and verifies that recovery sees the same logical state — a
// merge either fully publishes or fully vanishes, never a double apply.
func TestCompactionCrashAtEveryStep(t *testing.T) {
	steps := compactionSteps(t)
	t.Logf("compaction protocol steps: %v", steps)
	for _, step := range steps {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			d := buildCompactDB(t, dir)
			d.dur.failpoint = func(s string) error {
				if s == step {
					return fmt.Errorf("%w at %s", errInjectedCrash, s)
				}
				return nil
			}
			if _, err := d.Compact(); !errors.Is(err, errInjectedCrash) {
				t.Fatalf("failpoint not hit: %v", err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d2, err := OpenDurable(dir, hermit.LogicalPointers)
			if err != nil {
				t.Fatalf("recovery after compaction crash at %q: %v", step, err)
			}
			verifyCompactDB(t, d2, "after recovery")
			// And the stack must still compact to completion afterwards.
			for {
				merged, err := d2.Compact()
				if err != nil {
					t.Fatal(err)
				}
				if !merged {
					break
				}
			}
			if err := d2.Close(); err != nil {
				t.Fatal(err)
			}
			d3, err := OpenDurable(dir, hermit.LogicalPointers)
			if err != nil {
				t.Fatal(err)
			}
			defer d3.Close()
			verifyCompactDB(t, d3, "after full compaction")
		})
	}
}

// TestCheckpointBoundedStall is the regression for the latch-across-flush
// bug: an incremental checkpoint must release the durable latch before
// writing blocks, so concurrent mutations see only the short swap window,
// not a stall proportional to the delta size.
func TestCheckpointBoundedStall(t *testing.T) {
	dir := t.TempDir()
	d := buildCrashDBOpts(crashOpts(false))(t, dir)
	defer d.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	d.dur.failpoint = func(s string) error {
		if s == "after-swap" {
			close(entered)
			<-release
		}
		return nil
	}
	ckptDone := make(chan error, 1)
	go func() { ckptDone <- d.Checkpoint() }()
	<-entered
	// The checkpoint is parked inside its write phase. A mutation must
	// complete anyway — it may not block until the checkpoint finishes.
	insDone := make(chan error, 1)
	go func() {
		_, err := d.Insert("syn", []float64{9000, 1, 2, 3})
		insDone <- err
	}()
	select {
	case err := <-insDone:
		if err != nil {
			t.Fatalf("insert during checkpoint write phase: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("mutation stalled for the whole checkpoint write phase (latch held across flush)")
	}
	close(release)
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}
	// The concurrent insert committed after the cut: it must survive via
	// the WAL tail both before and after the next checkpoint.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, hermit.LogicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tb, _ := d2.Table("syn")
	if rids, _, err := rowsOf(tb, Query{Col: 0, Lo: 9000, Hi: 9000}); err != nil || len(rids) != 1 {
		t.Fatalf("insert overlapping checkpoint lost: %v %v", rids, err)
	}
}

// TestDurableDuplicatePKDoesNotPoisonWAL is the regression for the WAL
// poisoning bug: a rejected mutation (duplicate primary key) must not leave
// a record that aborts every subsequent recovery.
func TestDurableDuplicatePKDoesNotPoisonWAL(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.LogicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert("t", []float64{1, 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert("t", []float64{1, 11}); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	// The same classes of rejection for the other mutations.
	if err := d.UpdateColumn("t", 1, 0, 2); err == nil {
		t.Fatal("primary-key update accepted")
	}
	if _, err := d.Insert("t", []float64{2}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := d.Insert("t", []float64{3, 30}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, hermit.LogicalPointers)
	if err != nil {
		t.Fatalf("reopen after rejected mutations: %v", err)
	}
	defer d2.Close()
	if n, serr := d2.RecoverySkipped(); n != 0 {
		t.Fatalf("%d poisoned records hit replay (last: %v)", n, serr)
	}
	tb, _ := d2.Table("t")
	if tb.Len() != 2 {
		t.Fatalf("recovered %d rows, want 2", tb.Len())
	}
	rids, _, err := rowsOf(tb, Query{Col: 1, Lo: 10, Hi: 10})
	if err != nil || len(rids) != 1 {
		t.Fatalf("first insert's value lost: %v %v", rids, err)
	}
}

// TestDurableTornTailThenMoreWrites is the regression for the torn-tail
// append bug: writes accepted after recovering from a torn tail must be
// replayable (the tail must be truncated before reopening for append).
func TestDurableTornTailThenMoreWrites(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := d.Insert("t", []float64{float64(i), float64(i) * 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: tear the final frame.
	walPath := durablePaths{dir}.wal(0)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := d2.Table("t")
	if tb.Len() != 49 { // the torn insert is lost (it was never acknowledged as synced)
		t.Fatalf("recovered %d rows, want 49", tb.Len())
	}
	// Writes after the torn-tail recovery — the bug made these unreachable.
	for i := 100; i < 120; i++ {
		if _, err := d2.Insert("t", []float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	d3, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	tb3, _ := d3.Table("t")
	if tb3.Len() != 69 {
		t.Fatalf("recovered %d rows, want 69 (post-tear writes shadowed behind the torn tail)", tb3.Len())
	}
	for _, pk := range []float64{0, 48, 100, 119} {
		if rids, _, err := rowsOf(tb3, Query{Col: 0, Lo: pk, Hi: pk}); err != nil || len(rids) != 1 {
			t.Fatalf("pk %v lost: %v %v", pk, rids, err)
		}
	}
}

// TestDurableSyncPoliciesRecover exercises each sync policy end to end:
// acknowledged writes must recover regardless of policy.
func TestDurableSyncPoliciesRecover(t *testing.T) {
	for _, opts := range []DurableOptions{
		{Policy: SyncNever},
		{Policy: SyncGroup, GroupInterval: 200 * time.Microsecond},
		{Policy: SyncAlways},
	} {
		t.Run(opts.Policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDurableOptions(dir, hermit.LogicalPointers, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				if _, err := d.Insert("t", []float64{float64(i), 1}); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d2, err := OpenDurableOptions(dir, hermit.LogicalPointers, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			tb, _ := d2.Table("t")
			if tb.Len() != 40 {
				t.Fatalf("recovered %d rows, want 40", tb.Len())
			}
		})
	}
}

// TestDurableCheckpointRotatesEpochs verifies the on-disk layout across
// repeated rotating checkpoints: exactly one segment survives, no blocklist
// file is written, and only referenced block files remain.
func TestDurableCheckpointRotatesEpochs(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurableOptions(dir, hermit.LogicalPointers, crashOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	for ck := 0; ck < 3; ck++ {
		for i := 0; i < 20; i++ {
			pk := float64(ck*100 + i)
			if _, err := d.Insert("t", []float64{pk, pk}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	st := d.StorageStats()
	if st.Epoch != 3 || st.WALSegment != 3 || st.Blocks != 3 {
		t.Fatalf("unexpected storage state: %+v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	p := durablePaths{dir}
	if _, err := os.Stat(p.wal(3)); err != nil {
		t.Fatalf("segment-3 WAL missing: %v", err)
	}
	// The manifest names the block stacks: no blocklist file is written.
	if lists, err := filepath.Glob(filepath.Join(dir, "blocklist.*")); err != nil || len(lists) != 0 {
		t.Fatalf("blocklist files %v (%v), want none", lists, err)
	}
	for _, stale := range []string{p.wal(0), p.wal(1), p.wal(2)} {
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Fatalf("stale artifact %s survived rotation", stale)
		}
	}
	// Exactly the three delta blocks the checkpoints flushed remain.
	blks, err := filepath.Glob(filepath.Join(dir, "*.blk"))
	if err != nil || len(blks) != 3 {
		t.Fatalf("want 3 block files, got %v (%v)", blks, err)
	}
	d2, err := OpenDurable(dir, hermit.LogicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tb, _ := d2.Table("t")
	if tb.Len() != 60 {
		t.Fatalf("recovered %d rows, want 60", tb.Len())
	}
}

// TestDurableOldManifestRejected: a manifest of an earlier layout — version
// 4 (one rows file per table) or version 5 (a separate blocklist file) — must
// be rejected loudly, naming its version, not silently reopened as an empty
// database.
func TestDurableOldManifestRejected(t *testing.T) {
	for version, old := range map[int]string{
		4: `{"version": 4, "scheme": 0, "epoch": 2, "wal_start": 0, "tables": {}}`,
		5: `{"version": 5, "scheme": 0, "epoch": 2, "wal_seg": 0, "wal_start": 0, "tables": {}}`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenDurable(dir, hermit.LogicalPointers)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d,", version)) {
			t.Fatalf("version-%d manifest: open returned %v, want an error naming its version", version, err)
		}
	}
}

// TestManifestByteFlipSweep: manifest.json is one checksummed image, so
// flipping the low bit of any one of its bytes is refused at open — a column name, an index
// definition, a replay offset or a block entry altered on disk must not
// reopen as another database. The manifest here names a hash-partitioned
// table, a Hermit index and the stack of blocks holding a NaN and a −0 key.
func TestManifestByteFlipSweep(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurableOptions(dir, hermit.LogicalPointers, crashOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []string{"k", "a", "b"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.CreatePartitionedTable("p", []string{"k", "v"}, 0, 2); err != nil {
		t.Fatal(err)
	}
	for _, def := range []IndexDef{{Kind: "btree", Col: 1}, {Kind: "hermit", Col: 2, Host: 1}} {
		if err := d.CreateIndex("t", def); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []float64{math.NaN(), math.Copysign(0, -1), 1, 2, 3} {
		if _, err := d.Insert("t", []float64{k, k, 2 * k}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Insert("p", []float64{k, k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := durablePaths{dir}.manifest()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := make([]byte, len(raw))
	for i := range raw {
		copy(flipped, raw)
		flipped[i] ^= 1
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(dir, hermit.LogicalPointers)
		if err == nil {
			d.Close()
			t.Fatalf("byte %d (%q → %q) flipped: the manifest still opened", i, raw[i], flipped[i])
		}
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDurable(dir, hermit.LogicalPointers)
	if err != nil {
		t.Fatalf("the unflipped manifest: %v", err)
	}
	defer d.Close()
	rows := 0
	for _, name := range []string{"t", PartitionName("p", 0), PartitionName("p", 1)} {
		tb, err := d.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		rows += tb.Len()
	}
	if rows != 10 {
		t.Fatalf("recovered %d rows, want 10", rows)
	}
}

// The reclaimed-delete sweep. A delete with no snapshot open reclaims its
// chain before Delete returns, so the only thing that carries the death to
// the next delta block is the table's delete list. deleteDB builds the cases —
// keys flushed by a first checkpoint, then deleted, deleted and re-inserted,
// deleted twice around a re-insert — and straddle adds, from inside the
// second checkpoint's write phase (commits after its cut, which that delta
// must leave to the next one), the second halves of the histories that
// straddle the cut. oracle is the acknowledged state: key -> v.
type deleteDB struct {
	d      *DB
	oracle map[float64]float64
	pinned bool // a flush snapshot is open: what a delete ends has to stay
}

func (x *deleteDB) put(t *testing.T, pk, v float64) {
	t.Helper()
	if _, err := x.d.Insert("t", []float64{pk, v}); err != nil {
		t.Fatal(err)
	}
	x.oracle[pk] = v
}

func (x *deleteDB) del(t *testing.T, pk float64) {
	t.Helper()
	if found, err := x.d.Delete("t", pk); err != nil || !found {
		t.Fatalf("delete %v: found=%v err=%v", pk, found, err)
	}
	delete(x.oracle, pk)
	tb, _ := x.d.Table("t")
	if _, ok := tb.Primary().Get(pk); ok != x.pinned {
		t.Fatalf("delete %v: chain still there: %v, flush snapshot open: %v", pk, ok, x.pinned)
	}
}

func buildDeleteDB(t *testing.T, dir string, opts DurableOptions) *deleteDB {
	t.Helper()
	opts.CompactFanIn = 2
	d, err := OpenDurableOptions(dir, hermit.LogicalPointers, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	x := &deleteDB{d: d, oracle: make(map[float64]float64)}
	for pk := 0.0; pk < 10; pk++ {
		x.put(t, pk, 0)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	x.del(t, 1) // flushed, then deleted
	x.del(t, 2) // deleted, re-inserted, deleted again: all before the cut
	x.put(t, 2, 1)
	x.del(t, 2)
	x.del(t, 3) // deleted and re-inserted before the cut, deleted after it
	x.put(t, 3, 1)
	x.del(t, 4)     // deleted before the cut, re-inserted after it
	x.del(t, 5)     // deleted before the cut, re-inserted and deleted again after it
	x.put(t, 20, 1) // born and dead inside the window: a tombstone over nothing
	x.del(t, 20)
	x.put(t, 21, 1) // born inside the window, updated after the cut
	return x
}

// straddle is the part of the histories that commits after the cut.
func (x *deleteDB) straddle(t *testing.T) {
	t.Helper()
	x.del(t, 3)
	x.put(t, 4, 2)
	x.put(t, 5, 2)
	x.del(t, 5)
	if err := x.d.UpdateColumn("t", 21, 1, 2); err != nil {
		t.Fatal(err)
	}
	x.oracle[21] = 2
	x.del(t, 6) // flushed long ago, deleted after the cut
}

// verifyDeleteDB compares a recovered database with the oracle, through the
// table and — for the keys the oracle has lost — through the blocks alone.
func verifyDeleteDB(t *testing.T, d *DB, oracle map[float64]float64, ctx string) {
	t.Helper()
	if n, err := d.RecoverySkipped(); n != 0 {
		t.Fatalf("%s: %d records skipped during recovery (last: %v)", ctx, n, err)
	}
	tb, err := d.Table("t")
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	got := make(map[float64]float64)
	tb.ScanLive(func(_ storage.RID, row []float64) bool { got[row[0]] = row[1]; return true })
	if !maps.Equal(got, oracle) {
		t.Fatalf("%s: recovered %v, acknowledged %v", ctx, got, oracle)
	}
}

// TestReclaimedDeleteNeverResurrects: delete → (reclaimed at once) →
// checkpoint → close → reopen, with the checkpoint killed at each of its step
// boundaries in both modes, and once left alone; then the same state taken
// through a compaction killed at each of its. The recovered database must
// equal the acknowledged one every time, and go on to checkpoint, compact
// to completion and recover again.
func TestReclaimedDeleteNeverResurrects(t *testing.T) {
	reopen := func(t *testing.T, dir string, opts DurableOptions, oracle map[float64]float64, ctx string) *DB {
		t.Helper()
		opts.CompactFanIn = 2
		d, err := OpenDurableOptions(dir, hermit.LogicalPointers, opts)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		verifyDeleteDB(t, d, oracle, ctx)
		return d
	}
	settle := func(t *testing.T, dir string, opts DurableOptions, oracle map[float64]float64) {
		t.Helper()
		d := reopen(t, dir, opts, oracle, "after recovery")
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for merged := true; merged; {
			var err error
			if merged, err = d.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		reopen(t, dir, opts, oracle, "after checkpoint, full compaction and a second recovery").Close()
	}
	for _, mode := range []struct {
		name   string
		rotate bool
	}{{"incremental", false}, {"rotating", true}} {
		opts := crashOpts(mode.rotate)
		steps := checkpointSteps(t, func(t *testing.T, dir string) *DB { return buildDeleteDB(t, dir, opts).d })
		for _, step := range append(steps, "no-crash") {
			t.Run(mode.name+"/"+step, func(t *testing.T) {
				dir := t.TempDir()
				x := buildDeleteDB(t, dir, opts)
				x.d.dur.failpoint = func(s string) error {
					if s == "after-swap" {
						// The latch is free: commits past the cut, beside the write phase.
						x.pinned = true
						x.straddle(t)
					}
					if s == step {
						return fmt.Errorf("%w at %s", errInjectedCrash, s)
					}
					return nil
				}
				if err := x.d.Checkpoint(); (step != "no-crash") != errors.Is(err, errInjectedCrash) {
					t.Fatalf("checkpoint: %v", err)
				}
				if err := x.d.Close(); err != nil {
					t.Fatal(err)
				}
				settle(t, dir, opts, x.oracle)
			})
		}
	}
	// Two level-0 blocks, the second one's tombstones all from the delete
	// list: the merge of the two, killed at each step.
	opts := crashOpts(false)
	var steps []string
	{
		x := buildDeleteDB(t, t.TempDir(), opts)
		x.d.dur.failpoint = func(s string) error {
			if strings.HasPrefix(s, "compact-") {
				steps = append(steps, s)
			}
			return nil
		}
		if err := x.d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if merged, err := x.d.Compact(); err != nil || !merged {
			t.Fatalf("compaction probe: merged=%v err=%v", merged, err)
		}
		x.d.Close()
	}
	for _, step := range steps {
		t.Run("compaction/"+step, func(t *testing.T) {
			dir := t.TempDir()
			x := buildDeleteDB(t, dir, opts)
			if err := x.d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			x.straddle(t)
			x.d.dur.failpoint = func(s string) error {
				if s == step {
					return fmt.Errorf("%w at %s", errInjectedCrash, s)
				}
				return nil
			}
			if _, err := x.d.Compact(); !errors.Is(err, errInjectedCrash) {
				t.Fatalf("failpoint not hit: %v", err)
			}
			if err := x.d.Close(); err != nil {
				t.Fatal(err)
			}
			settle(t, dir, opts, x.oracle)
		})
	}
}
