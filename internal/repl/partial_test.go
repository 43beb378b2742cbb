package repl

import (
	"testing"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/server/proto"
	"hermit/internal/wal"
)

// allWALRecords reads every record of a database's retained WAL segments
// in LSN order.
func allWALRecords(t *testing.T, d *engine.DB) []wal.Record {
	t.Helper()
	var out []wal.Record
	for _, seg := range d.ReplWALSegments() {
		tl, err := wal.OpenTailer(seg.Path, 0)
		if err != nil {
			t.Fatal(err)
		}
		for {
			rec, ok, err := tl.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			out = append(out, rec)
		}
		tl.Close()
	}
	return out
}

// offlineFollower opens a follower that never connects anywhere, for
// driving applyBatch directly.
func offlineFollower(t *testing.T, dir string) *Follower {
	t.Helper()
	f, err := OpenFollower(FollowerOptions{
		Dir: dir, ID: "offline", LeaderAddr: "127.0.0.1:1",
		Scheme: hermit.PhysicalPointers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestPartialGroupNeverApplied is the follower half of torn-stream
// safety: a transaction group whose commit frame has not arrived — the
// exact state a connection drop mid-batch leaves behind — must not touch
// the applied state or the watermark, no matter how many of its
// mutations are already mirrored. The commit's later arrival applies the
// group exactly once.
func TestPartialGroupNeverApplied(t *testing.T) {
	// Generate real WAL records on a scratch leader: DDL, two committed
	// singleton inserts, then a 3-op transaction.
	ld, err := engine.OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	if _, err := ld.CreateTable("t", []string{"id", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ld.Insert("t", []float64{1, 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := ld.Insert("t", []float64{2, 20}); err != nil {
		t.Fatal(err)
	}
	tx := ld.Begin()
	if err := tx.Insert("t", []float64{3, 30}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("t", []float64{4, 40}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("t", 1, 1, 11); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	recs := allWALRecords(t, ld)
	if len(recs) == 0 {
		t.Fatal("no WAL records generated")
	}
	commit := recs[len(recs)-1]
	if commit.Op != wal.OpTxnCommit {
		t.Fatalf("last record is op %d, want commit", commit.Op)
	}

	f := offlineFollower(t, t.TempDir())
	defer f.Close()
	toBatch := func(rs []wal.Record) []proto.WALRecord {
		out := make([]proto.WALRecord, len(rs))
		for i, r := range rs {
			out[i] = toWire(r)
		}
		return out
	}

	// Everything except the commit: the singleton history applies, the
	// open group does not.
	if err := f.applyBatch(toBatch(recs[:len(recs)-1])); err != nil {
		t.Fatal(err)
	}
	rows := tableRows(t, f.DB(), "t")
	if len(rows) != 2 {
		t.Fatalf("%d rows visible with the group's commit missing, want 2", len(rows))
	}
	if rows[0][1] != 10 {
		t.Fatalf("uncommitted update visible: pk 1 v=%v", rows[0][1])
	}
	// The watermark must trail the mirrored-but-unapplied frames.
	if applied, durable := f.AppliedLSN(), f.DurableLSN(); applied >= durable {
		t.Fatalf("applied watermark %d caught durable %d with a group open", applied, durable)
	}
	if f.AppliedLSN() >= commit.LSN {
		t.Fatalf("applied watermark %d at or past the missing commit %d", f.AppliedLSN(), commit.LSN)
	}

	// The commit arrives: the group lands atomically, watermark catches up.
	if err := f.applyBatch(toBatch([]wal.Record{commit})); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, tableRows(t, ld, "t"), tableRows(t, f.DB(), "t"), "after commit")
	if f.AppliedLSN() != commit.LSN {
		t.Fatalf("applied %d, want %d", f.AppliedLSN(), commit.LSN)
	}
}

// TestFollowerRecoversOpenGroupAcrossRestart: a follower restarted with a
// half-mirrored group (durable ahead of applied) must neither lose nor
// prematurely apply it — recovery reloads the pending group and the
// commit's arrival completes it.
func TestFollowerRecoversOpenGroupAcrossRestart(t *testing.T) {
	ld, err := engine.OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	if _, err := ld.CreateTable("t", []string{"id", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	tx := ld.Begin()
	if err := tx.Insert("t", []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("t", []float64{2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	recs := allWALRecords(t, ld)
	commit := recs[len(recs)-1]

	fdir := t.TempDir()
	f := offlineFollower(t, fdir)
	batch := make([]proto.WALRecord, len(recs)-1)
	for i, r := range recs[:len(recs)-1] {
		batch[i] = toWire(r)
	}
	if err := f.applyBatch(batch); err != nil {
		t.Fatal(err)
	}
	durable := f.DurableLSN()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the mirrored frames are on disk, the group still open.
	f2 := offlineFollower(t, fdir)
	defer f2.Close()
	if f2.DurableLSN() != durable {
		t.Fatalf("restart lost mirrored frames: durable %d, want %d", f2.DurableLSN(), durable)
	}
	if n := len(tableRows(t, f2.DB(), "t")); n != 0 {
		t.Fatalf("%d rows applied from an open group across restart", n)
	}
	if err := f2.applyBatch([]proto.WALRecord{toWire(commit)}); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, tableRows(t, ld, "t"), tableRows(t, f2.DB(), "t"), "after restart + commit")
}
