package engine

import (
	"path/filepath"
	"sort"
	"testing"
	"time"

	"hermit/internal/hermit"
	"hermit/internal/storage"
	"hermit/internal/wal"
)

// replRecords drains every retained WAL segment of d in LSN order.
func replRecords(t *testing.T, d *DurableDB) []wal.Record {
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

// replGroups slices a record stream the way a follower does: each DDL
// record and each auto-committed mutation is its own group; a committed
// transaction's mutations (minus begin/commit framing) form one group.
// Open transactions are dropped.
func replGroups(recs []wal.Record) [][]wal.Record {
	var groups [][]wal.Record
	open := map[uint64][]wal.Record{}
	for _, rec := range recs {
		switch rec.Op {
		case wal.OpTxnBegin:
			open[rec.Txn] = nil
		case wal.OpTxnCommit:
			groups = append(groups, open[rec.Txn])
			delete(open, rec.Txn)
		default:
			if rec.Txn != 0 {
				open[rec.Txn] = append(open[rec.Txn], rec)
			} else {
				groups = append(groups, []wal.Record{rec})
			}
		}
	}
	return groups
}

// liveRows dumps a logical table's live rows — of every partition, for a
// partitioned one — in primary-key order.
func liveRows(t *testing.T, d *DurableDB, name string) [][]float64 {
	t.Helper()
	l := d.db.lookup(name)
	if l == nil {
		t.Fatalf("no table %q", name)
	}
	var rows [][]float64
	for _, tb := range l.phys {
		tb.ScanLive(func(_ storage.RID, row []float64) bool {
			rows = append(rows, append([]float64(nil), row...))
			return true
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
	return rows
}

// TestReplWALSurface covers the observability half of the replication
// surface: LSN/size/position accessors, segment listings, WAL growth
// wakeups, and the txn-sequence floor mirrored frames raise, which a
// promotion relies on.
func TestReplWALSurface(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", d.Dir(), dir)
	}
	if d.LastLSN() != 0 {
		t.Fatalf("fresh database at LSN %d", d.LastLSN())
	}

	wake := make(chan struct{}, 1)
	d.WatchWAL(wake)

	if _, err := d.CreateTable("t", []string{"id", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert("t", []float64{1, 10}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		t.Fatal("no WAL growth wakeup")
	}
	if d.LastLSN() == 0 {
		t.Fatal("LSN did not advance")
	}
	if d.WALSize() <= wal.HeaderLen {
		t.Fatalf("WALSize %d, want > header", d.WALSize())
	}
	seg, base, last := d.WALPosition()
	if base > last || last != d.LastLSN() {
		t.Fatalf("WALPosition (%d, %d, %d) inconsistent with LastLSN %d", seg, base, last, d.LastLSN())
	}

	// A checkpoint rotates; the listing ends at the new current segment.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs := d.ReplWALSegments()
	if len(segs) == 0 {
		t.Fatal("no WAL segments listed")
	}
	for i, s := range segs {
		if i > 0 && s.Seg <= segs[i-1].Seg {
			t.Fatalf("segments out of order: %+v", segs)
		}
		if s.Current != (i == len(segs)-1) {
			t.Fatalf("Current mis-marked at %d: %+v", i, segs)
		}
		if filepath.Dir(s.Path) != dir {
			t.Fatalf("segment path %q outside the database dir", s.Path)
		}
	}

	// The watcher survives rotation: post-checkpoint appends still wake.
	for len(wake) > 0 {
		<-wake
	}
	if _, err := d.Insert("t", []float64{2, 20}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		t.Fatal("no wakeup after segment rotation")
	}

	// Mirrored transaction ids raise the sequence, never rewind it, and the
	// next local transaction logs an id above them.
	for _, id := range []uint64{1000, 5} {
		lsn := d.LastLSN()
		if _, _, err := d.ReplApply([]wal.Record{
			{LSN: lsn + 1, Op: wal.OpTxnBegin, Txn: id}, {LSN: lsn + 2, Op: wal.OpTxnCommit, Txn: id},
		}); err != nil {
			t.Fatal(err)
		}
		if got := d.txnSeq.Load(); got != 1000 {
			t.Fatalf("txnSeq %d after mirroring txn %d, want 1000", got, id)
		}
	}
	tx := d.Begin()
	if err := tx.Insert("t", []float64{3, 30}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if recs := replRecords(t, d); recs[len(recs)-1].Txn != 1001 {
		t.Fatalf("next local txn logged id %d, want 1001", recs[len(recs)-1].Txn)
	}
}

// TestReplApply mirrors a leader's WAL into a second database in batches
// that cut its transaction apart, checking the replica converges to the
// leader's state with the leader's LSNs, and that records that do not fit
// that state are rejected without changing it.
func TestReplApply(t *testing.T) {
	ld, err := OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	if _, err := ld.CreateTable("t", []string{"id", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := ld.Insert("t", []float64{float64(i), float64(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ld.Delete("t", 3); err != nil {
		t.Fatal(err)
	}
	if err := ld.UpdateColumn("t", 4, 1, 99); err != nil {
		t.Fatal(err)
	}
	tx := ld.Begin()
	if err := tx.Insert("t", []float64{100, 1}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("t", 5, 1, 55); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Delete("t", 6); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	recs := replRecords(t, ld)
	f, err := OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// The second batch ends inside the transaction, after its begin and
	// first mutation: applied stops at the last auto-commit, one group open.
	cut := len(recs) - 3
	if applied, open, err := f.ReplApply(recs[:5]); err != nil || applied != recs[4].LSN || open != 0 {
		t.Fatalf("first batch: applied %d, open %d, %v; want %d, 0", applied, open, err, recs[4].LSN)
	}
	if applied, open, err := f.ReplApply(recs[5:cut]); err != nil || applied != recs[cut-3].LSN || open != 1 {
		t.Fatalf("second batch: applied %d, open %d, %v; want %d, 1", applied, open, err, recs[cut-3].LSN)
	}
	if applied, open, err := f.ReplApply(nil); err != nil || applied != 0 || open != 1 {
		t.Fatalf("empty batch: applied %d, open %d, %v", applied, open, err)
	}
	if applied, open, err := f.ReplApply(recs[cut:]); err != nil || applied != ld.LastLSN() || open != 0 {
		t.Fatalf("last batch: applied %d, open %d, %v; want %d, 0", applied, open, err, ld.LastLSN())
	}
	if f.LastLSN() != ld.LastLSN() {
		t.Fatalf("replica at LSN %d, leader at %d", f.LastLSN(), ld.LastLSN())
	}
	want, got := liveRows(t, ld, "t"), liveRows(t, f, "t")
	if len(want) != len(got) {
		t.Fatalf("replica has %d rows, leader %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if want[i][c] != got[i][c] {
				t.Fatalf("row %d differs: %v vs %v", i, got[i], want[i])
			}
		}
	}

	// Records that do not fit the state are rejected without changing it.
	_, absent := encodeOp(nil, &Op{Kind: OpDelete, PK: 424242})
	for _, bad := range []wal.Record{
		{Op: wal.OpDelete, Table: "t", Payload: absent},
		{Op: wal.OpUpdate, Table: "t", Payload: appendFloats(nil, 1)},
		{Op: wal.OpTxnCommit, Txn: 77},
	} {
		bad.LSN = f.LastLSN() + 1
		if applied, _, err := f.ReplApply([]wal.Record{bad}); err == nil || applied != 0 {
			t.Fatalf("op %d accepted: applied %d, %v", bad.Op, applied, err)
		}
	}
	if n := len(liveRows(t, f, "t")); n != len(want) {
		t.Fatalf("rejected records changed state: %d rows", n)
	}
}

// TestOpenGroupSurvivesReopen: mirrored frames of a transaction whose
// commit never arrived stay open across a restart, unapplied, and apply
// exactly once when the commit arrives.
func TestOpenGroupSurvivesReopen(t *testing.T) {
	ld, err := OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	if _, err := ld.CreateTable("t", []string{"id"}, 0); err != nil {
		t.Fatal(err)
	}
	tx := ld.Begin()
	if err := tx.Insert("t", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("t", []float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	recs := replRecords(t, ld)
	commit := recs[len(recs)-1]
	if commit.Op != wal.OpTxnCommit {
		t.Fatalf("last leader record is op %d", commit.Op)
	}

	fdir := t.TempDir()
	f, err := OpenDurable(fdir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if _, open, err := f.ReplApply(recs[:len(recs)-1]); err != nil || open != 1 {
		t.Fatalf("%d groups open (%v), want 1", open, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func(wantUncommitted int) *DurableDB {
		t.Helper()
		f, err := OpenDurable(fdir, hermit.PhysicalPointers)
		if err != nil {
			t.Fatal(err)
		}
		if n := f.RecoveryUncommitted(); n != wantUncommitted {
			t.Fatalf("%d groups uncommitted after reopen, want %d", n, wantUncommitted)
		}
		if n, err := f.RecoverySkipped(); n != 0 {
			t.Fatalf("reopen skipped %d records: %v", n, err)
		}
		return f
	}
	f2 := reopen(1)
	if rows := liveRows(t, f2, "t"); len(rows) != 0 {
		t.Fatalf("open group applied across reopen: %d rows", len(rows))
	}
	if applied, open, err := f2.ReplApply([]wal.Record{commit}); err != nil || applied != commit.LSN || open != 0 {
		t.Fatalf("commit: applied %d, open %d, %v; want %d, 0", applied, open, err, commit.LSN)
	}
	if rows := liveRows(t, f2, "t"); len(rows) != 2 {
		t.Fatalf("%d rows after the commit, want 2", len(rows))
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	f3 := reopen(0)
	defer f3.Close()
	if rows := liveRows(t, f3, "t"); len(rows) != 2 {
		t.Fatalf("%d rows after the second reopen, want 2", len(rows))
	}
}

// TestReplSnapshotRestore round-trips a bootstrap image: plain and
// partitioned tables with index definitions, restored into an empty
// database whose WAL re-bases at the cut, surviving a further reopen.
func TestReplSnapshotRestore(t *testing.T) {
	ld, err := OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	if _, err := ld.CreateTable("plain", []string{"id", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := ld.CreateIndex("plain", IndexDef{Kind: "btree", Col: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ld.CreatePartitionedTable("parts", []string{"id", "v"}, 0, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := ld.Insert("plain", []float64{float64(i), float64(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := ld.Insert("parts", []float64{float64(i), float64(-i)}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := ld.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.LSN != ld.LastLSN() {
		t.Fatalf("snapshot cut %d, leader at %d", snap.LSN, ld.LastLSN())
	}
	if len(snap.Tables) != 2 {
		t.Fatalf("snapshot has %d tables, want 2", len(snap.Tables))
	}

	fdir := t.TempDir()
	f, err := OpenDurable(fdir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ReplRestore(snap); err != nil {
		t.Fatal(err)
	}
	if f.LastLSN() != snap.LSN {
		t.Fatalf("restored database at LSN %d, want the cut %d", f.LastLSN(), snap.LSN)
	}
	if got := liveRows(t, f, "plain"); len(got) != 50 {
		t.Fatalf("plain restored with %d rows", len(got))
	}
	if total := len(liveRows(t, f, "parts")); total != 50 {
		t.Fatalf("partitions restored with %d rows total", total)
	}
	// Restoring into a non-empty database is a caller bug.
	if err := f.ReplRestore(snap); err == nil {
		t.Fatal("ReplRestore accepted a non-empty database")
	}
	// Mirrored frames continue numbering from the cut.
	if _, _, err := f.ReplApply([]wal.Record{{
		LSN: snap.LSN + 1, Op: wal.OpInsert, Table: "plain",
		Payload: appendFloats(nil, 100, 100),
	}}); err != nil {
		t.Fatal(err)
	}
	if f.LastLSN() != snap.LSN+1 {
		t.Fatalf("post-restore append landed at %d, want %d", f.LastLSN(), snap.LSN+1)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenDurable(fdir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if got := liveRows(t, f2, "plain"); len(got) != 51 {
		t.Fatalf("reopen after restore: plain has %d rows, want 51", len(got))
	}
}

// TestWatchWALCancel: a subscriber that comes and goes leaves nothing
// behind — not on the live log, not in the set a rotation re-homes, not on
// the segment after a rotating checkpoint — while a watcher that stays keeps
// its wakeups across the rotation.
func TestWatchWALCancel(t *testing.T) {
	d, err := OpenDurableOptions(t.TempDir(), hermit.PhysicalPointers,
		DurableOptions{DisableAutoCompact: true, WALRotateBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.CreateTable("t", []string{"id", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		for i := 0; i < 200; i++ {
			d.WatchWAL(make(chan struct{}, 1))()
		}
	}
	cycle()
	if n, m := len(d.log.Watchers()), len(d.walWatchers); n != 0 || m != 0 {
		t.Fatalf("%d watchers on the live log, %d registered, after 200 subscribe/cancel cycles", n, m)
	}
	stays := make(chan struct{}, 1)
	cancel := d.WatchWAL(stays)
	seg, _, _ := d.WALPosition()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if next, _, _ := d.WALPosition(); next == seg {
		t.Fatal("checkpoint did not rotate the segment")
	}
	cycle()
	if ws := d.log.Watchers(); len(ws) != 1 || ws[0] != stays || len(d.walWatchers) != 1 {
		t.Fatalf("%d watchers on the rotated-to log, %d registered, want the 1 that stays", len(ws), len(d.walWatchers))
	}
	select { // drain the rotation's nudge
	case <-stays:
	default:
	}
	if _, err := d.Insert("t", []float64{1, 10}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stays:
	default:
		t.Fatal("the watcher that stayed lost its wakeups in the rotation")
	}
	cancel()
	if n, m := len(d.log.Watchers()), len(d.walWatchers); n != 0 || m != 0 {
		t.Fatalf("%d watchers on the log, %d registered, after the last cancel", n, m)
	}
}
