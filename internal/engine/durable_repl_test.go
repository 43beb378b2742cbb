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
	d.mu.RLock()
	meta := d.tables[name]
	d.mu.RUnlock()
	if meta == nil {
		t.Fatalf("no table %q", name)
	}
	var rows [][]float64
	for _, tb := range meta.phys {
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
// wakeups, and the txn-sequence floor bump a promotion relies on.
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

	d.BumpTxnSeq(1000)
	if got := d.txnSeq.Load(); got != 1000 {
		t.Fatalf("txnSeq %d after bump, want 1000", got)
	}
	d.BumpTxnSeq(5) // floor only, never rewinds
	if got := d.txnSeq.Load(); got != 1000 {
		t.Fatalf("txnSeq rewound to %d", got)
	}
}

// TestReplAppendApplyGroup mirrors a leader's WAL into a second database
// record-for-record and applies the committed groups, checking the
// replica converges to the leader's state with the leader's LSNs.
func TestReplAppendApplyGroup(t *testing.T) {
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
	if err := f.ReplAppend(recs); err != nil {
		t.Fatal(err)
	}
	if err := f.ReplAppend(nil); err != nil {
		t.Fatal(err)
	}
	for _, g := range replGroups(recs) {
		if err := f.ReplApplyGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.ReplApplyGroup(nil); err != nil {
		t.Fatal(err)
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

	// Malformed groups are rejected without corrupting state.
	if err := f.ReplApplyGroup([]wal.Record{
		{Op: wal.OpCreateTable, Table: "x"}, {Op: wal.OpCreateTable, Table: "y"},
	}); err == nil {
		t.Fatal("multi-record DDL group accepted")
	}
	if err := f.ReplApplyGroup([]wal.Record{
		{Op: wal.OpDelete, Table: "t", Payload: encodeFloats([]float64{424242})},
	}); err == nil {
		t.Fatal("delete of an absent key accepted (divergence went undetected)")
	}
	if err := f.ReplApplyGroup([]wal.Record{
		{Op: wal.OpUpdate, Table: "t", Payload: encodeFloats([]float64{1})},
	}); err == nil {
		t.Fatal("malformed update record accepted")
	}
	if err := f.ReplApplyGroup([]wal.Record{{Op: wal.OpTxnBegin, Txn: 7}}); err == nil {
		t.Fatal("framing op inside a group accepted")
	}
	if n := len(liveRows(t, f, "t")); n != len(want) {
		t.Fatalf("rejected groups changed state: %d rows", n)
	}
}

// TestRecoveredPendingSurvivesReopen: mirrored frames of a transaction
// whose commit never arrived must surface via RecoveredPending after a
// restart, unapplied.
func TestRecoveredPendingSurvivesReopen(t *testing.T) {
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
	if recs[len(recs)-1].Op != wal.OpTxnCommit {
		t.Fatalf("last leader record is op %d", recs[len(recs)-1].Op)
	}

	fdir := t.TempDir()
	f, err := OpenDurable(fdir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ReplAppend(recs[:len(recs)-1]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenDurable(fdir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	pending := f2.RecoveredPending()
	if len(pending) != 1 {
		t.Fatalf("%d pending groups after reopen, want 1", len(pending))
	}
	for id, prs := range pending {
		if id == 0 || len(prs) != 2 {
			t.Fatalf("pending group garbled: txn %d with %d records", id, len(prs))
		}
	}
	if rows := liveRows(t, f2, "t"); len(rows) != 0 {
		t.Fatalf("open group applied across reopen: %d rows", len(rows))
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
	if err := f.ReplAppend([]wal.Record{{
		LSN: snap.LSN + 1, Op: wal.OpInsert, Table: "plain",
		Payload: encodeFloats([]float64{100, 100}),
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
