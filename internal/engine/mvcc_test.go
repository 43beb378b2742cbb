package engine

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"testing"

	"hermit/internal/hermit"
	"hermit/internal/storage"
	"hermit/internal/wal"
)

func newTxnTable(t *testing.T) (*DB, *Table) {
	t.Helper()
	db := NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("t", []string{"pk", "a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tb.Insert([]float64{float64(i), float64(i * 2), float64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	return db, tb
}

// TestSnapshotIsolationReads: a snapshot keeps resolving the state it was
// taken at while later commits land — updates, deletes and inserts.
func TestSnapshotIsolationReads(t *testing.T) {
	db, tb := newTxnTable(t)
	snap := db.Snapshot()
	defer snap.Release()

	if err := tb.UpdateColumn(10, 1, 999); err != nil {
		t.Fatal(err)
	}
	if ok, err := tb.Delete(20); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if _, err := tb.Insert([]float64{500, 1, 2}); err != nil {
		t.Fatal(err)
	}

	// The old snapshot still sees the pre-mutation state.
	rids, _, err := rowsOf(tb, Query{Col: 0, Lo: 10, Hi: 10, Snap: snap})
	if err != nil || len(rids) != 1 {
		t.Fatalf("snapshot pk 10: %d rids, err %v", len(rids), err)
	}
	if v := rids[0][1]; v != 20 {
		t.Fatalf("snapshot read col a = %v, want pre-update 20", v)
	}
	if rids, _, _ := rowsOf(tb, Query{Col: 0, Lo: 20, Hi: 20, Snap: snap}); len(rids) != 1 {
		t.Fatalf("snapshot lost deleted row: %d rids", len(rids))
	}
	if rids, _, _ := rowsOf(tb, Query{Col: 0, Lo: 500, Hi: 500, Snap: snap}); len(rids) != 0 {
		t.Fatalf("snapshot sees later insert: %d rids", len(rids))
	}

	// A fresh read sees the new state.
	if rids, _, _ := rowsOf(tb, Query{Col: 0, Lo: 20, Hi: 20}); len(rids) != 0 {
		t.Fatalf("latest read sees deleted row")
	}
	rids, _, _ = rowsOf(tb, Query{Col: 0, Lo: 10, Hi: 10})
	if v := rids[0][1]; v != 999 {
		t.Fatalf("latest read col a = %v, want 999", v)
	}
}

// TestTxnCommitAtomicVisibility: no snapshot may ever see part of a
// transaction — readers hammer the table while a txn updates many rows.
func TestTxnCommitAtomicVisibility(t *testing.T) {
	db, tb := newTxnTable(t)
	const rounds = 30
	// Column b of rows 0..9 must always be uniform: each txn sets all ten
	// to the same generation value. The loaded rows are not uniform, so
	// generation 0 commits before the reader starts.
	generation := func(g int) {
		x := db.Begin()
		for pk := 0; pk < 10; pk++ {
			if err := x.Update("t", float64(pk), 2, 1000+float64(g)); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	generation(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Exec copies the rows under the snapshot it read at: each
			// commit of the writer reclaims the versions the commit before
			// it ended, and their slots go to its next ten.
			rows, _, err := rowsOf(tb, Query{Col: 0, Lo: 0, Hi: 9})
			if err != nil || len(rows) != 10 {
				t.Errorf("reader: %d rows err=%v", len(rows), err)
				return
			}
			for _, row := range rows[1:] {
				if row[2] != rows[0][2] {
					t.Errorf("torn transaction observed: b=%v and b=%v", rows[0][2], row[2])
					return
				}
			}
		}
	}()
	for g := 1; g <= rounds; g++ {
		generation(g)
	}
	close(stop)
	wg.Wait()
}

// TestPrimaryHeadAlwaysStamped is the regression test for the publication
// hazard of a primary index that doubles as the key→chain-head structure:
// the entry must move to a new version in the same latch hold that stamps
// it. Moved earlier (when the version row is applied, as the pre-MVCC-heads
// movePrimary did) a reader finds a head whose header is still zero, takes
// the zero header for the end of the chain and loses the visible version
// behind it — for an update, and for a re-insert over a dead chain read by
// a snapshot older than the delete. Readers hammer the point and range
// paths on the key column while auto-commit updates, multi-key
// transactions and delete/re-insert cycles run; every read must find
// exactly the rows that have been live throughout.
func TestPrimaryHeadAlwaysStamped(t *testing.T) {
	for _, scheme := range []hermit.PointerScheme{hermit.PhysicalPointers, hermit.LogicalPointers} {
		t.Run(scheme.String(), func(t *testing.T) { primaryHeadAlwaysStamped(t, scheme) })
	}
}

func primaryHeadAlwaysStamped(t *testing.T, scheme hermit.PointerScheme) {
	db := NewDB(scheme)
	tb, err := db.CreateTable("t", []string{"pk", "a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const keys, cycled = 16, 100 // keys 0..15 stay live; key 100 is deleted and re-inserted
	for pk := 0; pk < keys; pk++ {
		if _, err := tb.Insert([]float64{float64(pk), float64(pk), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.Insert([]float64{cycled, -1, -1}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateBTreeIndex(1, false); err != nil { // a logical-pointer path to the same chains
		t.Fatal(err)
	}
	pinned := db.Snapshot() // older than every delete of the cycled key
	defer pinned.Release()

	rounds := 1500
	if testing.Short() || raceEnabled {
		rounds = 600
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(read func(snap *Snapshot) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.Snapshot()
				err := read(snap)
				snap.Release()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	reader(func(snap *Snapshot) error {
		for pk := 0; pk < keys; pk++ {
			if rids, _, err := rowsOf(tb, Query{Col: 0, Lo: float64(pk), Hi: float64(pk), Snap: snap}); err != nil || len(rids) != 1 {
				return fmt.Errorf("point read of live key %d at ts %d: %d rows, err=%v", pk, snap.TS(), len(rids), err)
			}
		}
		rids, _, err := rowsOf(tb, Query{Col: 0, Lo: cycled, Hi: cycled, Snap: pinned})
		if err != nil || len(rids) != 1 {
			return fmt.Errorf("pinned snapshot lost the cycled key: %d rows, err=%v", len(rids), err)
		}
		if v := rids[0][1]; v != -1 {
			return fmt.Errorf("pinned snapshot reads a=%v for the cycled key, want its first version", v)
		}
		return nil
	})
	reader(func(snap *Snapshot) error {
		if rids, _, err := rowsOf(tb, Query{Col: 0, Lo: 0, Hi: keys - 1, Snap: snap}); err != nil || len(rids) != keys {
			return fmt.Errorf("key-range read at ts %d: %d rows, want %d, err=%v", snap.TS(), len(rids), keys, err)
		}
		// Column a of the live keys never changes: the secondary index
		// must resolve all of them through the primary index.
		if rids, _, err := rowsOf(tb, Query{Col: 1, Lo: 0, Hi: keys - 1, Snap: snap}); err != nil || len(rids) != keys {
			return fmt.Errorf("secondary read at ts %d: %d rows, want %d, err=%v", snap.TS(), len(rids), keys, err)
		}
		if rids, _, err := rowsOf(tb, Query{Col: 0, Lo: 0, Hi: cycled, Snap: pinned}); err != nil || len(rids) != keys+1 {
			return fmt.Errorf("pinned key-range read: %d rows, want %d, err=%v", len(rids), keys+1, err)
		}
		return nil
	})
	for r := 1; r <= rounds; r++ {
		if err := tb.UpdateColumn(float64(r%keys), 2, float64(r)); err != nil {
			t.Fatal(err)
		}
		x := db.Begin()
		for _, pk := range []int{(r + 1) % keys, (r + 5) % keys} {
			if err := x.Update("t", float64(pk), 2, float64(-r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		if r%2 == 0 {
			if ok, err := tb.Delete(cycled); err != nil || !ok {
				t.Fatalf("delete of the cycled key: %v %v", ok, err)
			}
		} else if r > 1 {
			if _, err := tb.Insert([]float64{cycled, float64(1000 + r), 0}); err != nil {
				t.Fatal(err)
			}
		}
		if r%64 == 0 {
			db.GC() // the pinned snapshot keeps every chain whole
		}
	}
	close(stop)
	wg.Wait()
}

// txnCase is one database the transaction tests run over: newTxnTable's
// rows in table "t" of an in-memory or a durable DB, plain or in parts
// partitions.
type txnCase struct {
	name  string
	parts int
	// open loads the table; reopen closes a durable database and recovers
	// it (nil in memory).
	open   func(t *testing.T) *DB
	reopen func(t *testing.T, db *DB) *DB
}

func txnCases() []txnCase {
	cols := []string{"pk", "a", "b"}
	var cases []txnCase
	for _, parts := range []int{0, 4} {
		suffix := "plain"
		if parts > 0 {
			suffix = "partitioned"
		}
		load := func(t *testing.T, db *DB) *DB {
			var err error
			if parts > 0 {
				err = db.CreatePartitionedTable("t", cols, 0, parts)
			} else {
				_, err = db.CreateTable("t", cols, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				if _, err := db.Insert("t", []float64{float64(i), float64(i * 2), float64(i % 7)}); err != nil {
					t.Fatal(err)
				}
			}
			return db
		}
		mem := func(t *testing.T) *DB { return load(t, NewDB(hermit.PhysicalPointers)) }
		var dir string
		openDir := func(t *testing.T) *DB {
			d, err := OpenDurable(dir, hermit.PhysicalPointers)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		}
		durable := func(t *testing.T) *DB {
			dir = t.TempDir()
			return load(t, openDir(t))
		}
		reopen := func(t *testing.T, db *DB) *DB {
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			return openDir(t)
		}
		cases = append(cases,
			txnCase{name: "db-" + suffix, parts: parts, open: mem},
			txnCase{name: "durable-" + suffix, parts: parts, open: durable, reopen: reopen})
	}
	return cases
}

// key reads pk from table "t" at snap (nil: the latest state), checking
// that a live row sits on the partition that owns its key.
func (c txnCase) key(t *testing.T, db *DB, pk float64, snap *Snapshot) ([]float64, bool) {
	t.Helper()
	q := Query{Col: 0, Lo: pk, Hi: pk, Snap: snap}
	row, _, err := db.Exec("t", q, 1, nil)
	if err != nil || len(row) > 3 {
		t.Fatalf("read of pk %v: %v err=%v", pk, row, err)
	}
	rids, _, err := db.Lookup("t", q, 1, nil)
	if err != nil || len(rids) != len(row)/3 {
		t.Fatalf("lookup of pk %v: %v err=%v", pk, rids, err)
	}
	if len(rids) == 1 && rids[0].Part != PartitionOf(pk, c.parts) {
		t.Fatalf("pk %v on partition %d, owner %d", pk, rids[0].Part, PartitionOf(pk, c.parts))
	}
	return row, len(row) > 0
}

// TestTxnFirstCommitterWins: two transactions writing the same key — the
// second committer aborts with ErrWriteConflict and applies nothing — on
// every txnCase.
func TestTxnFirstCommitterWins(t *testing.T) {
	for _, c := range txnCases() {
		t.Run(c.name, func(t *testing.T) {
			db := c.open(t)
			x1 := db.Begin()
			x2 := db.Begin()
			if err := x1.Update("t", 5, 1, 111); err != nil {
				t.Fatal(err)
			}
			if err := x2.Update("t", 5, 1, 222); err != nil {
				t.Fatal(err)
			}
			if err := x2.Update("t", 6, 1, 333); err != nil {
				t.Fatal(err)
			}
			// Another snapshot sees x1's write only once it commits.
			if row, ok := c.key(t, db, 5, nil); !ok || row[1] != 10 {
				t.Fatalf("uncommitted update visible: pk 5 col a = %v", row[1])
			}
			if err := x1.Commit(); err != nil {
				t.Fatalf("first committer: %v", err)
			}
			if err := x2.Commit(); !errors.Is(err, ErrWriteConflict) {
				t.Fatalf("second committer: %v, want ErrWriteConflict", err)
			}
			// Delete-after-snapshot also conflicts.
			x3 := db.Begin()
			if err := x3.Update("t", 7, 1, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Delete("t", 7); err != nil {
				t.Fatal(err)
			}
			if err := x3.Commit(); !errors.Is(err, ErrWriteConflict) {
				t.Fatalf("update-vs-delete: %v, want ErrWriteConflict", err)
			}
			check := func(db *DB) {
				// x2 applied nothing, not even its non-conflicting write.
				if row, ok := c.key(t, db, 5, nil); !ok || row[1] != 111 {
					t.Fatalf("pk 5 col a = %v, want x1's 111", row[1])
				}
				if row, ok := c.key(t, db, 6, nil); !ok || row[1] != 12 {
					t.Fatalf("pk 6 col a = %v, want untouched 12", row[1])
				}
				if _, ok := c.key(t, db, 7, nil); ok {
					t.Fatal("pk 7 outlived its delete")
				}
			}
			check(db)
			if c.reopen != nil {
				check(c.reopen(t, db))
			}
		})
	}
}

// TestTxnRollbackAndReadYourWrites: buffered writes are visible to the
// transaction's own Get, invisible to everyone else until Commit, and
// vanish on rollback — on every txnCase.
func TestTxnRollbackAndReadYourWrites(t *testing.T) {
	for _, c := range txnCases() {
		t.Run(c.name, func(t *testing.T) {
			db := c.open(t)
			x := db.Begin()
			if err := x.Insert("t", []float64{777, 1, 2}); err != nil {
				t.Fatal(err)
			}
			if err := x.Update("t", 3, 1, 42); err != nil {
				t.Fatal(err)
			}
			if found, err := x.Delete("t", 4); err != nil || !found {
				t.Fatalf("txn delete: %v %v", found, err)
			}
			if row, ok, _ := x.Get("t", 777); !ok || row[1] != 1 {
				t.Fatalf("read-your-writes insert: %v %v", row, ok)
			}
			if row, ok, _ := x.Get("t", 3); !ok || row[1] != 42 {
				t.Fatalf("read-your-writes update: %v %v", row, ok)
			}
			if _, ok, _ := x.Get("t", 4); ok {
				t.Fatal("read-your-writes delete still visible")
			}
			// Other readers see none of it.
			if _, ok := c.key(t, db, 777, nil); ok {
				t.Fatal("uncommitted insert visible")
			}
			x.Rollback()
			if _, ok := c.key(t, db, 4, nil); !ok {
				t.Fatal("rolled-back delete applied")
			}
			if err := x.Commit(); !errors.Is(err, ErrTxnDone) {
				t.Fatalf("commit after rollback: %v", err)
			}
			// Duplicate insert inside a txn is caught at buffer time.
			y := db.Begin()
			defer y.Rollback()
			if err := y.Insert("t", []float64{3, 0, 0}); !errors.Is(err, ErrDupKey) {
				t.Fatalf("dup insert in txn: %v", err)
			}
			// Delete then re-insert in one txn replaces the row; a snapshot
			// taken before the commit keeps the old one.
			z := db.Begin()
			if found, err := z.Delete("t", 8); err != nil || !found {
				t.Fatal("txn delete for replace")
			}
			if err := z.Insert("t", []float64{8, 4242, 0}); err != nil {
				t.Fatalf("reinsert after delete in txn: %v", err)
			}
			if err := z.Update("t", 9, 1, 99); err != nil {
				t.Fatal(err)
			}
			before := db.Snapshot()
			defer before.Release()
			if err := z.Commit(); err != nil {
				t.Fatal(err)
			}
			if row, ok := c.key(t, db, 8, before); !ok || row[1] != 16 {
				t.Fatalf("snapshot before the commit sees col a = %v", row[1])
			}
			if row, ok := c.key(t, db, 9, before); !ok || row[1] != 18 {
				t.Fatalf("snapshot before the commit sees col a = %v", row[1])
			}
			check := func(db *DB) {
				if row, ok := c.key(t, db, 8, nil); !ok || row[1] != 4242 {
					t.Fatalf("replaced row col a = %v", row[1])
				}
				if row, ok := c.key(t, db, 9, nil); !ok || row[1] != 99 {
					t.Fatalf("updated row col a = %v", row[1])
				}
				if _, ok := c.key(t, db, 777, nil); ok {
					t.Fatal("rolled-back insert applied")
				}
			}
			check(db)
			if c.reopen != nil {
				y.Rollback()
				before.Release()
				check(c.reopen(t, db))
			}
		})
	}
}

// TestVersionGC: superseded and deleted versions vanish once no snapshot
// can reach them — and survive while one can.
func TestVersionGC(t *testing.T) {
	db, tb := newTxnTable(t)
	snap := db.Snapshot()
	for i := 0; i < 10; i++ {
		if err := tb.UpdateColumn(1, 1, float64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if ok, _ := tb.Delete(2); !ok {
		t.Fatal("delete")
	}
	// The held snapshot pins everything it could read: only versions
	// superseded before it may go (none here are old enough to matter for
	// the chains it reads).
	db.GC()
	if rids, _, _ := rowsOf(tb, Query{Col: 0, Lo: 1, Hi: 1, Snap: snap}); len(rids) != 1 {
		t.Fatal("GC broke a pinned snapshot (update chain)")
	}
	if rids, _, _ := rowsOf(tb, Query{Col: 0, Lo: 2, Hi: 2, Snap: snap}); len(rids) != 1 {
		t.Fatal("GC broke a pinned snapshot (deleted row)")
	}
	snap.Release()
	n := db.GC()
	if n == 0 {
		t.Fatal("GC reclaimed nothing after snapshot release")
	}
	// Latest state intact: pk 1 updated, pk 2 gone, everything queryable.
	rids, _, err := rowsOf(tb, Query{Col: 0, Lo: 0, Hi: 99})
	if err != nil || len(rids) != 99 {
		t.Fatalf("after GC: %d rids err=%v", len(rids), err)
	}
	rids, _, _ = rowsOf(tb, Query{Col: 0, Lo: 1, Hi: 1})
	if v := rids[0][1]; v != 1009 {
		t.Fatalf("after GC pk 1 col a = %v", v)
	}
	if rids, _, _ := rowsOf(tb, Query{Col: 1, Lo: 1009, Hi: 1009}); len(rids) != 1 {
		t.Fatalf("secondary-path query after GC broken")
	}
	// Deleted key's chain is fully reclaimed: a re-insert starts fresh.
	if _, err := tb.Insert([]float64{2, 5, 5}); err != nil {
		t.Fatalf("reinsert after GC: %v", err)
	}
	// Repeated GC with no garbage is a no-op.
	if n := db.GC(); n != 0 {
		t.Fatalf("idle GC reclaimed %d", n)
	}
}

// TestDurableTxnRoundTrip: committed durable transactions survive
// close/reopen; a rolled-back one leaves no trace.
func TestDurableTxnRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := d.Insert("t", []float64{float64(i), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	tx := d.Begin()
	if err := tx.Insert("t", []float64{100, 1}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("t", 5, 1, 55); err != nil {
		t.Fatal(err)
	}
	if found, err := tx.Delete("t", 6); err != nil || !found {
		t.Fatal("durable txn delete")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rb := d.Begin()
	if err := rb.Insert("t", []float64{200, 2}); err != nil {
		t.Fatal(err)
	}
	rb.Rollback()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if n, serr := d2.RecoverySkipped(); n != 0 {
		t.Fatalf("recovery skipped %d (%v)", n, serr)
	}
	if n := d2.RecoveryUncommitted(); n != 0 {
		t.Fatalf("clean shutdown left %d uncommitted txns", n)
	}
	tb, err := d2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 20 { // 20 inserts + 1 txn insert - 1 txn delete
		t.Fatalf("recovered %d rows, want 20", tb.Len())
	}
	if rids, _, _ := rowsOf(tb, Query{Col: 0, Lo: 100, Hi: 100}); len(rids) != 1 {
		t.Fatal("committed txn insert lost")
	}
	if rids, _, _ := rowsOf(tb, Query{Col: 0, Lo: 200, Hi: 200}); len(rids) != 0 {
		t.Fatal("rolled-back txn insert recovered")
	}
	rids, _, _ := rowsOf(tb, Query{Col: 0, Lo: 5, Hi: 5})
	if v := rids[0][1]; v != 55 {
		t.Fatalf("committed txn update lost: %v", v)
	}
	if rids, _, _ := rowsOf(tb, Query{Col: 0, Lo: 6, Hi: 6}); len(rids) != 0 {
		t.Fatal("committed txn delete lost")
	}
}

// TestRecoveryDiscardsUncommittedTail injects a crash between a durable
// transaction's apply and its commit record: the log holds txn-begin and
// the mutations but no commit. Recovery must roll the transaction back —
// and count it — while keeping every acknowledged auto-commit.
func TestRecoveryDiscardsUncommittedTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := d.Insert("t", []float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash simulation: append the transaction's records by hand, without
	// the commit — byte-identical to a process kill after the mutation
	// frames were written but before OpTxnCommit.
	walPath := fmt.Sprintf("%s/wal.%08d.log", dir, 0)
	l, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	const txnID = 7777
	if _, err := l.Append(wal.Record{Op: wal.OpTxnBegin, Txn: txnID}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(wal.Record{
			Op: wal.OpInsert, Txn: txnID, Table: "t",
			Payload: appendFloats(nil, float64(100+i), 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if n := d2.RecoveryUncommitted(); n != 1 {
		t.Fatalf("RecoveryUncommitted = %d, want 1", n)
	}
	if n, serr := d2.RecoverySkipped(); n != 0 {
		t.Fatalf("recovery skipped %d (%v)", n, serr)
	}
	tb, err := d2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 10 {
		t.Fatalf("recovered %d rows, want 10 (uncommitted tail must roll back)", tb.Len())
	}
	for i := 0; i < 3; i++ {
		if rids, _, _ := rowsOf(tb, Query{Col: 0, Lo: float64(100 + i), Hi: float64(100 + i)}); len(rids) != 0 {
			t.Fatalf("uncommitted insert %d recovered", 100+i)
		}
	}
	// A committed transaction in the same log still applies after reopen.
	tx := d2.Begin()
	if err := tx.Insert("t", []float64{300, 9}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
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
	if rids, _, _ := rowsOf(tb3, Query{Col: 0, Lo: 300, Hi: 300}); len(rids) != 1 {
		t.Fatal("committed txn lost after second recovery")
	}
}

// TestCheckpointRunsVersionGC, as the property that replaced the pass: a
// durable table under update and delete churn holds no dead version once the
// commit that ended it has returned — no checkpoint, compaction or GC call is
// needed for that — while the deletes wait in the delete list for the flush
// that records them; and checkpoint + reopen give back exactly the rows the
// oracle has, though every chain the deltas had to describe was reclaimed
// before they were written.
func TestCheckpointRunsVersionGC(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurableOptions(dir, hermit.PhysicalPointers, DurableOptions{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	tb, _ := d.Table("t")
	oracle := make(map[float64]float64)
	settled := func(what string) {
		t.Helper()
		if got := tb.Store().Len(); got != len(oracle) {
			t.Fatalf("after %s: store holds %d versions for %d live rows", what, got, len(oracle))
		}
		if pending := tb.VersionStats().Pending; pending != 0 {
			t.Fatalf("after %s: %d versions queued with no snapshot open", what, pending)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := d.Insert("t", []float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
		oracle[float64(i)] = 0
	}
	deleted := 0
	for round := 1; round <= 5; round++ {
		for i := 0; i < 50; i++ {
			pk := float64(i)
			switch _, live := oracle[pk]; {
			case !live:
				if _, err := d.Insert("t", []float64{pk, float64(round)}); err != nil {
					t.Fatal(err)
				}
				oracle[pk] = float64(round)
			case (i+round)%7 == 0:
				if found, err := d.Delete("t", pk); err != nil || !found {
					t.Fatalf("delete %v: %v %v", pk, found, err)
				}
				delete(oracle, pk)
				deleted++
			default:
				if err := d.UpdateColumn("t", pk, 1, float64(round)); err != nil {
					t.Fatal(err)
				}
				oracle[pk] = float64(round)
			}
			settled("a write")
		}
		if round == 3 {
			if unflushed := tb.VersionStats().UnflushedDeletes; unflushed != deleted {
				t.Fatalf("delete list holds %d entries before the first flush, %d keys were deleted", unflushed, deleted)
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if unflushed := tb.VersionStats().UnflushedDeletes; unflushed != 0 {
				t.Fatalf("delete list holds %d entries after the flush", unflushed)
			}
		}
	}
	if reclaimed := tb.VersionStats().Reclaimed; reclaimed == 0 || d.GC() != 0 {
		t.Fatalf("reclaimed %d versions at commit; a GC call after them found work", reclaimed)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tb2, _ := d2.Table("t")
	got := make(map[float64]float64)
	tb2.ScanLive(func(_ storage.RID, row []float64) bool { got[row[0]] = row[1]; return true })
	if !maps.Equal(got, oracle) {
		t.Fatalf("recovered %v, want %v", got, oracle)
	}
}

// TestReclaimedHeadNotWalked hammers the window the reuse of version slots
// opens between a reader's two latch holds. A key that was deleted keeps its
// primary entry, naming the dead head, until GC reclaims the chain; the slot
// then goes to the next insert. A reader that fetched the head, let go of
// the primary latch and only then took the version latch could find another
// key's freshly stamped version in the slot — invisible to it, but linked
// to that key's older version, which it does see — and return that row for
// the deleted key. Ghost keys are inserted, deleted and reclaimed while
// updates of the resident keys refill their slots; whatever a read of the
// ghost keys returns must carry a ghost key (see visibleFromAll). The window
// is a few instructions wide: with the primary read and the chain walk in two
// holds the test needs a yield between them to fail, and then fails at once.
func TestReclaimedHeadNotWalked(t *testing.T) {
	for _, scheme := range []hermit.PointerScheme{hermit.PhysicalPointers, hermit.LogicalPointers} {
		t.Run(scheme.String(), func(t *testing.T) { reclaimedHeadNotWalked(t, scheme) })
	}
}

func reclaimedHeadNotWalked(t *testing.T, scheme hermit.PointerScheme) {
	db := NewDB(scheme)
	tb, err := db.CreateTable("t", []string{"pk", "a"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const residents, ghosts, ghost0 = 64, 8, 1000
	for pk := 0; pk < residents; pk++ {
		if _, err := tb.Insert([]float64{float64(pk), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.CreateBTreeIndex(1, false); err != nil {
		t.Fatal(err)
	}
	rounds := 4000
	if testing.Short() || raceEnabled {
		rounds = 1000
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.Snapshot()
				lo, hi := float64(ghost0+i%ghosts), float64(ghost0+i%ghosts)
				if i%3 == 0 {
					lo, hi = ghost0, ghost0+ghosts
				}
				rows, _, err := rowsOf(tb, Query{Col: 0, Lo: lo, Hi: hi, Snap: snap})
				for _, row := range rows {
					if pk := row[0]; pk < lo || pk > hi {
						err = fmt.Errorf("read of keys [%v, %v] at ts %d returned key %v", lo, hi, snap.TS(), pk)
					}
				}
				snap.Release()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		g := float64(ghost0 + r%ghosts)
		if _, err := tb.Insert([]float64{g, -1}); err != nil {
			t.Fatal(err)
		}
		if ok, err := tb.Delete(g); err != nil || !ok {
			t.Fatalf("delete of ghost key %v: %v %v", g, ok, err)
		}
		db.GC()
		for i := 0; i < 4; i++ {
			if err := tb.UpdateColumn(float64((4*r+i)%residents), 1, float64(r+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestFrozenRowsReachTheirBlock follows a durable table's rows from the WAL
// tail into blocks. Whether a block holds a row is no part of the freeze rule —
// a row no delta block holds yet is frozen like any other once no snapshot
// predates it — and is counted apart, a bit a row: set by the write, replayed
// from the log with it, cleared by the checkpoint that flushes the row and not
// set at all on a row restored from blocks. insert → close without checkpoint
// → reopen (the rows come back from the log: unflushed) → checkpoint (flushed)
// → churn → reopen (restored from blocks: flushed; replayed from the tail: not)
// → checkpoint → reopen loses no row on the way.
func TestFrozenRowsReachTheirBlock(t *testing.T) {
	dir := t.TempDir()
	open := func() (*DB, *Table) {
		t.Helper()
		d, err := OpenDurableOptions(dir, hermit.LogicalPointers, DurableOptions{DisableAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		tb, _ := d.Table("t")
		return d, tb
	}
	oracle := make(map[float64]float64)
	check := func(what string, d *DB, tb *Table, unfrozen, unflushed int) {
		t.Helper()
		got := make(map[float64]float64)
		tb.ScanLive(func(_ storage.RID, row []float64) bool { got[row[0]] = row[1]; return true })
		if !maps.Equal(got, oracle) {
			t.Fatalf("%s: table holds %d rows, the oracle %d", what, len(got), len(oracle))
		}
		if st := d.StorageStats(); st.VersionsUnfrozen != unfrozen || st.VersionsUnflushed != unflushed || st.VersionsPending != 0 {
			t.Fatalf("%s: %d rows carry a header, %d are unflushed (%d versions pending), want %d, %d", what, st.VersionsUnfrozen, st.VersionsUnflushed, st.VersionsPending, unfrozen, unflushed)
		}
	}
	const rows = 3000
	d, _ := open()
	if _, err := d.CreateTable("t", []string{"pk", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	tb, _ := d.Table("t")
	for i := 0; i < rows; i++ {
		if _, err := d.Insert("t", []float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
		oracle[float64(i)] = 0
	}
	check("loaded, nothing flushed", d, tb, 0, rows)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, tb = open()
	check("replayed from the log", d, tb, 0, rows)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("flushed", d, tb, 0, 0)
	// A snapshot older than a row keeps it from freezing, flushed or not; the
	// commits after its release see to it.
	snap := d.Snapshot()
	for i := 0; i < 100; i++ {
		pk := float64(rows + i)
		if _, err := d.Insert("t", []float64{pk, 1}); err != nil {
			t.Fatal(err)
		}
		oracle[pk] = 1
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("flushed under a snapshot", d, tb, 100, 0)
	snap.Release()
	changed := 0
	for i := 0; i < rows; i += 7 {
		pk := float64(i)
		if i%2 == 0 {
			if err := d.UpdateColumn("t", pk, 1, 2); err != nil {
				t.Fatal(err)
			}
			oracle[pk] = 2
			changed++
		} else {
			if _, err := d.Delete("t", pk); err != nil {
				t.Fatal(err)
			}
			delete(oracle, pk)
		}
	}
	check("the snapshot gone, a tail unflushed", d, tb, 0, changed)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, tb = open()
	check("restored from blocks, the tail replayed", d, tb, 0, changed)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("flushed again", d, tb, 0, 0)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, tb = open()
	defer d.Close()
	check("restored from blocks alone", d, tb, 0, 0)
}
