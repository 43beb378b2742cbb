package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"hermit/internal/hermit"
)

// Reclamation at commit, outside the model check: what readers that hold a
// snapshot may rely on while writers reclaim beside them, and what the
// table's footprint does under churn that no GC call interrupts.

// TestFifo pins the queue under Table.ended and Table.deletes: order, removal
// from the back, and the array given back as a long backlog drains.
func TestFifo(t *testing.T) {
	var q fifo[int]
	for i := 0; i < 10; i++ {
		q.push(i)
	}
	q.drop(3)
	if !q.remove(9) || q.remove(2) || !q.remove(5) {
		t.Fatal("remove: 9 and 5 are queued, 2 was dropped")
	}
	if got, want := fmt.Sprint(q.items()), "[3 4 6 7 8]"; got != want || q.len() != 5 {
		t.Fatalf("items %s len %d, want %s", got, q.len(), want)
	}
	q.drop(5)
	if q.len() != 0 || q.head != 0 {
		t.Fatalf("drained queue: len %d head %d", q.len(), q.head)
	}
	// A queue that hovers around empty keeps its small array.
	small := cap(q.buf)
	for i := 0; i < 1000; i++ {
		q.push(i)
		if i%2 == 0 {
			q.drop(1)
		} else {
			q.remove(i)
		}
	}
	if q.len() != 0 || cap(q.buf) != small {
		t.Fatalf("steady state: len %d, array of %d became %d", q.len(), small, cap(q.buf))
	}
	// A long backlog, drained two at a time with a push in between, as
	// commits do: FIFO order throughout (ref is the queue as a plain slice),
	// never much more array than elements, and the array gone at the end.
	const backlog = 100_000
	var ref []int
	for i := 0; i < backlog; i++ {
		q.push(i)
		ref = append(ref, i)
	}
	grown := q.capBytes()
	for i := backlog; q.len() > 0; i++ {
		if i%3 == 0 {
			q.push(i)
			ref = append(ref, i)
		}
		n := min(2, q.len())
		if q.items()[0] != ref[0] || q.items()[n-1] != ref[n-1] || q.len() != len(ref) {
			t.Fatalf("queue front %d, len %d; want %d, %d", q.items()[0], q.len(), ref[0], len(ref))
		}
		q.drop(n)
		ref = ref[n:]
		if q.head == 0 && q.capBytes() > 8*uint64(max(4*q.len(), 2*fifoFloor)) {
			t.Fatalf("%d elements queued in an array of %d bytes", q.len(), q.capBytes())
		}
	}
	if q.capBytes() > 8*2*fifoFloor || grown < 8*backlog {
		t.Fatalf("array of %d bytes at the peak, %d after the drain", grown, q.capBytes())
	}
}

// TestSnapshotReadersAgainstReclaimingWriters: four readers Exec under the
// snapshot Exec takes for itself, against two writers that update, delete and
// re-insert the same keys and reclaim what they end as they go. A freed slot
// is refilled by the very next version written, so a RID resolved a moment
// too late — through a stale index entry, a chain link into a freed slot, a
// row copied after its snapshot let go — reads another key's row: every row
// must satisfy the predicate it was asked by, be one whole committed row
// (tag repeats the key, host follows target) and no key may come back twice.
// Two more readers take a snapshot, hold it until the writers have committed
// another 64 times — slots all around the versions it sees reclaimed,
// refilled, frozen and thawed meanwhile — and only then Exec at it. Run it
// under -race.
//
// The second half is the one window freezing must stay out of: a snapshot
// registered between a commit's stamp and its publish reads at commitTS-1 and
// must not see the version, which a version frozen at stamp would show it.
func TestSnapshotReadersAgainstReclaimingWriters(t *testing.T) {
	for _, scheme := range []hermit.PointerScheme{hermit.PhysicalPointers, hermit.LogicalPointers} {
		t.Run(scheme.String(), func(t *testing.T) { snapshotReadersAgainstWriters(t, scheme) })
		t.Run(scheme.String()+"-stamp-to-publish", func(t *testing.T) { snapshotsBetweenStampAndPublish(t, scheme) })
	}
}

// snapshotsBetweenStampAndPublish: one writer is the only committer, so the
// key it inserts with its n-th commit is known beforehand, by auto-commit and
// by transaction in turn; three readers take snapshot after snapshot and ask
// each for the key of the commit after the one it reads at, by key and by
// index. Whenever a snapshot lands between that commit's stamp and its publish
// the version is there to be found, and must not be.
func snapshotsBetweenStampAndPublish(t *testing.T, scheme hermit.PointerScheme) {
	db := NewDB(scheme)
	tb, err := db.CreateTable("t", []string{"pk", "v"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateBTreeIndex(1, false); err != nil {
		t.Fatal(err)
	}
	commits := 200_000
	if testing.Short() || raceEnabled {
		commits = 40_000
	}
	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; !stop.Load(); i++ {
				snap := db.Snapshot()
				next := float64(snap.TS() + 1) // the key commit TS()+1 inserts
				rids, _, err := rowsOf(tb, Query{Col: i % 2, Lo: next, Hi: next, Snap: snap})
				snap.Release()
				if err != nil || len(rids) != 0 {
					t.Errorf("a snapshot at %d sees %d row(s) of the commit after it (col %d): %v", snap.TS(), len(rids), i%2, err)
					return
				}
			}
		}()
	}
	for ts := 1; ts <= commits && !t.Failed(); ts++ {
		row := []float64{float64(ts), float64(ts)}
		if ts%2 == 0 {
			_, err = tb.Insert(row)
		} else {
			x := db.Begin()
			if err = x.Insert(tb, row); err == nil {
				_, err = x.Commit()
			}
		}
		if err != nil || db.Clock().Now() != uint64(ts) {
			t.Fatalf("commit %d: clock at %d: %v", ts, db.Clock().Now(), err)
		}
	}
	stop.Store(true)
	readers.Wait()
	db.GC()
	if vs := tb.VersionStats(); vs.Unfrozen != 0 || tb.Len() != commits && !t.Failed() {
		t.Fatalf("after the run: %d rows, %+v", tb.Len(), vs)
	}
}

func snapshotReadersAgainstWriters(t *testing.T, scheme hermit.PointerScheme) {
	const keys, domain = 256, 1000
	db := NewDB(scheme)
	tb, err := db.CreateTable("t", []string{"pk", "host", "target", "tag", "payload"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// tag repeats the key, and host follows target: a row that answers for
	// another key, or is half of one row and half of another, shows it.
	newRow := func(rng *rand.Rand, pk float64) []float64 {
		c := float64(rng.Intn(domain))
		return []float64{pk, 2*c + 100, c, pk, 0}
	}
	rng := rand.New(rand.NewSource(1))
	for pk := 0; pk < keys; pk++ {
		if _, err := tb.Insert(newRow(rng, float64(pk))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.CreateBTreeIndex(1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateHermitIndex(2, 1); err != nil {
		t.Fatal(err)
	}
	writes := 20000
	if testing.Short() || raceEnabled {
		writes = 5000
	}
	var stop atomic.Bool
	var readers, writers sync.WaitGroup
	for r := 0; r < 6; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			hold := r >= 4
			rng := rand.New(rand.NewSource(int64(100 + r)))
			seen := make(map[float64]bool)
			for i := 0; !stop.Load(); i++ {
				col := i % 3 // by key, by the B+-tree, by the Hermit index
				lo := float64(rng.Intn(keys))
				hi := lo + float64(rng.Intn(8))
				if col != 0 {
					lo = float64(rng.Intn(domain))
					hi = lo + float64(rng.Intn(40))
				}
				q := Query{Col: col, Lo: lo, Hi: hi}
				if hold {
					q.Snap = db.Snapshot()
					for db.Clock().Now() < q.Snap.TS()+64 && !stop.Load() {
						runtime.Gosched()
					}
				}
				rows, _, err := rowsOf(tb, q)
				q.Snap.Release()
				if err != nil {
					t.Errorf("reader: col %d [%v, %v] (held snapshot: %v): %v", col, lo, hi, hold, err)
					return
				}
				clear(seen)
				for _, row := range rows {
					if row[col] < lo || row[col] > hi || row[3] != row[0] || row[1] != 2*row[2]+100 || seen[row[0]] {
						t.Errorf("reader: col %d [%v, %v] (held snapshot: %v) returned %v (key seen before: %v)", col, lo, hi, hold, row, seen[row[0]])
						return
					}
					seen[row[0]] = true
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < writes; i++ {
				// Both writers draw from the same keys: an update or a delete
				// may find the key gone and an insert may find it back, having
				// lost the race to the other writer.
				pk := float64(rng.Intn(keys))
				var err error
				switch rng.Intn(3) {
				case 0:
					if err = tb.UpdateColumn(pk, 4, rng.Float64()); err != nil && strings.Contains(err.Error(), "no row with pk") {
						err = nil
					}
				case 1:
					_, err = tb.Delete(pk)
				default:
					if _, err = tb.Insert(newRow(rng, pk)); errors.Is(err, ErrDupKey) {
						err = nil
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	// Nothing is pinned any more: what the writers ended is gone, to the row.
	db.GC()
	if pending := tb.VersionStats().Pending; pending != 0 || tb.Store().Len() != tb.Len() {
		t.Fatalf("after the run: %d versions queued, %d rows stored for %d live", pending, tb.Store().Len(), tb.Len())
	}
}

// TestChurnKeepsHeapFlat: with no snapshot open, update / delete / re-insert
// churn of five times the table leaves the store holding the live rows and
// nothing else, and the table's whole footprint — rows, primary, both
// indexes — where the load left it. No GC call is made. The B+-tree index is
// created before the load, so it is as random inserts leave a tree both times
// the footprint is read; the TRS-Tree is fitted to the loaded rows.
func TestChurnKeepsHeapFlat(t *testing.T) {
	rows, ops := 100_000, 500_000
	if testing.Short() || raceEnabled {
		rows, ops = 20_000, 100_000
	}
	db := NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("t", []string{"pk", "host", "target", "payload"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateBTreeIndex(1, false); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	insert := func(pk int) {
		c := float64(rng.Intn(10_000))
		host := 2*c + 100
		if rng.Intn(100) == 0 {
			host = float64(rng.Intn(20_100)) // an outlier for the TRS-Tree
		}
		if _, err := tb.Insert([]float64{float64(pk), host, c, rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	for _, pk := range rng.Perm(rows) {
		insert(pk)
	}
	if _, err := tb.CreateHermitIndex(2, 1); err != nil {
		t.Fatal(err)
	}
	loaded := tb.Memory()
	live := make([]bool, rows)
	for i := range live {
		live[i] = true
	}
	for i := 0; i < ops; i++ {
		pk := rng.Intn(rows)
		switch {
		case !live[pk]:
			insert(pk)
			live[pk] = true
		case rng.Intn(2) == 0:
			if err := tb.UpdateColumn(float64(pk), 3, rng.Float64()); err != nil {
				t.Fatal(err)
			}
		default:
			if found, err := tb.Delete(float64(pk)); err != nil || !found {
				t.Fatalf("delete %d: %v %v", pk, found, err)
			}
			live[pk] = false
		}
	}
	for pk, ok := range live {
		if !ok {
			insert(pk)
		}
	}
	if got := tb.Store().Len(); got != rows || tb.Len() != rows {
		t.Fatalf("store holds %d versions, table %d live rows, want %d of each", got, tb.Len(), rows)
	}
	if vs := tb.VersionStats(); vs.Pending != 0 || vs.Reclaimed == 0 || vs.Unfrozen != 0 {
		t.Fatalf("after the churn, no snapshot open: %+v", vs)
	}
	churned := tb.Memory()
	t.Logf("as loaded %+v (%d B), after %d ops %+v (%d B)", loaded, loaded.Total(), ops, churned, churned.Total())
	if a, b := float64(loaded.Total()), float64(churned.Total()); b > 1.05*a || b < 0.95*a {
		t.Fatalf("footprint %d B as loaded, %d B after the churn: more than 5%% apart", loaded.Total(), churned.Total())
	}
	// An update holds two headers at once, the load one: a granule more on
	// the free list, and the queue's floor.
	if churned.VersionBytes > loaded.VersionBytes+8*fifoFloor+2*uint64(unsafe.Sizeof(verGranule{})) {
		t.Fatalf("version table %d B as loaded, %d B after the churn", loaded.VersionBytes, churned.VersionBytes)
	}
}

// TestLongSnapshotBacklogGivenBack: one snapshot held over many updates pins
// a version per update; released, the backlog goes with the commits that
// follow — no GC call — and the queue's array with it, so the version table
// is back at its size from before.
func TestLongSnapshotBacklogGivenBack(t *testing.T) {
	const rows, updates = 1000, 50_000
	db := NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("t", []string{"pk", "v"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for pk := 0; pk < rows; pk++ {
		if _, err := tb.Insert([]float64{float64(pk), 0}); err != nil {
			t.Fatal(err)
		}
	}
	update := func(i int) {
		if err := tb.UpdateColumn(float64(i%rows), 1, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	for i := 0; i < updates; i++ {
		update(i)
	}
	if pending := tb.VersionStats().Pending; pending != updates {
		t.Fatalf("%d versions queued under the snapshot, want %d", pending, updates)
	}
	if got, _, err := rowsOf(tb, Query{Col: 1, Lo: 0, Hi: 0, Snap: snap}); err != nil || len(got) != rows {
		t.Fatalf("the snapshot sees %d of its %d rows: %v", len(got), rows, err)
	}
	pinned := tb.Memory().VersionBytes
	snap.Release()
	// Each update ends one version and takes two off the queue.
	for i := 0; i < updates; i++ {
		update(updates + i)
	}
	if pending := tb.VersionStats().Pending; pending != 0 || tb.Store().Len() != rows {
		t.Fatalf("after as many commits as the backlog was long: %d queued, %d versions stored", pending, tb.Store().Len())
	}
	if after := tb.Memory().VersionBytes; pinned < 8*updates || after > pinned-8*updates+8*fifoFloor {
		t.Fatalf("version table %d B with the backlog, %d B without it", pinned, after)
	}
}

// TestVersionTableBounds: the version table of a table as loaded is a bit and
// an eighth of a pointer per slot, at most 0.5 B/row; with a snapshot pinned
// across an update of every row every slot holds a header, and then it is the
// dense table — 24 B a slot — and that same 0.5 B, whatever the order the
// slots were written in; released and collected, no header is left and the
// half-empty store's slots cost that 0.5 B again.
func TestVersionTableBounds(t *testing.T) {
	rows := 1_000_000
	if testing.Short() || raceEnabled {
		rows = 100_000
	}
	db := NewDB(hermit.PhysicalPointers)
	tb, err := db.CreateTable("t", []string{"pk", "v"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for pk := 0; pk < rows; pk++ {
		if _, err := tb.Insert([]float64{float64(pk), 0}); err != nil {
			t.Fatal(err)
		}
	}
	loaded := tb.VersionStats()
	if loaded.Unfrozen != 0 || float64(loaded.Bytes) > 0.5*float64(rows) {
		t.Fatalf("as loaded: %+v, want no header and at most 0.5 B/row", loaded)
	}
	snap := db.Snapshot()
	for _, pk := range rand.New(rand.NewSource(1)).Perm(rows) {
		if err := tb.UpdateColumn(float64(pk), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	pinned := tb.VersionStats()
	slots := float64(tb.Store().Len())
	tb.verMu.RLock()
	queue := tb.ended.capBytes()
	tb.verMu.RUnlock()
	if pinned.Unfrozen != 2*rows || float64(pinned.Bytes-queue) > 24.5*slots {
		t.Fatalf("pinned across %d updates: %+v, of it %d B of queue; want %d headers in at most %.0f B", rows, pinned, queue, 2*rows, 24.5*slots)
	}
	snap.Release()
	if db.GC() != rows {
		t.Fatal("GC left versions of the released snapshot behind")
	}
	freeList := float64(maxGranuleFree * unsafe.Sizeof(verGranule{}))
	if after := tb.VersionStats(); after.Unfrozen != 0 || float64(after.Bytes) > 0.5*slots+freeList {
		t.Fatalf("released and collected: %+v, want no header and at most 0.5 B a slot of the %.0f the store has had and a full free list", after, slots)
	}
}
