package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hermit/internal/hermit"
	"hermit/internal/storage"
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

// TestSnapshotReadersAgainstReclaimingWriters: four readers, each query under
// a snapshot of its own (RangeQueryAt, then FetchRows, then release), against
// two writers that update, delete and re-insert the same keys and reclaim what
// they end as they go. A freed slot is refilled by the very next version
// written, so a RID resolved a moment too late — through a stale index entry,
// a chain link into a freed slot, a row fetched after its snapshot let go —
// reads another key's row: every row must satisfy the predicate it was asked
// by, carry the key it was asked for when asked by key, and no key may come
// back twice. Run it under -race.
func TestSnapshotReadersAgainstReclaimingWriters(t *testing.T) {
	for _, scheme := range []hermit.PointerScheme{hermit.PhysicalPointers, hermit.LogicalPointers} {
		t.Run(scheme.String(), func(t *testing.T) { snapshotReadersAgainstWriters(t, scheme) })
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
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			seen := make(map[float64]bool)
			var rows [][]float64
			for i := 0; !stop.Load(); i++ {
				col := i % 3 // by key, by the B+-tree, by the Hermit index
				lo := float64(rng.Intn(keys))
				hi := lo + float64(rng.Intn(8))
				if col != 0 {
					lo = float64(rng.Intn(domain))
					hi = lo + float64(rng.Intn(40))
				}
				snap := db.Snapshot()
				rids, _, err := tb.RangeQueryAt(snap, col, lo, hi)
				if err == nil {
					rows, err = tb.FetchRows(rids, rows)
				}
				snap.Release()
				if err != nil {
					t.Errorf("reader: col %d [%v, %v] at ts %d: %v", col, lo, hi, snap.TS(), err)
					return
				}
				clear(seen)
				for _, row := range rows {
					if row[col] < lo || row[col] > hi || row[3] != row[0] || row[1] != 2*row[2]+100 || seen[row[0]] {
						t.Errorf("reader: col %d [%v, %v] at ts %d returned %v (key seen before: %v)", col, lo, hi, snap.TS(), row, seen[row[0]])
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
	if pending, _, _ := tb.VersionStats(); pending != 0 || tb.Store().Len() != tb.Len() {
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
	pending, reclaimed, _ := tb.VersionStats()
	if pending != 0 || reclaimed == 0 {
		t.Fatalf("%d versions queued, %d reclaimed", pending, reclaimed)
	}
	churned := tb.Memory()
	t.Logf("as loaded %+v (%d B), after %d ops %+v (%d B)", loaded, loaded.Total(), ops, churned, churned.Total())
	if a, b := float64(loaded.Total()), float64(churned.Total()); b > 1.05*a || b < 0.95*a {
		t.Fatalf("footprint %d B as loaded, %d B after the churn: more than 5%% apart", loaded.Total(), churned.Total())
	}
	if churned.VersionBytes > loaded.VersionBytes+8*fifoFloor {
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
	if pending, _, _ := tb.VersionStats(); pending != updates {
		t.Fatalf("%d versions queued under the snapshot, want %d", pending, updates)
	}
	var rids []storage.RID
	if rids, _, err = tb.RangeQueryAt(snap, 1, 0, 0); err != nil || len(rids) != rows {
		t.Fatalf("the snapshot sees %d of its %d rows: %v", len(rids), rows, err)
	}
	pinned := tb.Memory().VersionBytes
	snap.Release()
	// Each update ends one version and takes two off the queue.
	for i := 0; i < updates; i++ {
		update(updates + i)
	}
	if pending, _, _ := tb.VersionStats(); pending != 0 || tb.Store().Len() != rows {
		t.Fatalf("after as many commits as the backlog was long: %d queued, %d versions stored", pending, tb.Store().Len())
	}
	if after := tb.Memory().VersionBytes; pinned < 8*updates || after > pinned-8*updates+8*fifoFloor {
		t.Fatalf("version table %d B with the backlog, %d B without it", pinned, after)
	}
}
