package storage

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"hermit/internal/heapsize"
)

func TestRIDPackUnpack(t *testing.T) {
	cases := []struct {
		block uint64
		slot  uint16
	}{
		{0, 0}, {1, 0}, {0, 1}, {7, 4095}, {1 << 40, 65535},
	}
	for _, c := range cases {
		r := MakeRID(c.block, c.slot)
		if r.Block() != c.block || r.Slot() != c.slot {
			t.Fatalf("roundtrip failed for %+v: got block=%d slot=%d", c, r.Block(), r.Slot())
		}
	}
}

func TestRIDString(t *testing.T) {
	if s := MakeRID(3, 17).String(); s != "3+17" {
		t.Fatalf("got %q", s)
	}
}

func TestInsertGet(t *testing.T) {
	tb := NewTable(3)
	rid, err := tb.Insert([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	row, err := tb.Get(rid, nil)
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != 1 || row[1] != 2 || row[2] != 3 {
		t.Fatalf("row=%v", row)
	}
	if tb.Len() != 1 || tb.Width() != 3 {
		t.Fatalf("len=%d width=%d", tb.Len(), tb.Width())
	}
}

func TestInsertWrongWidth(t *testing.T) {
	tb := NewTable(2)
	if _, err := tb.Insert([]float64{1}); err != ErrBadRow {
		t.Fatalf("want ErrBadRow, got %v", err)
	}
}

// value reads column col of the row at rid: a ValueRun of one.
func value(tb *Table, rid RID, col int) (float64, error) {
	v, err := tb.ValueRun([]RID{rid}, col, nil)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

func TestValue(t *testing.T) {
	tb := NewTable(2)
	rid, _ := tb.Insert([]float64{10, 20})
	v, err := value(tb, rid, 1)
	if err != nil || v != 20 {
		t.Fatalf("v=%v err=%v", v, err)
	}
	// A row is rewritten by a delete and the insert that refills its slot.
	if err := tb.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if again, _ := tb.Insert([]float64{99, 20}); again != rid {
		t.Fatalf("refill went to %v, not %v", again, rid)
	}
	if v, _ := value(tb, rid, 0); v != 99 {
		t.Fatalf("after refill: %v", v)
	}
	if _, err := value(tb, rid, 5); err != ErrBadColumn {
		t.Fatalf("want ErrBadColumn, got %v", err)
	}
	// A run reads one column of many rows, in the order asked, and fails
	// on the first RID that names no row.
	other, _ := tb.Insert([]float64{7, 8})
	if vs, err := tb.ValueRun([]RID{other, rid, other}, 1, nil); err != nil || !slices.Equal(vs, []float64{8, 20, 8}) {
		t.Fatalf("ValueRun = %v, %v", vs, err)
	}
	if err := tb.Delete(other); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ValueRun([]RID{rid, other}, 0, nil); !errors.Is(err, ErrTombstoned) {
		t.Fatalf("want ErrTombstoned, got %v", err)
	}
	if _, err := tb.ValueRun([]RID{MakeRID(9, 0)}, 0, nil); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("want ErrOutOfBounds, got %v", err)
	}
}

func TestDelete(t *testing.T) {
	tb := NewTable(1)
	rid, _ := tb.Insert([]float64{1})
	if err := tb.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 0 || tb.Deleted() != 1 {
		t.Fatalf("len=%d deleted=%d", tb.Len(), tb.Deleted())
	}
	if _, err := tb.Get(rid, nil); err != ErrTombstoned {
		t.Fatalf("want ErrTombstoned, got %v", err)
	}
	if err := tb.Delete(rid); err != ErrTombstoned {
		t.Fatalf("double delete: want ErrTombstoned, got %v", err)
	}
}

func TestGetRun(t *testing.T) {
	tb := NewTable(2)
	var rids []RID
	for i := 0; i < 5; i++ {
		rid, _ := tb.Insert([]float64{float64(i), float64(10 * i)})
		rids = append(rids, rid)
	}
	got, err := tb.GetRun([]RID{rids[3], rids[0], rids[3]}, make([]float64, 1))
	if want := []float64{3, 30, 0, 0, 3, 30}; err != nil || !slices.Equal(got, want) {
		t.Fatalf("GetRun = %v, %v; want %v", got, err, want)
	}
	if got, err := tb.GetRun(nil, got); err != nil || len(got) != 0 {
		t.Fatalf("empty run = %v, %v", got, err)
	}
	tb.Delete(rids[1])
	if _, err := tb.GetRun([]RID{rids[0], rids[1]}, nil); !errors.Is(err, ErrTombstoned) {
		t.Fatalf("run over a freed slot: %v, want ErrTombstoned", err)
	}
}

func TestOutOfBounds(t *testing.T) {
	tb := NewTable(1)
	if _, err := tb.Get(MakeRID(0, 0), nil); err != ErrOutOfBounds {
		t.Fatalf("empty table: %v", err)
	}
	tb.Insert([]float64{1})
	if _, err := tb.Get(MakeRID(5, 0), nil); err != ErrOutOfBounds {
		t.Fatalf("bad block: %v", err)
	}
	if _, err := tb.Get(MakeRID(0, 9), nil); err != ErrOutOfBounds {
		t.Fatalf("bad slot: %v", err)
	}
}

func TestBlockBoundary(t *testing.T) {
	tb := NewTable(1)
	n := BlockRows + 100
	rids := make([]RID, 0, n)
	for i := 0; i < n; i++ {
		rid, err := tb.Insert([]float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if rids[BlockRows].Block() != 1 || rids[BlockRows].Slot() != 0 {
		t.Fatalf("row %d has rid %v, want block 1 slot 0", BlockRows, rids[BlockRows])
	}
	for i, rid := range rids {
		v, err := value(tb, rid, 0)
		if err != nil || v != float64(i) {
			t.Fatalf("row %d: v=%v err=%v", i, v, err)
		}
	}
}

func TestScan(t *testing.T) {
	tb := NewTable(2)
	var rids []RID
	for i := 0; i < 10; i++ {
		rid, _ := tb.Insert([]float64{float64(i), float64(i * 10)})
		rids = append(rids, rid)
	}
	tb.Delete(rids[3])
	var seen []float64
	tb.Scan(func(rid RID, row []float64) bool {
		seen = append(seen, row[0])
		return true
	})
	if len(seen) != 9 {
		t.Fatalf("scan saw %d rows", len(seen))
	}
	for _, v := range seen {
		if v == 3 {
			t.Fatal("deleted row visible in scan")
		}
	}
	// Early stop.
	count := 0
	tb.Scan(func(RID, []float64) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop: count=%d", count)
	}
}

func TestScanColumnAndPairs(t *testing.T) {
	tb := NewTable(3)
	for i := 0; i < 5; i++ {
		tb.Insert([]float64{float64(i), float64(2 * i), float64(3 * i)})
	}
	var sum float64
	if err := tb.ScanColumn(1, func(_ RID, v float64) bool { sum += v; return true }); err != nil {
		t.Fatal(err)
	}
	if sum != 2*(0+1+2+3+4) {
		t.Fatalf("sum=%v", sum)
	}
	if err := tb.ScanColumn(7, nil); err != ErrBadColumn {
		t.Fatalf("want ErrBadColumn, got %v", err)
	}
	ok := true
	err := tb.ScanPairs(0, 2, func(_ RID, m, n float64) bool {
		if n != 3*m {
			ok = false
		}
		return true
	})
	if err != nil || !ok {
		t.Fatalf("pairs mismatch err=%v", err)
	}
	if err := tb.ScanPairs(0, 9, nil); err != ErrBadColumn {
		t.Fatalf("want ErrBadColumn, got %v", err)
	}
}

func TestColumnBounds(t *testing.T) {
	tb := NewTable(1)
	if _, _, ok := tb.ColumnBounds(0); ok {
		t.Fatal("empty table should report !ok")
	}
	for _, v := range []float64{5, -3, 12, 0} {
		tb.Insert([]float64{v})
	}
	lo, hi, ok := tb.ColumnBounds(0)
	if !ok || lo != -3 || hi != 12 {
		t.Fatalf("bounds=[%v,%v] ok=%v", lo, hi, ok)
	}
}

// TestSizeBytes: SizeBytes is what the allocator hands out — the block
// header and bitmap in their size classes, the rows as float64s while the
// block fills and as codes and frames once it is full, and the float64
// array a packed block leaves for the next.
func TestSizeBytes(t *testing.T) {
	tb := NewTable(4)
	if tb.SizeBytes() != 0 {
		t.Fatal("empty table should have zero size")
	}
	row := func(i int) []float64 {
		// Codes of 2, 0, 2 and 8 bytes: whole numbers on one exponent, one
		// value, quarters on one exponent, and any bits at all.
		return []float64{float64(BlockRows + i), 7, 1024 + float64(i)/4, math.Float64frombits(uint64(i) * 0x9E3779B97F4A7C15)}
	}
	tb.Insert(row(0))
	header := heapsize.Of(int(unsafe.Sizeof(block{})), true) + BlockRows/64*8 + 8 // + the one-block array
	if got, want := tb.SizeBytes(), header+BlockRows*4*8; got != want {
		t.Fatalf("one row: size=%d want %d", got, want)
	}
	for i := 1; i < BlockRows; i++ {
		tb.Insert(row(i))
	}
	b := tb.blocks[0]
	if b.frames == nil || b.stride != 12 {
		t.Fatalf("full block: frames %v, stride %d; want packed in 12-byte rows", b.frames, b.stride)
	}
	// 48 KiB of codes take six pages, and the float64 array stays for the
	// block the next insert appends.
	frames := heapsize.Of(4*int(unsafe.Sizeof(frame{})), false)
	if got, want := tb.SizeBytes(), header+BlockRows*12+frames+BlockRows*4*8; got != want {
		t.Fatalf("packed: size=%d want %d", got, want)
	}
	for i := 0; i < BlockRows; i++ {
		if got, err := tb.Get(MakeRID(0, uint16(i)), nil); err != nil || !sameBits(got, row(i)) {
			t.Fatalf("row %d reads %v (%v), want %v", i, got, err, row(i))
		}
	}
}

// Property: every inserted row is retrievable by its RID with the exact
// values, and RIDs are unique.
func TestQuickInsertRetrieve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + rng.Intn(5)
		tb := NewTable(w)
		n := 1 + rng.Intn(2000)
		rows := make(map[RID][]float64, n)
		for i := 0; i < n; i++ {
			row := make([]float64, w)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			rid, err := tb.Insert(row)
			if err != nil {
				return false
			}
			if _, dup := rows[rid]; dup {
				return false
			}
			rows[rid] = row
		}
		for rid, want := range rows {
			got, err := tb.Get(rid, nil)
			if err != nil {
				return false
			}
			for j := range want {
				if got[j] != want[j] {
					return false
				}
			}
		}
		return tb.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: after a random interleaving of inserts and deletes, Len() equals
// live count and Scan visits exactly the live RIDs.
func TestQuickDeleteConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(1)
		live := map[RID]bool{}
		var all []RID
		for i := 0; i < 3000; i++ {
			if len(all) > 0 && rng.Float64() < 0.3 {
				rid := all[rng.Intn(len(all))]
				if live[rid] {
					if err := tb.Delete(rid); err != nil {
						return false
					}
					live[rid] = false
				}
			} else {
				rid, err := tb.Insert([]float64{float64(i)})
				if err != nil {
					return false
				}
				all = append(all, rid)
				live[rid] = true
			}
		}
		count := 0
		for _, ok := range live {
			if ok {
				count++
			}
		}
		if tb.Len() != count {
			return false
		}
		seen := 0
		tb.Scan(func(rid RID, _ []float64) bool {
			if !live[rid] {
				return false
			}
			seen++
			return true
		})
		return seen == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tb := NewTable(4)
	row := []float64{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Insert(row); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValue(b *testing.B) {
	tb := NewTable(4)
	var rids []RID
	for i := 0; i < 100000; i++ {
		rid, _ := tb.Insert([]float64{float64(i), 0, 0, 0})
		rids = append(rids, rid)
	}
	buf := make([]float64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.ValueRun(rids[i%len(rids):][:1], 0, buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// A deleted row's slot is the next insert's: the table holds as many slots
// as it has had rows at once, however many it has been given.
func TestInsertReusesFreedSlots(t *testing.T) {
	const n = 3*BlockRows + 100
	tb := NewTable(2)
	rids := make([]RID, n)
	for i := range rids {
		rids[i], _ = tb.Insert([]float64{float64(i), 0})
	}
	blocks, size := len(tb.blocks), tb.SizeBytes()
	if tb.blocks[0].frames == nil || tb.blocks[3].frames != nil {
		t.Fatal("full blocks are not packed, or the filling one is")
	}
	// Rows refilled from anywhere in the table widen a packed block's key
	// codes to 3 bytes and the turn's to 1, so the bound after the
	// turnovers is the table as loaded with every packed block's rows 4
	// bytes wide.
	wide := size
	for _, b := range tb.blocks[:3] {
		wide += heapsize.Of(BlockRows*4, false) - heapsize.Of(cap(b.codes), false)
	}

	// A slot freed and not yet refilled is out of every scan and read.
	gone := []RID{rids[0], rids[BlockRows+7], rids[n-1]}
	for _, rid := range gone {
		if err := tb.Delete(rid); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Len() != n-3 || tb.Deleted() != 3 {
		t.Fatalf("after 3 deletes: len=%d deleted=%d", tb.Len(), tb.Deleted())
	}
	seen := map[RID]bool{}
	tb.Scan(func(rid RID, _ []float64) bool { seen[rid] = true; return true })
	pairs := 0
	tb.ScanPairs(0, 1, func(rid RID, _, _ float64) bool {
		if !seen[rid] {
			t.Fatalf("ScanPairs yields %v, Scan does not", rid)
		}
		pairs++
		return true
	})
	if len(seen) != n-3 || pairs != n-3 {
		t.Fatalf("Scan saw %d rows, ScanPairs %d, want %d", len(seen), pairs, n-3)
	}
	for _, rid := range gone {
		if seen[rid] {
			t.Fatalf("Scan yields the freed slot %v", rid)
		}
		if _, err := tb.Get(rid, nil); err != ErrTombstoned {
			t.Fatalf("Get of the freed slot %v: %v", rid, err)
		}
	}
	// The next three inserts take exactly those slots, and then the table
	// appends again.
	for i := 0; i < 3; i++ {
		rid, err := tb.Insert([]float64{-1, float64(i)})
		if err != nil || (rid != gone[0] && rid != gone[1] && rid != gone[2]) {
			t.Fatalf("insert %d went to %v (%v), not to a freed slot", i, rid, err)
		}
		if v, _ := value(tb, rid, 1); v != float64(i) {
			t.Fatalf("refilled slot %v reads %v", rid, v)
		}
		rids[int(rid.Block())*BlockRows+int(rid.Slot())] = rid
	}
	if tb.Len() != n || tb.Deleted() != 0 {
		t.Fatalf("after refilling: len=%d deleted=%d", tb.Len(), tb.Deleted())
	}
	if rid, _ := tb.Insert([]float64{-2, 0}); rid != MakeRID(3, 100) {
		t.Fatalf("insert into a table without free slots went to %v", rid)
	}
	tb.Delete(MakeRID(3, 100))

	// Ten turnovers of every row, in random order, a tenth of the table
	// free at a time: not one block more.
	rng := rand.New(rand.NewSource(1))
	const none = ^RID(0)
	refill := func(turn int) {
		for j := range rids {
			if rids[j] == none {
				rids[j], _ = tb.Insert([]float64{float64(j), float64(turn)})
			}
		}
	}
	for turn := 0; turn < 10; turn++ {
		for _, i := range rng.Perm(n) {
			if err := tb.Delete(rids[i]); err != nil {
				t.Fatalf("turn %d: delete %v: %v", turn, rids[i], err)
			}
			rids[i] = none
			if tb.Deleted() > n/10 {
				refill(turn)
			}
		}
		refill(turn)
	}
	if len(tb.blocks) != blocks || tb.Len() != n || tb.Deleted() != 1 {
		t.Fatalf("after 10 turnovers: %d blocks (was %d), len=%d deleted=%d", len(tb.blocks), blocks, tb.Len(), tb.Deleted())
	}
	if got := tb.SizeBytes(); got > wide+64 {
		t.Fatalf("SizeBytes %d after 10 turnovers, %d as loaded, %d with 4-byte packed rows", got, size, wide)
	}
	for j, rid := range rids {
		if v, err := value(tb, rid, 0); err != nil || v != float64(j) {
			t.Fatalf("row %d at %v reads %v (%v)", j, rid, v, err)
		}
	}
}

// TestWhollyFreeBlockGivesItsArrayBack: a block whose every row is deleted
// keeps its slot bookkeeping and drops its rows, codes and frames; SizeBytes
// says so, every read path still answers, and the inserts that follow land
// in the RIDs they always did — the top of the holes stack, lowest slot
// first — on a float64 array that packs again when the block is full.
func TestWhollyFreeBlockGivesItsArrayBack(t *testing.T) {
	const width, n = 3, 3 * BlockRows
	tb := NewTable(width)
	rids := make([]RID, n)
	for i := range rids {
		rids[i], _ = tb.Insert([]float64{float64(i), 1, 2})
	}
	loaded := tb.SizeBytes()
	b1 := tb.blocks[1]
	rowBytes := heapsize.Of(cap(b1.codes), false) + heapsize.Of(cap(b1.frames)*int(unsafe.Sizeof(frame{})), false)
	// Block 1 loses every row, in an order that is not slot order; blocks 0
	// and 2 one row each, before and after, so the holes stack reads 0, 1, 2.
	tb.Delete(rids[5])
	for _, i := range rand.New(rand.NewSource(1)).Perm(BlockRows) {
		if err := tb.Delete(rids[BlockRows+i]); err != nil {
			t.Fatal(err)
		}
	}
	tb.Delete(rids[2*BlockRows+9])
	if b := tb.blocks[1]; b.codes != nil || b.frames != nil || b.data != nil || tb.blocks[0].frames == nil || tb.blocks[2].frames == nil {
		t.Fatal("the wholly free block keeps its rows, or a block with rows lost its own")
	}
	if got, want := tb.SizeBytes(), loaded-rowBytes+heapsize.Of(cap(tb.holes)*4, false); got != want {
		t.Fatalf("SizeBytes %d with block 1 free, %d as loaded: want one row array less (%d)", got, loaded, want)
	}
	if _, err := tb.Get(rids[BlockRows], nil); err != ErrTombstoned {
		t.Fatalf("Get in the free block: %v", err)
	}
	if _, err := value(tb, rids[BlockRows+1], 0); !errors.Is(err, ErrTombstoned) {
		t.Fatalf("Value in the free block: %v", err)
	}
	if _, err := tb.GetRun(rids[BlockRows:BlockRows+2], nil); err == nil {
		t.Fatal("GetRun in the free block succeeds")
	}
	rows := 0
	tb.Scan(func(rid RID, _ []float64) bool {
		if rid.Block() == 1 {
			t.Fatalf("Scan yields %v from the free block", rid)
		}
		rows++
		return true
	})
	if rows != n-BlockRows-2 {
		t.Fatalf("Scan saw %d rows, want %d", rows, n-BlockRows-2)
	}
	// Refill: block 2's slot first (top of the stack), then block 1 lowest
	// slot first, then block 0's — the assignment of the parent commit.
	want := []RID{rids[2*BlockRows+9]}
	for s := 0; s < BlockRows; s++ {
		want = append(want, MakeRID(1, uint16(s)))
	}
	want = append(want, rids[5], MakeRID(3, 0))
	for i, w := range want {
		rid, err := tb.Insert([]float64{float64(i), 7, 8})
		if err != nil || rid != w {
			t.Fatalf("insert %d went to %v (%v), want %v", i, rid, err, w)
		}
		if v, err := value(tb, rid, 0); err != nil || v != float64(i) {
			t.Fatalf("refilled slot %v reads %v (%v)", rid, v, err)
		}
	}
	if got := tb.SizeBytes(); got < loaded {
		t.Fatalf("SizeBytes %d after the refill, %d as loaded", got, loaded)
	}
	// A block that was never full gives its array back too, and appends into
	// it afterwards.
	last := MakeRID(3, 0)
	tb.Delete(last)
	if tb.blocks[3].data != nil {
		t.Fatal("the one-row block keeps its array")
	}
	if rid, _ := tb.Insert([]float64{1, 2, 3}); rid != last {
		t.Fatalf("insert went to %v, want %v", rid, last)
	}
	if rid, _ := tb.Insert([]float64{4, 5, 6}); rid != MakeRID(3, 1) {
		t.Fatalf("append went to %v", rid)
	}
}
