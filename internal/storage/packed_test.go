package storage

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"hermit/internal/forcode"
	"hermit/internal/heapsize"
	"hermit/internal/keyorder"
)

// sameBits reports whether two rows hold the same float64s bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// oddValue draws a value of one of nine kinds: the ones a frame must not
// merge, round or lose (−0 beside +0, NaN payloads of both signs, ±Inf,
// subnormals, any bits at all) and the ones it codes in a byte or two
// (whole numbers, eighths, and negative eighths down from −0, whose frames
// lie below +0).
func oddValue(rng *rand.Rand, kind int) float64 {
	sign := uint64(rng.Intn(2)) << 63
	switch kind % 9 {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return math.Float64frombits(sign | 0x7ff0_0000_0000_0001 | rng.Uint64()&(1<<52-1))
	case 2:
		return math.Float64frombits(sign | 0x7ff0_0000_0000_0000)
	case 3:
		return math.Float64frombits(sign | rng.Uint64()&(1<<52-1))
	case 4:
		return float64(rng.Intn(1 << 20))
	case 5:
		return math.Float64frombits(rng.Uint64())
	case 6:
		return float64(rng.Intn(64)) / 8
	case 7:
		return -float64(rng.Intn(64)) / 8
	default:
		return 0
	}
}

// checkStore holds every read path of tb to model, bit for bit, the slots
// in gone to ErrTombstoned, and every block to the packing rule: a full
// block is packed, a wholly free one holds no rows.
func checkStore(t *testing.T, tb *Table, model map[RID][]float64, gone map[RID]bool) {
	t.Helper()
	width := tb.Width()
	rids := slices.Sorted(maps.Keys(model))
	if tb.Len() != len(rids) {
		t.Fatalf("Len %d, model %d", tb.Len(), len(rids))
	}
	slots := 0
	for bi, b := range tb.blocks {
		slots += b.used
		switch {
		case b.free == b.used && (b.data != nil || b.codes != nil || b.frames != nil):
			t.Fatalf("block %d has no live row and keeps its rows", bi)
		case b.used == BlockRows && b.free == 0 && b.frames == nil:
			t.Fatalf("block %d is full and not packed", bi)
		case b.frames != nil && b.data != nil:
			t.Fatalf("block %d is packed and holds float64s", bi)
		case b.x != nil && (len(b.x.slot) == 0 || !slices.IsSorted(b.x.slot)):
			t.Fatalf("block %d: exceptions %v empty or out of slot order", bi, b.x.slot)
		}
		// Every exception is a live row's marked code, and every marked code
		// of a live row has one.
		marks := 0
		for s := 0; s < b.used && b.frames != nil; s++ {
			if b.isDead(uint16(s)) {
				continue
			}
			row, fast := b.packed(s)
			for c := range b.frames {
				if f := &b.frames[c]; f.marked && f.code(row, fast) == f.mask {
					marks++
				}
			}
		}
		if marks != exceptions(b) {
			t.Fatalf("block %d: %d marked codes, %d exceptions", bi, marks, exceptions(b))
		}
	}
	if tb.Deleted() != slots-len(rids) {
		t.Fatalf("Deleted %d, want %d", tb.Deleted(), slots-len(rids))
	}
	buf := make([]float64, width)
	for _, rid := range rids {
		want := model[rid]
		if got, err := tb.Get(rid, buf); err != nil || !sameBits(got, want) {
			t.Fatalf("Get(%v) = %v, %v; want %v", rid, got, err, want)
		}
	}
	for c := range width {
		col, err := tb.ValueRun(rids, c, nil)
		if err != nil {
			t.Fatalf("ValueRun of column %d: %v", c, err)
		}
		for i, rid := range rids {
			if want := model[rid][c]; math.Float64bits(col[i]) != math.Float64bits(want) {
				t.Fatalf("ValueRun(%v, %d) = %v; want %v", rid, c, col[i], want)
			}
		}
	}
	for rid := range gone {
		if _, err := tb.Get(rid, buf); !errors.Is(err, ErrTombstoned) {
			t.Fatalf("Get of the freed slot %v: %v", rid, err)
		}
	}
	// GetRun in an order that is not RID order, each RID twice.
	run := append(slices.Clone(rids), rids...)
	rand.New(rand.NewSource(int64(len(run)))).Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
	flat, err := tb.GetRun(run, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rid := range run {
		if got := flat[i*width : (i+1)*width]; !sameBits(got, model[rid]) {
			t.Fatalf("GetRun row %d (%v) = %v, want %v", i, rid, got, model[rid])
		}
	}
	i := 0
	tb.Scan(func(rid RID, row []float64) bool {
		if i >= len(rids) || rid != rids[i] || !sameBits(row, model[rid]) {
			t.Fatalf("Scan yields %v %v at %d", rid, row, i)
		}
		i++
		return true
	})
	if i != len(rids) {
		t.Fatalf("Scan yields %d rows, want %d", i, len(rids))
	}
	for c := 0; c < width; c++ {
		i = 0
		tb.ScanColumn(c, func(rid RID, v float64) bool {
			if i >= len(rids) || rid != rids[i] || math.Float64bits(v) != math.Float64bits(model[rid][c]) {
				t.Fatalf("ScanColumn(%d) yields %v %v at %d", c, rid, v, i)
			}
			i++
			return true
		})
		if i != len(rids) {
			t.Fatalf("ScanColumn(%d) yields %d rows, want %d", c, i, len(rids))
		}
		// The bounds, by ColumnBounds' own comparisons in RID order.
		lo, hi, ok := math.Inf(1), math.Inf(-1), false
		for _, rid := range rids {
			v := model[rid][c]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			ok = true
		}
		if !ok {
			lo, hi = 0, 0
		}
		if glo, ghi, gok := tb.ColumnBounds(c); gok != ok || math.Float64bits(glo) != math.Float64bits(lo) || math.Float64bits(ghi) != math.Float64bits(hi) {
			t.Fatalf("ColumnBounds(%d) = %v, %v, %v; want %v, %v, %v", c, glo, ghi, gok, lo, hi, ok)
		}
	}
	i = 0
	target, host, key := width-1, 0, width/2
	tb.ScanKeyed(target, host, key, func(rid RID, m, n, k float64) bool {
		want := model[rid]
		if i >= len(rids) || rid != rids[i] || !sameBits([]float64{m, n, k}, []float64{want[target], want[host], want[key]}) {
			t.Fatalf("ScanKeyed yields %v (%v, %v, %v) at %d", rid, m, n, k, i)
		}
		i++
		return true
	})
	if i != len(rids) {
		t.Fatalf("ScanKeyed yields %d rows, want %d", i, len(rids))
	}
}

// exceptions is the number of exceptions block b holds.
func exceptions(b *block) int {
	if b.x == nil {
		return 0
	}
	return len(b.x.slot)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestPackedBlock: a full block packs; a refill whose values fit its frames
// writes their codes and leaves the frames as they were, one that does not
// fit keeps the frames too and holds the value as one exception, until the
// exceptions would take more than the repack that holds them adds; and
// every value — −0, NaN payloads, ±Inf, subnormals among them — reads back
// bit for bit on every path.
func TestPackedBlock(t *testing.T) {
	// A block of whole numbers: colA 0 to 4095, colB 0 to 7, colC 1000 on.
	load := func() (*Table, map[RID][]float64, map[RID]bool) {
		tb := NewTable(3)
		model := map[RID][]float64{}
		for i := 0; i < BlockRows+10; i++ {
			row := []float64{float64(i), float64(i % 8), float64(1000 + i)}
			rid, err := tb.Insert(row)
			if err != nil {
				t.Fatal(err)
			}
			model[rid] = row
		}
		if b := tb.blocks[0]; b.frames == nil || b.stride != 3+2+2 {
			t.Fatalf("full block's frames %+v: want packed in 7-byte rows", b.frames)
		}
		return tb, model, map[RID]bool{}
	}
	// refill frees slots of block 0 and inserts rows into them; it reports
	// whether the block was packed anew.
	refill := func(tb *Table, model map[RID][]float64, gone map[RID]bool, slots []int, rows ...[]float64) bool {
		b := tb.blocks[0]
		frames := &b.frames[0]
		for _, s := range slots[:len(rows)] {
			rid := MakeRID(0, uint16(s))
			if err := tb.Delete(rid); err != nil {
				t.Fatal(err)
			}
			delete(model, rid)
			gone[rid] = true
		}
		for _, row := range rows {
			rid, err := tb.Insert(row)
			if err != nil || rid.Block() != 0 {
				t.Fatalf("insert of %v went to %v (%v), not to block 0", row, rid, err)
			}
			model[rid] = row
			delete(gone, rid)
		}
		checkStore(t, tb, model, gone)
		return &b.frames[0] != frames
	}
	tb, model, gone := load()
	checkStore(t, tb, model, gone)
	// On the frames' grids and inside their ranges, or a little beyond.
	if refill(tb, model, gone, []int{700, 3}, []float64{5, 7, 4000}, []float64{4200, 0, 900}) || exceptions(tb.blocks[0]) != 0 {
		t.Fatal("refills that fit the frames packed the block anew or made exceptions")
	}
	for _, row := range [][]float64{
		{0.3, 1, 1000}, // off colA's grid of whole numbers
		{-1, 1, 1000},  // off it below +0
		{math.Float64frombits(0xfff8_dead_beef_0001), 1, 1000}, // a NaN far below
		{1e300, 1, 1000},                // above colA's range
		{5, math.Copysign(0, -1), 1000}, // −0 beside colB's +0
		{5, 1, math.Inf(1)},             // above colC's range
		{5, 1, math.Inf(-1)},            // below it
		{5, 1, math.NaN()},
		{5, 1, math.SmallestNonzeroFloat64},
		{5, 1, -math.SmallestNonzeroFloat64},
	} {
		tb, model, gone := load()
		b := tb.blocks[0]
		frames := slices.Clone(b.frames)
		if refill(tb, model, gone, []int{700}, row) || !slices.Equal(b.frames, frames) || exceptions(b) != 1 {
			t.Fatalf("refill %v: repacked or frames changed, %d exceptions; want the frames kept and one exception", row, exceptions(b))
		}
		// Deleting the row drops its exception.
		if err := tb.Delete(MakeRID(0, 700)); err != nil || exceptions(b) != 0 {
			t.Fatalf("delete of the refilled row: %v, %d exceptions left", err, exceptions(b))
		}
	}
	// Keys below +0 one after another: exceptions, until one more would cost
	// more than the repack that holds them adds; then the block packs anew.
	tb, model, gone = load()
	b := tb.blocks[0]
	stride, repacked := b.stride, -1
	for i := 0; i < BlockRows && repacked < 0; i++ {
		if refill(tb, model, gone, []int{i}, []float64{-float64(1 + i), 1, 1000}) {
			repacked = i
		} else if exceptions(b) != i+1 || b.stride != stride {
			t.Fatalf("far key %d: %d exceptions, stride %d", i, exceptions(b), b.stride)
		}
	}
	if repacked < 100 || exceptions(b) != 0 || b.stride <= stride {
		t.Fatalf("repacked at far key %d into %d-byte rows with %d exceptions; want after 100 or more, wider, none", repacked, b.stride, exceptions(b))
	}
}

// TestFrameSides: a column whose values lie on one side of +0 gets a frame
// that decodes without unrank, its unused codes kept on that side — a key
// column from +0 up, values down from −0 — and one that straddles +0 is
// mixed; every value reads back bit for bit, and a refill from across +0
// that the frame does not hold is one exception under the frame unchanged.
func TestFrameSides(t *testing.T) {
	for _, c := range []struct {
		name  string
		v     func(i int) float64
		mixed bool
	}{
		{"keys from +0", func(i int) float64 { return float64(i) }, false},
		{"keys of a million", func(i int) float64 { return float64(i * 251) }, false},
		{"eighths down from −0", func(i int) float64 { return -float64(i%64) / 8 }, false},
		{"below −0", func(i int) float64 { return -1 - float64(i) }, false},
		{"across +0", func(i int) float64 { return float64(i - 2048) }, true},
		{"−0 and +0", func(i int) float64 { return math.Copysign(0, float64(i%2)-0.5) }, true},
	} {
		tb := NewTable(1)
		model, gone := map[RID][]float64{}, map[RID]bool{}
		for i := 0; i < BlockRows; i++ {
			row := []float64{c.v(i)}
			rid, _ := tb.Insert(row)
			model[rid] = row
		}
		f := tb.blocks[0].frames[0]
		if f.mixed != c.mixed {
			t.Errorf("%s: frame %+v, mixed %v; want %v", c.name, f, f.mixed, c.mixed)
		}
		checkStore(t, tb, model, gone)
		rid := MakeRID(0, 9)
		tb.Delete(rid)
		row := []float64{-math.Copysign(3, c.v(9))}
		if again, _ := tb.Insert(row); again != rid {
			t.Fatalf("%s: refill went to %v", c.name, again)
		}
		model[rid] = row
		// A value from the other side of +0 does not fit a one-sided frame.
		// It is an exception when the frame is marked; a frame whose values
		// reach its top code has no mark, so the block packs anew, mixed.
		fits := f.fits(keyorder.RankBits(math.Float64bits(row[0])))
		if !c.mixed && fits {
			t.Errorf("%s: %v from across +0 fits a one-sided frame", c.name, row[0])
		}
		switch b := tb.blocks[0]; {
		case fits || f.marked:
			if want := btoi(!fits); b.frames[0] != f || exceptions(b) != want {
				t.Errorf("%s: refill %v: frame %+v, %d exceptions; want %+v, %d", c.name, row[0], b.frames[0], exceptions(b), f, want)
			}
		case !b.frames[0].mixed || exceptions(b) != 0:
			t.Errorf("%s: refill %v into an unmarked frame: frame %+v, %d exceptions; want packed anew, mixed", c.name, row[0], b.frames[0], exceptions(b))
		}
		checkStore(t, tb, model, gone)
	}
}

// FuzzRowStore runs a table through runs of inserts that fill and pack
// blocks, single rows of odd values, deletes scattered and of whole
// blocks, and the refills of the slots they free, and holds every read
// path to a map model, bit for bit, after each step that asks and at the
// end. Each op is two bytes: what to do and its argument.
func FuzzRowStore(f *testing.F) {
	f.Add([]byte{2, 0, 0xf4, 2, 80, 1, 1, 1, 2, 1, 3, 1, 5, 4, 0, 0, 0x3f, 4, 0})
	f.Add([]byte{0, 0, 0xf6, 3, 0, 0, 0x24, 4, 0, 2, 128, 0, 0x27, 4, 0})
	f.Add([]byte{1, 0, 0xf4, 2, 30, 0, 0x47, 2, 200, 0, 0x21, 4, 0, 3, 1, 1, 0, 1, 7})
	f.Add([]byte{3, 0, 0xf8, 2, 250, 1, 0, 1, 2, 1, 3, 0, 0x16, 0, 0x35, 4, 0})
	// A packed block of random bits, eighths of both signs and a column of
	// one value (w = 0); rows freed and refilled with one column far from
	// the frames — exceptions, and repacks where the far column is the one
	// of one value — deleted, refilled again until the exceptions overflow,
	// and checks between.
	f.Add([]byte{3, 0, 0xf5, 2, 40, 5, 31, 5, 63, 4, 0, 2, 60, 5, 95, 5, 127, 4, 0, 2, 40, 5, 159, 5, 191, 5, 223, 5, 255, 4, 0, 2, 128, 5, 31, 5, 63, 5, 95, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			return
		}
		width := 1 + int(data[0]%4)
		rng := rand.New(rand.NewSource(int64(data[0])))
		tb := NewTable(width)
		model, gone := map[RID][]float64{}, map[RID]bool{}
		insert := func(kind func(c int) int) {
			row := make([]float64, width)
			for c := range row {
				row[c] = oddValue(rng, kind(c))
			}
			rid, err := tb.Insert(row)
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := model[rid]; dup {
				t.Fatalf("insert went to the live row %v", rid)
			}
			model[rid] = row
			delete(gone, rid)
			if got, err := tb.Get(rid, nil); err != nil || !sameBits(got, row) {
				t.Fatalf("Get(%v) after insert = %v, %v; want %v", rid, got, err, row)
			}
		}
		remove := func(rid RID) {
			if err := tb.Delete(rid); err != nil {
				t.Fatal(err)
			}
			delete(model, rid)
			gone[rid] = true
		}
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], int(data[i+1])
			switch op % 6 {
			case 0: // a run of 1 + 300*(arg>>4) rows: below 9, kind arg&15 (the next for each column); above, any kind a row
				kind := arg & 15
				for n := 1 + 300*(arg>>4); n > 0; n-- {
					insert(func(c int) int {
						if kind < 9 {
							return kind + c
						}
						return rng.Intn(9)
					})
				}
			case 1: // one row of one kind
				insert(func(int) int { return arg })
			case 2: // delete each live row with probability arg/256
				for _, rid := range slices.Sorted(maps.Keys(model)) {
					if rng.Intn(256) < arg {
						remove(rid)
					}
				}
			case 3: // delete every row of one block
				if len(tb.blocks) > 0 {
					bi := uint64(arg % len(tb.blocks))
					for _, rid := range slices.Sorted(maps.Keys(model)) {
						if rid.Block() == bi {
							remove(rid)
						}
					}
				}
			case 4:
				checkStore(t, tb, model, gone)
			case 5: // refill free slots with copies of a row of their block, one column of each far from the frames
				for n := 1 + arg%32; n > 0 && len(tb.holes) > 0; n-- {
					bi := uint64(tb.holes[len(tb.holes)-1])
					row := make([]float64, width)
					for s := 0; s < tb.blocks[bi].used; s++ {
						if live, ok := model[MakeRID(bi, uint16(s))]; ok {
							copy(row, live)
							break
						}
					}
					row[(arg/32+n)%width] = farValue(rng, arg+n)
					rid, err := tb.Insert(row)
					if err != nil {
						t.Fatal(err)
					}
					model[rid] = row
					delete(gone, rid)
				}
			}
		}
		checkStore(t, tb, model, gone)
	})
}

// farValue draws a value far from the frames a block of oddValue's narrow
// kinds packs: keys far below +0 and far above, −0, NaN payloads, ±Inf and
// subnormals.
func farValue(rng *rand.Rand, kind int) float64 {
	switch kind % 6 {
	case 0:
		return -1e9 - float64(rng.Intn(1<<20))
	case 1:
		return 1e15 + float64(rng.Intn(1<<20))
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return math.Float64frombits(uint64(rng.Intn(2))<<63 | 0x7ff0_0000_0000_0001 | rng.Uint64()&(1<<52-1))
	case 4:
		return math.Inf(1 - 2*rng.Intn(2))
	default:
		return math.Float64frombits(rng.Uint64() & (1<<52 - 1))
	}
}

// synRow is a row shaped like the benchmark's: key k, colB a sigmoid of
// colC, colC on a grid of 2^22 points over [0, 1000), colD uniform.
func synRow(rng *rand.Rand, k float64) []float64 {
	c := float64(rng.Intn(1<<22)) * (1000.0 / (1 << 22))
	return []float64{k, 10000 / (1 + math.Exp(-(c-500)/(1000.0/12))), c, rng.Float64()}
}

// tightCodes is the heap of the codes array a repack of b's live rows
// would take: the tightest frame of each column.
func tightCodes(b *block) uint64 {
	stride := 0
	for c := range b.frames {
		first, lo, hi, diff := true, uint64(0), uint64(0), uint64(0)
		for s := 0; s < b.used; s++ {
			if b.isDead(uint16(s)) {
				continue
			}
			r := b.rank(s, c)
			if first {
				first, lo, hi = false, r, r
			}
			diff |= r ^ lo
			lo, hi = min(lo, r), max(hi, r)
		}
		_, w := forcode.Derive(lo, hi, diff)
		stride += int(w)
	}
	return heapsize.Of(BlockRows*stride, false)
}

// churn plays writes on tb, whose live keys are keys: per four writes, two
// inserts under fresh keys, a delete and the insert of the same key, and a
// delete, n writes in all. It returns the live keys' RIDs updated.
func churn(t testing.TB, tb *Table, rng *rand.Rand, rids map[float64]RID, next *float64, n int) {
	t.Helper()
	keys := slices.Sorted(maps.Keys(rids))
	del := func() float64 {
		for {
			i := rng.Intn(len(keys))
			k := keys[i]
			if _, ok := rids[k]; !ok {
				continue
			}
			if err := tb.Delete(rids[k]); err != nil {
				t.Fatal(err)
			}
			delete(rids, k)
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			return k
		}
	}
	ins := func(k float64) {
		rid, err := tb.Insert(synRow(rng, k))
		if err != nil {
			t.Fatal(err)
		}
		rids[k] = rid
		keys = append(keys, k)
	}
	for i := 0; i < n; i += 4 {
		del()
		ins(del())
		ins(*next)
		ins(*next + 1)
		*next += 2
	}
}

// TestRefillKeepsFrames: blocks loaded in key order keep their set-up
// codes arrays through a write mix like the benchmark's over 5 % of the rows —
// the rows under fresh keys are exceptions — and when 70 % of the rows turn
// over no block holds exceptions that take more than a repack of its live
// rows would add. (A block may repack in the mix where the wider rows fit
// the pages its codes already take: the break-even rule repacks when that
// costs no heap.)
func TestRefillKeepsFrames(t *testing.T) {
	const blocks = 64
	rng := rand.New(rand.NewSource(1))
	tb := NewTable(4)
	rids := map[float64]RID{}
	for i := 0; i < blocks*BlockRows; i++ {
		rid, _ := tb.Insert(synRow(rng, float64(i)))
		rids[float64(i)] = rid
	}
	loaded := make([]uint64, blocks)
	for bi, b := range tb.blocks {
		loaded[bi] = heapsize.Of(len(b.codes), false)
	}
	next := float64(1 << 20)
	churn(t, tb, rng, rids, &next, blocks*BlockRows/20)
	patched := 0
	for bi, b := range tb.blocks[:blocks] {
		if got := heapsize.Of(len(b.codes), false); got != loaded[bi] {
			t.Errorf("block %d: %d B of codes after the write mix, %d as loaded", bi, got, loaded[bi])
		}
		patched += btoi(b.x != nil)
	}
	if patched < blocks/2 {
		t.Errorf("%d of %d blocks hold exceptions after the write mix", patched, blocks)
	}
	check := func() {
		model := map[RID][]float64{}
		buf := make([]float64, 4)
		for k, rid := range rids {
			row, err := tb.Get(rid, buf)
			if err != nil || row[0] != k {
				t.Fatalf("key %v at %v reads %v (%v)", k, rid, row, err)
			}
			model[rid] = slices.Clone(row)
		}
		checkStore(t, tb, model, nil)
	}
	check()
	churn(t, tb, rng, rids, &next, blocks*BlockRows*7/10)
	check()
	for bi, b := range tb.blocks {
		if b.x == nil {
			continue
		}
		if have, tight := heapsize.Of(len(b.codes), false)+b.x.heap(0), tightCodes(b); have > tight {
			t.Errorf("block %d: codes and %d exceptions take %d B, a repack %d", bi, len(b.x.slot), have, tight)
		}
	}
}

// TestRepackAllocates: a repack transcodes the old codes and exceptions
// into the new codes array: the array and the frames are all it allocates.
func TestRepackAllocates(t *testing.T) {
	tb := NewTable(4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < BlockRows+1; i++ {
		tb.Insert(synRow(rng, float64(i)))
	}
	b := tb.blocks[0]
	frames := heapsize.Of(len(b.frames)*int(unsafe.Sizeof(frame{})), false)
	var before, after runtime.MemStats
	for s := 0; s < BlockRows; s++ {
		tb.Delete(MakeRID(0, uint16(s)))
		stride, row := b.stride, synRow(rng, float64(1<<40+s))
		runtime.ReadMemStats(&before)
		tb.Insert(row)
		runtime.ReadMemStats(&after)
		if b.stride != stride {
			if got, want := after.TotalAlloc-before.TotalAlloc, heapsize.Of(BlockRows*b.stride, false)+frames; got > want {
				t.Fatalf("the repack into %d-byte rows allocated %d B, want at most %d", b.stride, got, want)
			}
			return
		}
	}
	t.Fatal("no repack")
}

// TestHeapMatchesSizeBytes: on a table whose blocks hold exceptions,
// SizeBytes is what the heap holds, to within 2 %.
func TestHeapMatchesSizeBytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle frees what sync.Pools kept as victims
	runtime.ReadMemStats(&before)
	rng := rand.New(rand.NewSource(2))
	tb := NewTable(4)
	rids := map[float64]RID{}
	for i := 0; i < 32*BlockRows; i++ {
		rid, _ := tb.Insert(synRow(rng, float64(i)))
		rids[float64(i)] = rid
	}
	next := float64(1 << 20)
	churn(t, tb, rng, rids, &next, 32*BlockRows/10)
	rids = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap, size := float64(after.HeapAlloc-before.HeapAlloc), float64(tb.SizeBytes())
	t.Logf("heap %.0f B, SizeBytes %.0f B", heap, size)
	if size < 0.98*heap || size > 1.02*heap {
		t.Errorf("SizeBytes %.0f B, the heap holds %.0f", size, heap)
	}
	runtime.KeepAlive(tb)
}

// synthetic is a 1M-row table shaped like the paper's Synthetic one: colA
// the key, colB a sigmoid of colC (one row in a hundred noise), colC on a
// grid of 2^22 points over [0, 1000), colD uniform in [0, 1).
var synthetic = sync.OnceValue(func() *Table {
	const rows = 1 << 20
	rng := rand.New(rand.NewSource(1))
	tb := NewTable(4)
	for i := 0; i < rows; i++ {
		c := float64(rng.Intn(1<<22)) * (1000.0 / (1 << 22))
		b := 10000 / (1 + math.Exp(-(c-500)/(1000.0/12)))
		if rng.Intn(100) == 0 {
			b = rng.Float64() * 12000
		}
		tb.Insert([]float64{float64(i), b, c, rng.Float64()})
	}
	return tb
})

// BenchmarkGetRun reads runs of 200 rows of the 1M-row Synthetic table:
// sorted, as the RIDs of a range's candidates come, and in random order;
// and, churned, random runs of a table of the benchmark's shape after the
// write mix of TestRefillKeepsFrames over 5 % of its rows, whose blocks
// hold exceptions. A run into a sized dst allocates nothing.
func BenchmarkGetRun(b *testing.B) {
	tb := synthetic()
	rng := rand.New(rand.NewSource(2))
	const runs, run = 1024, 200
	all := make([][]RID, runs)
	for i := range all {
		all[i] = make([]RID, run)
		for j := range all[i] {
			all[i][j] = MakeRID(uint64(rng.Intn(tb.Len()/BlockRows)), uint16(rng.Intn(BlockRows)))
		}
	}
	dst := make([]float64, run*tb.Width())
	for _, order := range []string{"random", "sorted"} {
		if order == "sorted" {
			for _, r := range all {
				slices.Sort(r)
			}
		}
		b.Run(order, func(b *testing.B) {
			if a := testing.AllocsPerRun(10, func() { tb.GetRun(all[0], dst) }); a != 0 {
				b.Fatalf("GetRun into a sized dst allocates %v times", a)
			}
			i := 0
			for b.Loop() {
				var err error
				if dst, err = tb.GetRun(all[i%runs], dst); err != nil {
					b.Fatal(err)
				}
				i++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*run), "ns/row")
		})
	}
	b.Run("churned", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		tb := NewTable(4)
		rids := map[float64]RID{}
		for i := 0; i < 1<<20; i++ {
			rid, _ := tb.Insert(synRow(rng, float64(i)))
			rids[float64(i)] = rid
		}
		next := float64(1 << 21)
		churn(b, tb, rng, rids, &next, 1<<20/20)
		live := slices.Collect(maps.Values(rids))
		for _, r := range all {
			for j := range r {
				r[j] = live[rng.Intn(len(live))]
			}
		}
		if a := testing.AllocsPerRun(10, func() { tb.GetRun(all[0], dst) }); a != 0 {
			b.Fatalf("GetRun into a sized dst allocates %v times", a)
		}
		i := 0
		for b.Loop() {
			var err error
			if dst, err = tb.GetRun(all[i%runs], dst); err != nil {
				b.Fatal(err)
			}
			i++
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*run), "ns/row")
	})
}

// BenchmarkScanKeyed is the scan a Hermit index builds from: (colC, colB,
// colA) of every row of the 1M-row Synthetic table.
func BenchmarkScanKeyed(b *testing.B) {
	tb := synthetic()
	var sum float64
	for b.Loop() {
		tb.ScanKeyed(2, 1, 0, func(_ RID, m, n, k float64) bool {
			sum += m + n + k
			return true
		})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tb.Len()), "ns/row")
	if math.IsNaN(sum) {
		b.Fatal("NaN in the sum")
	}
}
