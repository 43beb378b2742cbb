package storage

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
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
		for c := range want {
			if got, err := tb.Value(rid, c); err != nil || math.Float64bits(got) != math.Float64bits(want[c]) {
				t.Fatalf("Value(%v, %d) = %v, %v; want %v", rid, c, got, err, want[c])
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

// TestPackedBlock: a full block packs; a refill whose values fit its frames
// writes their codes and leaves the frames as they were, one that does not
// fit packs the block anew; and every value — −0, NaN payloads, ±Inf,
// subnormals among them — reads back bit for bit on every path.
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
	// refill frees slot 700 and 3 of block 0 and inserts rows into them; it
	// reports whether the block was packed anew.
	refill := func(tb *Table, model map[RID][]float64, gone map[RID]bool, rows ...[]float64) bool {
		b := tb.blocks[0]
		frames := &b.frames[0]
		for _, s := range []int{700, 3}[:len(rows)] {
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
	if refill(tb, model, gone, []float64{5, 7, 4000}, []float64{4200, 0, 900}) {
		t.Fatal("refills that fit the frames packed the block anew")
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
		if !refill(tb, model, gone, row) {
			t.Fatalf("refill %v does not fit the frames and did not pack the block anew", row)
		}
	}
}

// TestFrameSides: a column whose values lie on one side of +0 gets a frame
// that decodes without unrank, its unused codes kept on that side — a key
// column from +0 up, values down from −0 — and one that straddles +0 is
// mixed; every value reads back bit for bit, and a refill from across +0
// packs the block anew into a mixed frame.
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
		if f := tb.blocks[0].frames[0]; f.mixed != c.mixed {
			t.Errorf("%s: frame %+v, mixed %v; want %v", c.name, f, f.mixed, c.mixed)
		}
		checkStore(t, tb, model, gone)
		// A value from the other side of +0 does not fit a one-sided frame.
		rid := MakeRID(0, 9)
		tb.Delete(rid)
		row := []float64{-math.Copysign(3, c.v(9))}
		if again, _ := tb.Insert(row); again != rid {
			t.Fatalf("%s: refill went to %v", c.name, again)
		}
		model[rid] = row
		if !tb.blocks[0].frames[0].mixed {
			t.Errorf("%s: refill %v from across +0 left the frame one-sided", c.name, row[0])
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
			switch op % 5 {
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
			}
		}
		checkStore(t, tb, model, gone)
	})
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
// sorted, as the RIDs of a range's candidates come, and in random order.
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
