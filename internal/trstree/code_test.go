package trstree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"hermit/internal/forcode"
	"hermit/internal/keyorder"
)

// FuzzOutlierCode holds the outlier record to its contract. A leaf over a
// span — edge-extended or not; an edge leaf's grid first fitted to m, as
// an insert fits it (nodes.mark) — holds records coded from m, with the
// fuzzed id beside ids that set the arena's width w (1–8 bytes), repeated
// up to 72 records, and then a full-width id; a lookup scans it for the
// predicate [qlo, qhi] as lookupNode does:
//
//   - an exact qlo ≤ m ≤ qhi returns the record (no false negative);
//   - the record is returned exactly when code(olo) ≤ code(m) ≤ code(ohi);
//   - a NaN m is returned by no query;
//   - over a finite span of positive width, a returned finite m inside
//     the span lies within one sub-range (one slot of an edge leaf's
//     grid) of the predicate clamped to the span (subRangeSlack);
//   - a scan into a fresh Result (chunks of the stack buffer) and into one
//     with room (in place) return the same ids;
//   - every id reads back as written, at width w and after the arena
//     widens to 8 bytes.
func FuzzOutlierCode(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	tiny := math.SmallestNonzeroFloat64
	for _, c := range [][5]float64{
		{0, 125, 62.5, 62.5, 62.5},
		{0, 125, 62.5, 62.5 + 3*125.0/codeRanges, 70}, // a sub-range apart
		{0, 125, 62.5, 62.5 - 3*125.0/codeRanges, 62.5 - 3*125.0/codeRanges},
		{1000 - 0x1p-40, 1000, 1000, 999, 1000},
		{0, 1000, 1000, 1000, 1000},                       // m at hi
		{0, 1000, math.Nextafter(1000, inf), 1000, 1000},  // m just above hi
		{0, 1000, math.Nextafter(1000, inf), 1001, 2000},  // a query above the span
		{0, 1000, 999.99, math.Nextafter(1000, inf), inf}, // m in the last sub-range
		{0, 1, 1e300, 1e300, 1e300},
		{0, 1, -1e300, -1e300, -1e300},
		{-1e308, 1e308, math.MaxFloat64, math.MaxFloat64, inf}, // a width that overflows
		{-1e308, 1e308, -math.MaxFloat64, -inf, -math.MaxFloat64},
		{-1e300, 1e300, math.MaxFloat64, 1e300, 1e300}, // m − lo overflows
		{0, 1, inf, 5, inf},
		{0, 1, -inf, -inf, -inf},
		{0, 1, math.Copysign(0, -1), 0, 0},
		{0, 1, 0, math.Copysign(0, -1), math.Copysign(0, -1)},
		{0, 1, tiny, 0, tiny},
		{0, 1, -tiny, -tiny, 0},
		{1e-310, 1, 2e-310, 2e-310, 2e-310},
		{0, 100_000 * tiny, 99_999 * tiny, 99_990 * tiny, 99_990 * tiny}, // a subnormal width
		{0, 30_000 * tiny, 7 * tiny, 8 * tiny, 9 * tiny},                 // sub-ranges that round to 0
		{5, 5, 5, 5, 5}, // a span of no width
		{5, 5, 6, 4, 4.5},
		{0, 1, nan, -inf, inf},
		{0, 1, 0.5, nan, 1}, // a NaN bound
		{0, 1, 0.5, 0, nan},
		{-inf, inf, 3, -inf, 5},
		{-inf, inf, -inf, -inf, -inf},
		{-inf, 0, -1, -2, -1},
		{0, inf, inf, 1, inf},
		{nan, nan, 7, 7, 7},
		{0, 1000, 5e38, 4e38, 6e38},
	} {
		for w := range uint8(8) {
			// An id as wide as the width, its largest id and 0.
			for _, id := range []uint64{0x0123456789abcdef >> (8 * w), math.MaxUint64, 0} {
				f.Add(c[0], c[1], c[2], c[3], c[4], id, w, w%4|w*11<<2)
			}
		}
	}
	f.Fuzz(func(t *testing.T, lo, hi, m, qlo, qhi float64, id uint64, ws, edges uint8) {
		s := span{lo: lo, hi: hi, left: edges&1 != 0, right: edges&2 != 0}
		w := 1 + ws%8
		id &= forcode.Mask(w)
		n := &nodes{leaves: make([]leaf, 1)}
		l := &n.leaves[0]
		var ids []uint64
		for range 1 + edges>>2%24 {
			ids = append(ids, 1<<(8*(w-1)), id, 0) // the first sets the width
		}
		d := n.mark(l, s, m)
		for _, x := range ids {
			n.addOutlier(l, d, x)
		}
		if n.w != w {
			t.Fatalf("ids %x: width %d, want %d", ids, n.w, w)
		}
		checkIDs := func() {
			t.Helper()
			for i, x := range ids {
				if got := n.id(uint32(i)); got != x {
					t.Fatalf("record %d at width %d: id %x, want %x", i, n.w, got, x)
				}
				if got := n.code(uint32(i)); got != d {
					t.Fatalf("record %d at width %d: code %d, want %d", i, n.w, got, d)
				}
			}
		}
		checkIDs()

		olo, ohi := math.Max(qlo, s.effectiveLo()), math.Min(qhi, s.effectiveHi())
		if olo <= ohi {
			dlo, dhi := n.codeAt(s, olo), n.codeAt(s, ohi)
			fresh := n.matches(nil, l, dlo, dhi)
			if roomy := n.matches(make([]uint64, 0, len(ids)), l, dlo, dhi); !slices.Equal(fresh, roomy) {
				t.Fatalf("a fresh result gets %x, one with room %x", fresh, roomy)
			}
			if len(fresh) != 0 && !slices.Equal(fresh, ids) {
				t.Fatalf("records of one code matched in part: %x of %x", fresh, ids)
			}
			got := len(fresh) != 0
			rule := dlo <= d && d <= dhi
			switch {
			case got != rule:
				t.Fatalf("m %v over [%v, %v]: code %d, query [%v, %v] matched %v, the rule says %v", m, lo, hi, d, olo, ohi, got, rule)
			case olo <= m && m <= ohi && !got:
				t.Fatalf("m %v over [%v, %v]: code %d missed by query [%v, %v]", m, lo, hi, d, olo, ohi)
			case math.IsNaN(m) && got:
				t.Fatalf("a NaN m matched query [%v, %v]", olo, ohi)
			}
			if slack, ok := subRangeSlack(n, s); ok && got && lo <= m && m <= hi {
				clo, chi := min(max(olo, lo), hi), max(min(ohi, hi), lo)
				if m < clo-slack || m > chi+slack {
					t.Fatalf("m %v over [%v, %v] matched query [%v, %v], more than a sub-range (%v) away", m, lo, hi, olo, ohi, slack)
				}
			}
		}

		ids = append(ids, math.MaxUint64)
		n.addOutlier(l, d, math.MaxUint64)
		checkIDs()
	})
}

// subRangeSlack bounds how far a value of the sub-range a code stands for
// lies from another of that sub-range in a span with finite bounds and a
// finite, positive width: the computed sub-range width (an edge leaf's
// slot width on its grid), a 2⁻³⁰ of it for the roundings of the code's
// arithmetic, and codeRanges smallest subnormals for the last sub-range,
// which ends at hi and so takes up what the rounding of the width left
// over (a width that rounds to 0 codes every value to 0, and the span
// itself is below that slack).
func subRangeSlack(n *nodes, s span) (float64, bool) {
	w, d := s.width(codeRanges), s.hi-s.lo
	if math.IsInf(s.lo, 0) || math.IsInf(s.hi, 0) || math.IsInf(d, 0) || !(d > 0) {
		return 0, false
	}
	if g := n.gridOf(s); g != nil {
		w = math.Ldexp(s.baseWidth(), int(g.shift))
	}
	return w + w*0x1p-30 + codeRanges*math.SmallestNonzeroFloat64, true
}

// FuzzEdgeGrid writes outliers of the values data holds — each 8 bytes
// the bits of a float64, or, with scale > 0, a step of up to scale times
// the span's width past the last — into the one leaf of a tree built over
// [lo, hi] on no pair, whose grid each value beyond its window moves:
//
//   - every record's code is the code its value has on the leaf's grid
//     now (the recoding of a move is exact);
//   - a lookup of [qlo, qhi], and a point lookup of every value written,
//     returns every record whose value it holds (no false negative);
//   - the grid's window holds every value some window holds.
func FuzzEdgeGrid(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	le := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	steps := make([]byte, 64)
	for i := range steps {
		steps[i] = byte(i*37 + 11)
	}
	for _, c := range []struct {
		lo, hi, qlo, qhi, scale float64
		data                    []byte
	}{
		{0, 1, 0, 1, 0, le(0.5, 2, 1000, -3, 1e6, 0.25)}, // an index created on an empty table
		{0, 1000, 1500, 1600, 3, steps},                  // rows appended past the largest
		{0, 1000, -1e9, -1, -3, steps},                   // and below the least
		{5, 5, 5, 6, 0, le(5, 6, 4, 1e300, -1e300)},      // a span of no width
		{0, 1, 1, inf, 0, le(inf, 2, -inf, nan, 3, math.MaxFloat64)},
		{-1e308, 1e308, 0, inf, 0, le(math.MaxFloat64, -math.MaxFloat64, 1, 0)},
		{0, 0x1p-1070, 0, 1, 0, le(1e-300, 1, 1e300, 0x1p-1073)}, // a subnormal width
		{1e-300, 2e-300, -1, 0, 0, le(-1e-300, -0x1p-1074, math.Copysign(0, -1), 1)},
		{0, 1, 0.999, 1.001, 0, le(1, math.Nextafter(1, inf), 2, 4, 8, 16)},
		// a slot below 0 whose quotient underflows to −0 once the grid
		// has moved a thousand steps
		{0, 65532e-10, -1e-310, -1e-310, 0, le(-1e-310, 1e290)},
	} {
		f.Add(c.lo, c.hi, c.qlo, c.qhi, c.scale, c.data)
	}
	f.Fuzz(func(t *testing.T, lo, hi, qlo, qhi, scale float64, data []byte) {
		if !(lo <= hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) || len(data) > 8*256 {
			return
		}
		tr, err := Build(nil, lo, hi, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		var ms []float64
		last := hi
		for ; len(data) >= 8; data = data[8:] {
			x := binary.LittleEndian.Uint64(data)
			m := math.Float64frombits(x)
			if scale != 0 && !math.IsNaN(scale) && !math.IsInf(scale, 0) {
				m = last + scale*(hi-lo+1)*float64(x>>11)/(1<<53)
				last = m
			}
			tr.Insert(m, 0, uint64(len(ms)))
			ms = append(ms, m)
		}
		s := tr.rootSpan()
		l := &tr.leaves[tr.root.slot()]
		if int(l.n) != len(ms) {
			t.Fatalf("%d records of %d writes", l.n, len(ms))
		}
		g := *tr.gridOf(s)
		for i := l.off; i < l.off+l.n; i++ {
			m := ms[tr.id(i)]
			if got, want := tr.code(i), s.gridCode(g, m); got != want {
				t.Fatalf("m %v over [%v, %v] on grid %+v: code %d, its value codes %d", m, lo, hi, g, got, want)
			}
			if s.fit(g, m) != g {
				t.Fatalf("m %v over [%v, %v]: grid %+v left it outside its window", m, lo, hi, g)
			}
		}
		check := func(a, b float64) {
			got := tr.Lookup(a, b).IDs
			for i, m := range ms {
				if m >= a && m <= b && !slices.Contains(got, uint64(i)) {
					t.Fatalf("Lookup(%v, %v) over [%v, %v] on grid %+v misses m %v", a, b, lo, hi, g, m)
				}
			}
		}
		check(qlo, qhi)
		for _, m := range ms {
			check(m, m)
		}
	})
}

// TestOutlierIDWidening writes outliers with ids that need 3, 4, 6 and 8
// bytes into live trees of many leaves, interleaved with lookups and deletes,
// against an exact shadow list: every lookup returns a superset of the
// shadow's matching ids, every delete removes exactly one record, the
// arena is as wide as its widest id and widens at most 8 times, and
// SizeBytes is what the heap holds for the trees to within 3 %, once all
// widths are in and once the added outliers are deleted again.
//
// One phase takes the logical ids of the whole keys above the build's
// (hermit.LogicalID), which are the keys themselves; another those of
// fractional keys, which are their 8-byte ranks.
func TestOutlierIDWidening(t *testing.T) {
	const trees, perWidth = 6, 1500
	type phase struct {
		id func(i uint64) uint64
		w  uint8 // the arena's width once the phase's ids are in
	}
	from := func(base uint64) func(uint64) uint64 { return func(i uint64) uint64 { return base + i } }
	// Build ids run to 200k: the arena starts 3 bytes wide.
	phases := []phase{
		{from(200_001), 3}, // the logical ids of the next whole keys
		{from(1 << 24), 4},
		{from(1 << 40), 6},
		{func(i uint64) uint64 { return keyorder.Rank(float64(i) + 0.5) }, 8},
		{from(math.MaxUint64 - perWidth), 8},
	}
	src := genBenchmarkShape(200_000)
	pairs := make([]Pair, len(src))
	shadows := make([][]Pair, trees)
	for i := range shadows {
		shadows[i] = make([]Pair, 0, len(phases)*perWidth)
	}
	res := Result{IDs: make([]uint64, 0, 1<<16), Ranges: make([]Range, 0, 1<<12)}
	rng := rand.New(rand.NewSource(44))
	kept := make([]*Tree, 0, trees)
	built := make([]int, trees)
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	check := func(what string) {
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		heap := after.HeapAlloc - before.HeapAlloc
		var size uint64
		for _, tr := range kept {
			size += tr.SizeBytes()
		}
		t.Logf("%s: heap %d B, SizeBytes %d B for %d trees", what, heap, size, trees)
		if d := math.Abs(float64(heap)-float64(size)) / float64(size); d > 0.03 {
			t.Errorf("%s: heap %d B is %.1f%% away from SizeBytes %d B", what, heap, d*100, size)
		}
	}
	lookup := func(tr *Tree, shadow []Pair) {
		a := rng.Float64()*1100 - 50
		b := a + []float64{0, 0.2, 20}[rng.Intn(3)]
		if len(shadow) > 0 && rng.Intn(2) == 0 {
			a = shadow[rng.Intn(len(shadow))].M
			b = a
		}
		tr.LookupInto(a, b, &res)
		slices.Sort(res.IDs)
		for _, p := range shadow {
			if _, ok := slices.BinarySearch(res.IDs, p.ID); p.M >= a && p.M <= b && !ok {
				t.Fatalf("Lookup(%v, %v) misses id %#x at m %v", a, b, p.ID, p.M)
			}
		}
	}
	del := func(tr *Tree, shadow *[]Pair) {
		j := rng.Intn(len(*shadow))
		p := (*shadow)[j]
		(*shadow)[j] = (*shadow)[len(*shadow)-1]
		*shadow = (*shadow)[:len(*shadow)-1]
		k := tr.OutlierCount()
		tr.Delete(p.M, p.N, p.ID)
		if got := tr.OutlierCount(); got != k-1 {
			t.Fatalf("deleting id %#x at m %v: %d records left of %d", p.ID, p.M, got, k)
		}
	}
	for x := range trees {
		copy(pairs, src)
		tr, err := Build(pairs, 1, 0, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, tr)
		if tr.LeafCount() < 256 || tr.w != 3 {
			t.Fatalf("built %d leaves, ids %d bytes wide: want hundreds of leaves and 3", tr.LeafCount(), tr.w)
		}
		built[x] = tr.OutlierCount()
		shadow := &shadows[x]
		widenings := 0
		for _, ph := range phases {
			for i := range uint64(perWidth) {
				// Host values lie in [0, 12000]: 1e9 is off every model.
				p := Pair{M: rng.Float64()*1100 - 50, N: 1e9, ID: ph.id(i)}
				was := tr.w
				tr.Insert(p.M, p.N, p.ID)
				switch {
				case tr.w < was:
					t.Fatalf("id %#x narrowed the arena from %d to %d bytes", p.ID, was, tr.w)
				case tr.w > was:
					widenings++
				}
				*shadow = append(*shadow, p)
				if i%4 == 0 {
					lookup(tr, *shadow)
				}
				if i%3 == 0 {
					del(tr, shadow)
				}
			}
			if tr.w != ph.w {
				t.Fatalf("ids from %#x: width %d, want %d", ph.id(0), tr.w, ph.w)
			}
			checkArena(t, &tr.nodes)
		}
		if widenings > 8 {
			t.Fatalf("the arena widened %d times, more than its 8 widths", widenings)
		}
	}
	check("widened")
	for x, tr := range kept {
		shadow := &shadows[x]
		for len(*shadow) > 0 {
			if len(*shadow)%50 == 0 {
				lookup(tr, *shadow)
			}
			del(tr, shadow)
		}
		if got := tr.OutlierCount(); got != built[x] {
			t.Fatalf("%d records after every added one was deleted, want the %d built", got, built[x])
		}
		checkArena(t, &tr.nodes)
	}
	check("drained")
	runtime.KeepAlive(src)
	runtime.KeepAlive(pairs)
	runtime.KeepAlive(shadows)
	runtime.KeepAlive(res)
}

// BenchmarkLookupOutlierHeavy times lookups in the shape durable-write's
// tree ends its run in: 512 leaves over the benchmark's 200k-row table,
// about 134 outliers each, queried by points and by ranges of the
// benchmark's selectivity (0.2 of 1000). Its ids are row ids, and as well
// the logical ids of the table's whole keys (hermit.LogicalID), which are
// the same numbers.
func BenchmarkLookupOutlierHeavy(b *testing.B) {
	tr, err := Build(genBenchmarkShape(200_000), 1, 0, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := range 134*tr.LeafCount() - tr.OutlierCount() {
		tr.Insert(rng.Float64()*1000, 1e9, uint64(200_000+i))
	}
	qs := make([]float64, 4096)
	for i := range qs {
		qs[i] = rng.Float64() * 1000
	}
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := qs[i%len(qs)]
		tr.LookupInto(lo, lo+0.2*float64(i&1), &res)
	}
}
