package trstree

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// nextUp32 is the least float32 above d (+Inf for +Inf and MaxFloat32).
func nextUp32(d float32) float32 { return math.Nextafter32(d, float32(math.Inf(1))) }

// FuzzOutlierCode holds the outlier record to its contract. A leaf over a
// span — edge-extended or not — holds records coded from m, with the
// fuzzed id beside ids that set the arena's width w (1–8 bytes), repeated
// up to 72 records, and then a full-width id; a lookup scans it for the
// predicate [qlo, qhi] as lookupNode does:
//
//   - an exact qlo ≤ m ≤ qhi returns the record (no false negative);
//   - the record is returned exactly when d ≤ ohi − lo and olo − lo ≤
//     nextUp32(d), the rule the lookup's float32 bounds stand for;
//   - a NaN m is returned by no query;
//   - a scan into a fresh Result (chunks of the stack buffer) and into one
//     with room (in place) return the same ids;
//   - every id reads back as written, at width w and after the arena
//     widens to 8 bytes.
func FuzzOutlierCode(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	nearUp := 1 + 0x1p-23 - 0x1p-30 // rounds up to the nearest float32
	for _, c := range [][5]float64{
		{0, 125, 62.5, 62.5, 62.5},
		{0, 125, nearUp, nearUp, nearUp},
		{0, 125, nearUp, 0, nearUp},
		{-nearUp, 125, 0, 0, 0},
		{1000 - 0x1p-40, 1000, 1000, 999, 1000},
		{0, 1, 1e300, 1e300, 1e300},
		{0, 1, -1e300, -1e300, -1e300},
		{-1e308, 1e308, math.MaxFloat64, math.MaxFloat64, inf},
		{-1e308, 1e308, -math.MaxFloat64, -inf, -math.MaxFloat64},
		{0, 1, inf, 5, inf},
		{0, 1, -inf, -inf, -inf},
		{0, 1, math.Copysign(0, -1), 0, 0},
		{0, 1, 0, math.Copysign(0, -1), math.Copysign(0, -1)},
		{0, 1, math.SmallestNonzeroFloat64, 0, math.SmallestNonzeroFloat64},
		{0, 1, -math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0},
		{1e-310, 1, 2e-310, 2e-310, 2e-310},
		{0, 1, nan, -inf, inf},
		{-inf, inf, 3, -inf, 5},
		{-inf, inf, -inf, -inf, -inf},
		{nan, nan, 7, 7, 7},
		{0, 1000, 5e38, 4e38, 6e38},
	} {
		for w := range uint8(8) {
			f.Add(c[0], c[1], c[2], c[3], c[4], uint64(0x0123456789abcdef)>>(8*w), w, w%4|w*11<<2)
		}
	}
	f.Fuzz(func(t *testing.T, lo, hi, m, qlo, qhi float64, id uint64, ws, edges uint8) {
		s := span{lo: lo, hi: hi, left: edges&1 != 0, right: edges&2 != 0}
		w := 1 + ws%8
		id &= mask(w)
		n := &nodes{leaves: make([]leaf, 1)}
		l := &n.leaves[0]
		var ids []uint64
		for range 1 + edges>>2%24 {
			ids = append(ids, 1<<(8*(w-1)), id, 0) // the first sets the width
		}
		d := s.code(m)
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
				if got := n.code(uint32(i)); math.Float32bits(got) != math.Float32bits(d) {
					t.Fatalf("record %d at width %d: code %v, want %v", i, n.w, got, d)
				}
			}
		}
		checkIDs()

		olo, ohi := math.Max(qlo, s.effectiveLo()), math.Min(qhi, s.effectiveHi())
		if olo <= ohi {
			dlo, dhi := s.matcher(olo, ohi)
			fresh := n.matches(nil, l, dlo, dhi)
			if roomy := n.matches(make([]uint64, 0, len(ids)), l, dlo, dhi); !slices.Equal(fresh, roomy) {
				t.Fatalf("a fresh result gets %x, one with room %x", fresh, roomy)
			}
			if len(fresh) != 0 && !slices.Equal(fresh, ids) {
				t.Fatalf("records of one code matched in part: %x of %x", fresh, ids)
			}
			got := len(fresh) != 0
			o := s.origin()
			rule := float64(d) <= ohi-o && olo-o <= float64(nextUp32(d))
			switch {
			case got != rule:
				t.Fatalf("m %v over [%v, %v]: code %v, query [%v, %v] matched %v, the rule says %v", m, lo, hi, d, olo, ohi, got, rule)
			case olo <= m && m <= ohi && !got:
				t.Fatalf("m %v over [%v, %v]: code %v missed by query [%v, %v]", m, lo, hi, d, olo, ohi)
			case math.IsNaN(m) && got:
				t.Fatalf("a NaN m matched query [%v, %v]", olo, ohi)
			}
		}

		ids = append(ids, math.MaxUint64)
		n.addOutlier(l, d, math.MaxUint64)
		checkIDs()
	})
}

// TestOutlierIDWidening writes outliers with ids that need 1, 2, 4, 6 and
// 8 bytes into live trees of many leaves, interleaved with lookups and
// deletes, against an exact shadow list: every lookup returns a superset of
// the shadow's matching ids, every delete removes exactly one record, the
// arena is as wide as its widest id, and SizeBytes is what the heap holds
// for the trees to within 3 %, once all widths are in and once the added
// outliers are deleted again.
func TestOutlierIDWidening(t *testing.T) {
	const trees, perWidth = 6, 1500
	type phase struct {
		base uint64
		w    uint8 // the arena's width once the phase's ids are in
	}
	// Build ids run to 200k: the arena starts 3 bytes wide.
	phases := []phase{{1, 3}, {1 << 8, 3}, {1 << 24, 4}, {1 << 40, 6}, {math.MaxUint64 - perWidth, 8}}
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
		for _, ph := range phases {
			for i := range uint64(perWidth) {
				// Host values lie in [0, 12000]: 1e9 is off every model.
				p := Pair{M: rng.Float64()*1100 - 50, N: 1e9, ID: ph.base + i}
				tr.Insert(p.M, p.N, p.ID)
				*shadow = append(*shadow, p)
				if i%4 == 0 {
					lookup(tr, *shadow)
				}
				if i%3 == 0 {
					del(tr, shadow)
				}
			}
			if tr.w != ph.w {
				t.Fatalf("ids from %#x: width %d, want %d", ph.base, tr.w, ph.w)
			}
			checkArena(t, &tr.nodes)
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
// benchmark's selectivity (0.2 of 1000).
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
