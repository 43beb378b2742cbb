package trstree

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"hermit/internal/keyorder"
)

// nextUp32 is the least float32 above d (+Inf for +Inf and MaxFloat32).
func nextUp32(d float32) float32 { return math.Nextafter32(d, float32(math.Inf(1))) }

// FuzzOutlierCode holds the outlier record to its contract. A leaf over a
// span — edge-extended or not — holds records coded from m whose ids lie
// on a grid: base plus a code shifted left by shift (0–63), the codes the
// fuzzed one beside two that set a width w (1–8 bytes), repeated up to 72
// records, and then two ids off every grid; a lookup scans it for
// the predicate [qlo, qhi] as lookupNode does:
//
//   - an exact qlo ≤ m ≤ qhi returns the record (no false negative);
//   - the record is returned exactly when d ≤ ohi − lo and olo − lo ≤
//     nextUp32(d), the rule the lookup's float32 bounds stand for;
//   - a NaN m is returned by no query;
//   - a scan into a fresh Result (chunks of the stack buffer) and into one
//     with room (in place) return the same ids;
//   - every id reads back as written, in the frame the grid's ids take —
//     no finer than their grid and at most a byte wider than w, when the
//     grid does not wrap around the id space — and after ids off every
//     grid, the top of the id space among them, take it to shift 0.
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
			id := uint64(0x0123456789abcdef) >> (8 * w)
			f.Add(c[0], c[1], c[2], c[3], c[4], id, uint64(0), w, uint8(0), w%4|w*11<<2)
			// Row ids above a base, and the ranks of whole keys from 1: a
			// grid of 2^35 (the logical ids of hermit.LogicalID).
			f.Add(c[0], c[1], c[2], c[3], c[4], id, uint64(1)<<40+7, w, uint8(0), w%4|w*11<<2)
			f.Add(c[0], c[1], c[2], c[3], c[4], id, keyorder.Rank(1), w, uint8(35), w%4|w*11<<2)
		}
	}
	f.Fuzz(func(t *testing.T, lo, hi, m, qlo, qhi float64, id, base uint64, ws, sh, edges uint8) {
		s := span{lo: lo, hi: hi, left: edges&1 != 0, right: edges&2 != 0}
		w, shift := 1+ws%8, sh%64
		id &= mask(w)
		n := &nodes{leaves: make([]leaf, 1)}
		l := &n.leaves[0]
		var ids []uint64
		for range 1 + edges>>2%24 {
			for _, c := range []uint64{1 << (8 * (w - 1)), id, 0} { // the first sets the width
				ids = append(ids, base+c<<shift)
			}
		}
		d := s.code(m)
		for _, x := range ids {
			n.addOutlier(l, d, x)
		}
		top := mask(w) << shift
		if top>>shift == mask(w) && base+top >= base { // the grid does not wrap
			if n.shift < shift || n.w > w+1 {
				t.Fatalf("ids %x on a grid of 2^%d: frame %+v, want no finer and at most %d bytes", ids, shift, frameOfArena(n), w+1)
			}
		}
		checkIDs := func() {
			t.Helper()
			for i, x := range ids {
				if got := n.id(uint32(i)); got != x {
					t.Fatalf("record %d in frame %+v: id %x, want %x", i, frameOfArena(n), got, x)
				}
				if got := n.code(uint32(i)); math.Float32bits(got) != math.Float32bits(d) {
					t.Fatalf("record %d in frame %+v: code %v, want %v", i, frameOfArena(n), got, d)
				}
			}
		}
		checkIDs()

		olo, ohi := math.Max(qlo, s.effectiveLo()), math.Min(qhi, s.effectiveHi())
		if olo <= ohi {
			dlo, dhi := s.matcher(olo, ohi)
			fresh := n.matches(nil, l, dlo, dhi)
			roomy := n.matches(make([]uint64, 0, len(ids)), l, dlo, dhi)
			n.decode(fresh)
			n.decode(roomy)
			if !slices.Equal(fresh, roomy) {
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

		ids = append(ids, math.MaxUint64, base+1)
		n.addOutlier(l, d, math.MaxUint64)
		n.addOutlier(l, d, base+1)
		checkIDs()
		if n.shift != 0 {
			t.Fatalf("ids %x: frame %+v, want shift 0", ids, frameOfArena(n))
		}
	})
}

// frameOf is the arena's id frame, for comparing before and after a write.
type frameOf struct {
	base     uint64
	shift, w uint8
}

func frameOfArena(n *nodes) frameOf { return frameOf{n.base, n.shift, n.w} }

// narrows reports whether the frame after narrows the one before for good
// (nodes.hold): a lower shift, a wider width, or the base at the lowest
// point of its grid.
func narrows(before, after frameOf) bool {
	return after.shift < before.shift || after.w > before.w || after.base < 1<<after.shift && after.base < before.base
}

// maxReencodes bounds the re-encodes of an arena in the life of its
// records: every shift it falls from 63 to 0 through, every width from 0
// to 8, and a base drop between any two of those.
const maxReencodes = 2*(63+8) + 1

// TestOutlierIDWidening writes outliers into live trees of many leaves,
// interleaved with lookups and deletes, against an exact shadow list: every
// lookup returns a superset of the shadow's matching ids, every delete
// removes exactly one record, and SizeBytes is what the heap holds for the
// trees to within 3 %, once all ids are in and once the added outliers are
// deleted again. Each phase's ids leave the arena's frame as the phase
// says, and every re-encode narrows the frame for good: no more than
// maxReencodes in all.
//
// Under physical pointers the trees are built over row ids to 200k and
// take ids that need 1, 2, 4, 6 and 8 bytes. Under logical pointers they
// are built over the ranks of the whole keys 1 to 200k — a grid of 2^35,
// 3 bytes of code — and take the ranks of the next whole keys (which fit
// the frame's room above), of halves of keys near 2^17 (off its grid: a
// finer one), of tiny fractions (below its base), of row ids (off every
// grid) and of ids at the top of the id space.
func TestOutlierIDWidening(t *testing.T) {
	const trees, perPhase = 3, 1500
	type phase struct {
		name string
		id   func(i uint64) uint64
		want frameOf // the frame's shift and width once the phase is in
	}
	rank := func(pk float64) uint64 { return keyorder.Rank(pk) }
	schemes := []struct {
		name   string
		built  func(i uint64) uint64
		frame  frameOf
		phases []phase
	}{
		{"physical", func(i uint64) uint64 { return i }, frameOf{shift: 0, w: 3}, []phase{
			{"1 byte", func(i uint64) uint64 { return 1 + i }, frameOf{shift: 0, w: 3}},
			{"2 bytes", func(i uint64) uint64 { return 1<<8 + i }, frameOf{shift: 0, w: 3}},
			{"4 bytes", func(i uint64) uint64 { return 1<<24 + i }, frameOf{shift: 0, w: 4}},
			{"6 bytes", func(i uint64) uint64 { return 1<<40 + i }, frameOf{shift: 0, w: 6}},
			{"8 bytes", func(i uint64) uint64 { return math.MaxUint64 - perPhase + i }, frameOf{shift: 0, w: 8}},
		}},
		{"logical", func(i uint64) uint64 { return rank(float64(i + 1)) }, frameOf{shift: 35, w: 3}, []phase{
			{"next whole keys", func(i uint64) uint64 { return rank(float64(200_001 + i)) }, frameOf{shift: 35, w: 3}},
			{"halves off the grid", func(i uint64) uint64 { return rank(1<<17 + 0.5 + float64(i)) }, frameOf{shift: 34, w: 3}},
			{"tiny keys below the base", func(i uint64) uint64 { return rank(float64(i+1) * 0x1p-1000) }, frameOf{shift: 34, w: 4}},
			{"row ids off every grid", func(i uint64) uint64 { return 1<<40 + i }, frameOf{shift: 0, w: 8}},
			{"top of the id space", func(i uint64) uint64 { return math.MaxUint64 - perPhase + i }, frameOf{shift: 0, w: 8}},
		}},
	}
	src := genBenchmarkShape(200_000)
	pairs := make([]Pair, len(src))
	shadows := make([][]Pair, trees*len(schemes))
	for i := range shadows {
		shadows[i] = make([]Pair, 0, len(schemes[i/trees].phases)*perPhase)
	}
	res := Result{IDs: make([]uint64, 0, 1<<16), Ranges: make([]Range, 0, 1<<12)}
	rng := rand.New(rand.NewSource(44))
	kept := make([]*Tree, 0, len(shadows))
	built := make([]int, 0, len(shadows))
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
		t.Logf("%s: heap %d B, SizeBytes %d B for %d trees", what, heap, size, len(kept))
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
	for _, sc := range schemes {
		for range trees {
			copy(pairs, src)
			for i := range pairs {
				pairs[i].ID = sc.built(pairs[i].ID)
			}
			tr, err := Build(pairs, 1, 0, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, tr)
			got := frameOfArena(&tr.nodes)
			if tr.LeafCount() < 256 || got.shift != sc.frame.shift || got.w != sc.frame.w {
				t.Fatalf("%s: built %d leaves, frame %+v: want hundreds of leaves and %+v", sc.name, tr.LeafCount(), got, sc.frame)
			}
			built = append(built, tr.OutlierCount())
			shadow := &shadows[len(kept)-1]
			reencodes := 0
			for _, ph := range sc.phases {
				for i := range uint64(perPhase) {
					// Host values lie in [0, 12000]: 1e9 is off every model.
					p := Pair{M: rng.Float64()*1100 - 50, N: 1e9, ID: ph.id(i)}
					was := frameOfArena(&tr.nodes)
					tr.Insert(p.M, p.N, p.ID)
					if now := frameOfArena(&tr.nodes); now != was {
						if reencodes++; !narrows(was, now) {
							t.Fatalf("%s, %s: id %#x moved the frame from %+v to %+v, no narrower", sc.name, ph.name, p.ID, was, now)
						}
					}
					*shadow = append(*shadow, p)
					if i%4 == 0 {
						lookup(tr, *shadow)
					}
					if i%3 == 0 {
						del(tr, shadow)
					}
				}
				if got := frameOfArena(&tr.nodes); got.shift != ph.want.shift || got.w != ph.want.w {
					t.Fatalf("%s, %s: frame %+v, want shift %d and width %d", sc.name, ph.name, got, ph.want.shift, ph.want.w)
				}
				checkArena(t, &tr.nodes)
			}
			t.Logf("%s: %d re-encodes", sc.name, reencodes)
			if reencodes > maxReencodes {
				t.Fatalf("%s: %d re-encodes, more than the %d bound", sc.name, reencodes, maxReencodes)
			}
		}
	}
	check("widened")
	for x, tr := range kept {
		shadow := &shadows[x]
		for _, p := range *shadow {
			if !tr.nodes.holds(idSet{lo: p.ID, hi: p.ID}) {
				t.Fatalf("the frame %+v does not hold id %#x", frameOfArena(&tr.nodes), p.ID)
			}
		}
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
// benchmark's selectivity (0.2 of 1000). The physical tree's ids are row
// ids, frame shift 0; the logical one's are the ranks of the whole keys
// from 1 (hermit.LogicalID), frame shift 35 and a base near 2^63, the ids
// durable-write's tree holds — each kept id costs keep a shift more.
func BenchmarkLookupOutlierHeavy(b *testing.B) {
	for _, sc := range []struct {
		name string
		id   func(i uint64) uint64
	}{
		{"physical", func(i uint64) uint64 { return i }},
		{"logical", func(i uint64) uint64 { return keyorder.Rank(float64(i + 1)) }},
	} {
		b.Run(sc.name, func(b *testing.B) {
			pairs := genBenchmarkShape(200_000)
			for i := range pairs {
				pairs[i].ID = sc.id(pairs[i].ID)
			}
			tr, err := Build(pairs, 1, 0, DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			for i := range 134*tr.LeafCount() - tr.OutlierCount() {
				tr.Insert(rng.Float64()*1000, 1e9, sc.id(uint64(200_000+i)))
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
		})
	}
}
