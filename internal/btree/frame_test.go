package btree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"hermit/internal/forcode"
	"hermit/internal/keyorder"
)

// A leaf header fills its size class, and an internal node's inner the
// class SizeBytes counts for it.
func TestHeaderSizes(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != nodeBytes || fitBytes(nodeBytes) != nodeBytes {
		t.Fatalf("node header is %d bytes, counted as %d (a size class: %v)", got, nodeBytes, fitBytes(nodeBytes) == nodeBytes)
	}
	if got := unsafe.Sizeof(inner{}); fitBytes(int(got)) != innerBytes {
		t.Fatalf("inner is %d bytes, in the %d-byte class; counted as %d", got, fitBytes(int(got)), innerBytes)
	}
}

// frameOf is leaf n's frame and its count of exceptions, for comparing
// before and after a write.
type frameOf struct {
	kbase, vbase      uint64
	shift, kw, vw, nx uint8
}

func frame(n *node) frameOf { return frameOf{n.kbase, n.vbase, n.shift, n.kw, n.vw, n.nx} }

// oneLeaf returns a tree of DefaultOrder that holds the entries in its one
// leaf, inserted in the order given.
func oneLeaf(t *testing.T, es []kv) *Tree {
	t.Helper()
	tr := New(DefaultOrder)
	for _, e := range es {
		tr.Insert(e.key, e.id)
	}
	if !tr.root.leaf() {
		t.Fatalf("%d entries are more than one leaf", len(es))
	}
	return tr
}

// holdsExactly checks tr's structure and that Each, a full Scan and, for
// every key, Lookup read back exactly the entries of want.
func holdsExactly(t *testing.T, tr *Tree, want []kv) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want = append([]kv(nil), want...)
	sortKV(want)
	if got := eachKVs(tr); !sameKVs(got, want) {
		t.Fatalf("Each = %v, want %v", got, want)
	}
	var finite []kv
	for _, e := range want {
		if e.key == e.key {
			finite = append(finite, e)
		}
	}
	if got := scanAll(tr, math.Inf(-1), math.Inf(1)); !sameKVs(got, finite) {
		t.Fatalf("Scan(-Inf, +Inf) = %v, want %v", got, finite)
	}
	for _, e := range want {
		if !tr.Contains(e.key, e.id) {
			t.Fatalf("Contains(%v, %d) = false", e.key, e.id)
		}
	}
}

// Each kind of write a leaf's key frame cannot hold re-encodes the leaf
// into a frame that does, and so does an id within a frame's span of the
// id frame; an id the id frame does not hold becomes an exception, in
// place or in the re-encode, when that costs fewer bytes than a wider
// frame — in a leaf that has room for a full node's entries, as the one
// leaf of a tree does, always — and every entry reads back.
func TestFrameTransitions(t *testing.T) {
	grid := func(i uint64) float64 { return keyorder.Unrank(keyorder.Rank(1) + i<<20) }
	cases := []struct {
		name   string
		before []kv
		write  kv
		check  func(before, after frameOf) bool
	}{
		{
			"key below kbase rebases",
			[]kv{{100, 1}, {101, 2}, {102, 3}},
			kv{50, 4},
			func(b, a frameOf) bool { return a.kbase == keyorder.Rank(50) && a.kbase < b.kbase },
		},
		{
			"key off the grid shrinks shift",
			[]kv{{grid(0), 1}, {grid(1), 2}, {grid(2), 3}},
			kv{keyorder.Unrank(keyorder.Rank(grid(1)) + 1), 4},
			func(b, a frameOf) bool { return b.shift == 20 && a.shift == 0 },
		},
		{
			"wider key code grows kw",
			[]kv{{grid(0), 1}, {grid(1), 2}, {grid(200), 3}},
			kv{grid(70000), 4},
			func(b, a frameOf) bool { return b.kw == 1 && a.kw == 3 && a.shift == 20 },
		},
		{
			"far id becomes an exception",
			[]kv{{1, 10}, {2, 20}, {3, 30}},
			kv{4, 10 + 1<<40},
			func(b, a frameOf) bool { return b.vw == 1 && a == frameOf{b.kbase, 10, b.shift, b.kw, 1, 1} },
		},
		{
			"id below vbase rebases ids",
			[]kv{{1, 1000}, {2, 1001}},
			kv{2, 990}, // within a frame's span of the frame: re-encoded
			func(b, a frameOf) bool { return b.vbase == 1000 && a.vbase == 990 && a.vw == 1 && a.nx == 0 },
		},
		{
			"id below vbase in a re-encode becomes an exception",
			[]kv{{1, 1000}, {2, 1001}},
			kv{3, 7}, // 3 is off the keys' grid: the leaf is re-encoded
			func(b, a frameOf) bool { return b.shift > a.shift && a.vbase == 1000 && a.vw == 1 && a.nx == 1 },
		},
		{
			"an id of every width is an exception",
			[]kv{{1, 0}, {2, 1}},
			kv{3, math.MaxUint64},
			func(b, a frameOf) bool { return b.vw == 1 && a.vw == 1 && a.nx == 1 },
		},
		{
			"every key width",
			[]kv{{math.Inf(-1), 1}, {-1, 1}},
			kv{math.Float64frombits(0x7ff8000000000001), 1},
			func(b, a frameOf) bool { return a.kw == 8 },
		},
		{
			"duplicates of one entry take no bytes",
			[]kv{{5, 9}, {5, 9}, {5, 9}},
			kv{5, 10},
			func(b, a frameOf) bool { return b.kw == 0 && b.vw == 0 && a.kw == 0 && a.vw == 1 && a.nx == 0 },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := oneLeaf(t, c.before)
			before := frame(tr.root)
			tr.Insert(c.write.key, c.write.id)
			if after := frame(tr.root); !c.check(before, after) {
				t.Fatalf("frame %+v became %+v", before, after)
			}
			holdsExactly(t, tr, append(c.before, c.write))
		})
	}
}

// A key between two grid points of a leaf is no key of it: Get, Contains
// and Delete of it miss without touching the leaf, a Scan from it starts
// at the next grid point, and an Insert of it lands between its
// neighbours, in a leaf re-encoded on the finer grid. The tree is several
// leaves deep, so the probes run through the descent too.
func TestProbeBetweenKeyGridPoints(t *testing.T) {
	tr := New(testOrder)
	var live []kv
	for k := 0.0; k < 400; k += 2 { // even keys: ranks on a grid of 2^45 or coarser
		e := kv{k, uint64(k) + 1}
		tr.Insert(e.key, e.id)
		live = append(live, e)
	}
	if tr.Height() < 2 {
		t.Fatalf("%d entries in one leaf", len(live))
	}
	frames := func() []frameOf {
		var fs []frameOf
		for n := firstLeaf(tr); n != nil; n = n.next {
			fs = append(fs, frame(n))
		}
		return fs
	}
	before := frames()
	for k := 1.0; k < 400; k += 2 {
		if id, ok := tr.Get(k); ok {
			t.Fatalf("Get(%v) of an odd key = %d", k, id)
		}
		if tr.Contains(k, uint64(k)) || tr.Delete(k, uint64(k)) {
			t.Fatalf("Contains or Delete(%v) of an odd key found it", k)
		}
		var first float64
		tr.Scan(k, math.Inf(1), func(key float64, _ uint64) bool { first = key; return false })
		if want := k + 1; k < 399 && first != want {
			t.Fatalf("Scan from %v starts at %v, want %v", k, first, want)
		}
	}
	if after := frames(); !slices.Equal(before, after) {
		t.Fatalf("misses changed the leaf frames: %v became %v", before, after)
	}
	holdsExactly(t, tr, live)
	for _, k := range []float64{1, 77, 141, 399, 0.5, 200.25} {
		e := kv{k, 1000}
		tr.Insert(e.key, e.id)
		live = append(live, e)
		holdsExactly(t, tr, live)
	}
}

// Swap rewrites an id in place while the frame holds it. An id it does not
// hold — wider than vw, below vbase — becomes an exception while the array
// has room for one, and goes when the id returns to the frame. Moving every
// id of the leaf to ids that need a wider frame re-encodes the leaf in that
// frame once the exceptions would cost more, with none left when all have
// moved.
func TestSwapGrowsIDWidth(t *testing.T) {
	const base = 100
	tr := New(DefaultOrder)
	want := map[float64]uint64{}
	for i := range 100 {
		tr.Swap(float64(i), base+uint64(i))
		want[float64(i)] = base + uint64(i)
	}
	l := tr.root
	check := func() {
		t.Helper()
		var es []kv
		for k, id := range want {
			es = append(es, kv{k, id})
			if got, ok := tr.Get(k); !ok || got != id {
				t.Fatalf("Get(%v) = %d, %v; want %d", k, got, ok, id)
			}
		}
		holdsExactly(t, tr, es)
	}
	before, size := frame(l), len(l.buf)
	for _, id := range []uint64{1 << 40, 0, math.MaxUint64} {
		if old, ok := tr.Swap(7, id); !ok || old != want[7] {
			t.Fatalf("Swap(7, %d) = %d, %v; want %d", id, old, ok, want[7])
		}
		want[7] = id
		after := before
		after.nx = 1
		if frame(l) != after || len(l.buf) != size {
			t.Fatalf("id %d off the frame: frame %+v became %+v, array %d B became %d", id, before, frame(l), size, len(l.buf))
		}
		check()
	}
	tr.Swap(7, base+7)
	want[7] = base + 7
	if frame(l) != before {
		t.Fatalf("id back in the frame: frame %+v became %+v", before, frame(l))
	}
	// Every id to ids i<<s apart, one key at a time, up to 8-byte codes. At
	// no step does the leaf take more bytes than the tightest frame of its
	// ids would.
	for s := uint(8); s <= 56; s += 8 {
		for i := range 100 {
			k := float64(i)
			id := base + uint64(i)<<s
			if old, ok := tr.Swap(k, id); !ok || old != want[k] {
				t.Fatalf("Swap(%v) = %d, %v; want %d", k, old, ok, want[k])
			}
			want[k] = id
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("ids %d bits apart, key %v: %v", s, k, err)
			}
			lo, hi := uint64(math.MaxUint64), uint64(0)
			for _, id := range want {
				lo, hi = min(lo, id), max(hi, id)
			}
			tight := fitBytes(tr.order*(int(l.kw)+int(forcode.Width(hi-lo))) + pad)
			if len(l.buf) > tight {
				t.Fatalf("ids %d bits apart, key %v: %d B with %d exceptions, the tightest frame %d B", s, k, len(l.buf), l.nx, tight)
			}
		}
		if f := frame(l); f.vbase != base || int(f.vw) != int(s/8)+1 || f.nx != 0 {
			t.Fatalf("every id %d bits apart: frame %+v", s, f)
		}
		check()
	}
}

// Splits and merges move entries between leaves whose frames differ — keys
// on coarse and fine grids, the special keys, ids of every width — and
// each leaf they leave is re-encoded in a frame of its own.
func TestSplitsAndMergesAcrossFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	specials := []float64{negNaN, math.Inf(-1), negZero, math.Inf(1), nanA, nanB, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	var live []kv
	tr := New(testOrder)
	add := func(e kv) {
		tr.Insert(e.key, e.id)
		live = append(live, e)
	}
	for i := range 600 {
		var k float64
		switch i % 4 {
		case 0:
			k = float64(rng.Intn(100)) // whole numbers: a coarse grid
		case 1:
			k = rng.Float64() * 100 // no grid
		case 2:
			k = specials[rng.Intn(len(specials))]
		default:
			k = float64(rng.Intn(100)) + 0.5
		}
		add(kv{k, uint64(rng.Intn(256)) << (8 * uint(rng.Intn(8)))})
	}
	holdsExactly(t, tr, live)
	frames := map[frameOf]bool{}
	for n := firstLeaf(tr); n != nil; n = n.next {
		frames[frame(n)] = true
	}
	if len(frames) < 10 {
		t.Fatalf("only %d distinct leaf frames", len(frames))
	}
	// Drain three quarters, so that leaves merge, checking as we go.
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for len(live) > 150 {
		e := live[len(live)-1]
		if !tr.Delete(e.key, e.id) {
			t.Fatalf("Delete(%v, %d) missed", e.key, e.id)
		}
		live = live[:len(live)-1]
		if len(live)%50 == 0 {
			holdsExactly(t, tr, live)
		}
	}
	// And refill, so that merged leaves split again.
	for i := range 300 {
		add(kv{rng.NormFloat64(), uint64(i) << 32})
	}
	holdsExactly(t, tr, live)
}

// firstLeaf returns the leaf the leaf chain starts at.
func firstLeaf(tr *Tree) *node {
	n := tr.root
	for !n.leaf() {
		n = n.in.children[0]
	}
	return n
}

// The keys ordinary comparison cannot place come back from every reader bit
// for bit, but -0, which comes back as +0, the same key.
func TestSpecialKeysReadBack(t *testing.T) {
	keys := []float64{negNaN, math.Inf(-1), -math.MaxFloat64, -1, negZero, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1), nanA, nanB}
	wantBits := func(k float64) uint64 { return keyorder.Bits(k) }
	for _, order := range []int{4, DefaultOrder} {
		tr := New(order)
		for i, k := range keys {
			tr.Swap(k, uint64(i)<<(5*uint(i)))
		}
		var fg Finger
		for i, k := range keys {
			id := uint64(i) << (5 * uint(i))
			if got, ok := tr.Get(k); !ok || got != id {
				t.Fatalf("order %d: Get(%v) = %d, %v; want %d", order, k, got, ok, id)
			}
			if got, ok := tr.GetAscending(&fg, k); !ok || got != id {
				t.Fatalf("order %d: GetAscending(%v) = %d, %v; want %d", order, k, got, ok, id)
			}
			var seen []uint64
			tr.Scan(k, k, func(got float64, gid uint64) bool {
				if math.Float64bits(got) != wantBits(k) {
					t.Fatalf("order %d: Scan(%v, %v) key bits %#x, want %#x", order, k, k, math.Float64bits(got), wantBits(k))
				}
				seen = append(seen, gid)
				return true
			})
			if len(seen) != 1 || seen[0] != id {
				t.Fatalf("order %d: Scan(%v, %v) ids %v, want [%d]", order, k, k, seen, id)
			}
		}
		i := 0
		tr.Each(func(got float64, id uint64) bool {
			if math.Float64bits(got) != wantBits(keys[i]) || id != uint64(i)<<(5*uint(i)) {
				t.Fatalf("order %d: Each entry %d is (%#x, %d), want (%#x, %d)", order, i, math.Float64bits(got), id, wantBits(keys[i]), uint64(i)<<(5*uint(i)))
			}
			i++
			return true
		})
		if i != len(keys) {
			t.Fatalf("order %d: Each walked %d of %d entries", order, i, len(keys))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
