package btree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

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

// frameOf is leaf n's frame, for comparing before and after a write.
type frameOf struct {
	kbase, vbase          uint64
	shift, kw, vshift, vw uint8
}

func frame(n *node) frameOf { return frameOf{n.kbase, n.vbase, n.shift, n.kw, n.vshift, n.vw} }

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

// Each kind of write a leaf's frame cannot hold re-encodes the leaf into a
// frame that does, and every entry reads back.
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
			"wider id grows vw",
			[]kv{{1, 10}, {2, 21}, {3, 30}},
			kv{4, 10 + 1<<40},
			func(b, a frameOf) bool { return b.vw == 1 && a.vw == 6 && a.vbase == 10 },
		},
		{
			"id below vbase rebases ids",
			[]kv{{1, 1000}, {2, 1001}},
			kv{3, 7},
			func(b, a frameOf) bool { return b.vbase == 1000 && a.vbase == 7 && a.vw == 2 },
		},
		{
			"every id width",
			[]kv{{1, 0}, {2, 1}},
			kv{3, math.MaxUint64},
			func(b, a frameOf) bool { return b.vw == 1 && a.vw == 8 },
		},
		{
			"every key width",
			[]kv{{math.Inf(-1), 1}, {-1, 1}},
			kv{math.Float64frombits(0x7ff8000000000001), 1},
			func(b, a frameOf) bool { return a.kw == 8 },
		},
		{
			"logical ids take the grid of their keys",
			[]kv{{1, logical(100)}, {2, logical(50)}, {3, logical(70)}},
			kv{4, logical(90)},
			func(b, a frameOf) bool { return b.vshift == 47 && b.vw == 1 && a == b },
		},
		{
			"id off the grid shrinks vshift",
			[]kv{{1, logical(100)}, {2, logical(50)}, {3, logical(70)}},
			kv{4, logical(70.5)},
			func(b, a frameOf) bool { return b.vshift == 47 && a.vshift == 45 && a.vw == 1 },
		},
		{
			"id on a finer grid below vbase",
			[]kv{{1, 4096}, {2, 8192}},
			kv{3, 7},
			func(b, a frameOf) bool { return b.vshift == 12 && a.vshift == 0 && a.vbase == 7 && a.vw == 2 },
		},
		{
			"duplicates of one entry take no bytes",
			[]kv{{5, 9}, {5, 9}, {5, 9}},
			kv{5, 10},
			func(b, a frameOf) bool { return b.kw == 0 && b.vw == 0 && a.kw == 0 && a.vw == 1 },
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

// logical is the id a logical-pointer index stores for primary key pk.
func logical(pk float64) uint64 { return keyorder.Rank(pk) }

// An id between two grid points of a leaf is no entry of it: Contains and
// Delete of it miss without touching the leaf, and an Insert of it lands
// between its neighbours, in a leaf re-encoded on the finer grid. The
// probe runs through the composite descent of a tree several leaves deep,
// whose entries all share one key, so every leaf is told apart by its ids.
func TestProbeBetweenIDGridPoints(t *testing.T) {
	tr := New(testOrder)
	var live []kv
	for pk := range 200 {
		e := kv{5, logical(float64(2 * pk))} // even keys: a grid of 2^47
		tr.Insert(e.key, e.id)
		live = append(live, e)
	}
	holdsExactly(t, tr, live)
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
	for pk := 1.0; pk < 400; pk += 2 {
		if tr.Contains(5, logical(pk)) {
			t.Fatalf("Contains(5, logical(%v)) of an odd key", pk)
		}
		if tr.Delete(5, logical(pk)) {
			t.Fatalf("Delete(5, logical(%v)) of an odd key", pk)
		}
		if tr.Contains(5, logical(pk)+1) || tr.Delete(5, logical(pk)+1) {
			t.Fatalf("an id one above logical(%v) found", pk)
		}
	}
	if after := frames(); !slices.Equal(before, after) {
		t.Fatalf("misses changed the leaf frames: %v became %v", before, after)
	}
	holdsExactly(t, tr, live)
	n := 0
	tr.Scan(5, 5, func(_ float64, id uint64) bool {
		if want := logical(float64(2 * n)); id != want {
			t.Fatalf("Scan entry %d: id %#x, want %#x", n, id, want)
		}
		n++
		return true
	})
	for _, pk := range []float64{1, 77, 141, 399, 0.5, 200.25} {
		e := kv{5, logical(pk)}
		tr.Insert(e.key, e.id)
		live = append(live, e)
		holdsExactly(t, tr, live)
	}
	for _, e := range live[len(live)-6:] {
		if !tr.Delete(e.key, e.id) {
			t.Fatalf("Delete(%v, %#x) of an inserted off-grid id missed", e.key, e.id)
		}
	}
	holdsExactly(t, tr, live[:len(live)-6])
}

// Two leaves whose ids lie on different grids merge into one leaf on the
// finer of them, and every entry reads back.
func TestMergeAcrossIDGrids(t *testing.T) {
	tr := New(testOrder)
	var live []kv
	for i := range 4 * testOrder {
		id := logical(float64(i)) // whole keys: a coarse grid
		if i >= 2*testOrder {
			id = uint64(i) << 3 // a grid of 8
		}
		e := kv{float64(i), id}
		tr.Insert(e.key, e.id)
		live = append(live, e)
	}
	shifts := map[uint8]bool{}
	for n := firstLeaf(tr); n != nil; n = n.next {
		shifts[n.vshift] = true
	}
	if !shifts[3] || len(shifts) < 2 {
		t.Fatalf("leaf id shifts %v: want 3 and a coarser one", shifts)
	}
	// Drain the middle until the leaves either side of the seam merge.
	for len(live) > testOrder/2 {
		mid := len(live) / 2
		if !tr.Delete(live[mid].key, live[mid].id) {
			t.Fatalf("Delete(%v, %#x) missed", live[mid].key, live[mid].id)
		}
		live = slices.Delete(live, mid, mid+1)
	}
	holdsExactly(t, tr, live)
	mixed := false
	for n := firstLeaf(tr); n != nil; n = n.next {
		var coarse, fine bool
		for i := range int(n.n) {
			coarse = coarse || n.id(i) >= 1<<63
			fine = fine || n.id(i) < 1<<63
		}
		if coarse && fine {
			mixed = true
			if n.vshift != 3 {
				t.Fatalf("a leaf of both grids has id shift %d", n.vshift)
			}
		}
	}
	if !mixed {
		t.Fatal("no leaf holds ids of both grids after the drain")
	}
}

// Swap rewrites an id in place while the frame holds it and re-encodes the
// leaf when it does not: an id wider than vw, an id below vbase.
func TestSwapGrowsIDWidth(t *testing.T) {
	tr := New(DefaultOrder)
	want := map[float64]uint64{}
	for i := range 100 {
		tr.Swap(float64(i), uint64(i))
		want[float64(i)] = uint64(i)
	}
	l := tr.root
	for s := uint(8); s < 64; s += 8 {
		id := uint64(3)<<s | 5
		k := float64(s)
		before := frame(l)
		if old, ok := tr.Swap(k, id); !ok || old != want[k] {
			t.Fatalf("Swap(%v) = %d, %v; want %d", k, old, ok, want[k])
		}
		want[k] = id
		if after := frame(l); int(after.vw) != int(s/8)+1 || after.vw <= before.vw {
			t.Fatalf("after an id of %d bytes: frame %+v became %+v", s/8+1, before, after)
		}
	}
	// Below vbase: every id moves up by 100 first, then one goes to 0.
	for k, id := range want {
		tr.Swap(k, id+100)
		want[k] = id + 100
	}
	tr.Swap(7, 0)
	want[7] = 0
	if l.vbase != 0 {
		t.Fatalf("vbase %d after swapping in id 0", l.vbase)
	}
	var es []kv
	for k, id := range want {
		es = append(es, kv{k, id})
		if got, ok := tr.Get(k); !ok || got != id {
			t.Fatalf("Get(%v) = %d, %v; want %d", k, got, ok, id)
		}
	}
	holdsExactly(t, tr, es)
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
