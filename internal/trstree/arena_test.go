package trstree

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"hermit/internal/heapsize"
)

// A leaf is 32 bytes, the node arrays and the outlier arena hold no
// pointer — the collector has nothing to scan in a tree's arrays, and the
// allocator adds no header to them (heapsize.Of's pointers case) — and a Tree
// stays in its 288-byte size class.
func TestLeafLayout(t *testing.T) {
	if got := unsafe.Sizeof(leaf{}); got != 32 {
		t.Errorf("a leaf is %d bytes, want 32", got)
	}
	if got := heapsize.Of(int(unsafe.Sizeof(Tree{})), true); got != 288 {
		t.Errorf("a Tree takes %d bytes, want 288", got)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(leaf{}), reflect.TypeOf(nodes{}.out).Elem(), reflect.TypeOf(ref(0))} {
		if holdsPointer(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
}

// holdsPointer reports whether a value of type typ holds a pointer the
// collector would scan.
func holdsPointer(typ reflect.Type) bool {
	switch k := typ.Kind(); {
	case k >= reflect.Bool && k <= reflect.Complex128:
		return false
	case k == reflect.Array:
		return typ.Len() > 0 && holdsPointer(typ.Elem())
	case k == reflect.Struct:
		for i := range typ.NumField() {
			if holdsPointer(typ.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true // pointers, slices, strings, maps, chans, funcs, interfaces
}

// checkArena holds the arena's bookkeeping to the leaves: it is whole
// records with pad bytes of capacity beyond them, runs lie in the arena
// and do not overlap, a run of no room starts at 0, held is the entries
// the runs hold, dead the slots no run owns, and the dead are at most an
// eighth of held.
func checkArena(t *testing.T, n *nodes) {
	t.Helper()
	if len(n.out)%n.rec() != 0 || cap(n.out) > 0 && cap(n.out)-len(n.out) < pad {
		t.Fatalf("an arena of %d bytes, capacity %d, in %d-byte records", len(n.out), cap(n.out), n.rec())
	}
	owner := make([]bool, n.slots())
	held, owned := 0, 0
	for s := range n.leaves {
		l := &n.leaves[s]
		switch {
		case l.n > l.cap:
			t.Fatalf("leaf %d: %d entries in a run of %d", s, l.n, l.cap)
		case l.cap == 0 && l.off != 0:
			t.Fatalf("leaf %d: an empty run at %d", s, l.off)
		case int(l.off+l.cap) > n.slots():
			t.Fatalf("leaf %d: run [%d, %d) beyond the arena's %d", s, l.off, l.off+l.cap, n.slots())
		}
		for i := l.off; i < l.off+l.cap; i++ {
			if owner[i] {
				t.Fatalf("leaf %d: slot %d is another run's", s, i)
			}
			owner[i] = true
		}
		held += int(l.n)
		owned += int(l.cap)
	}
	if held != n.held || n.slots()-owned != n.dead {
		t.Fatalf("held %d, dead %d counted; the runs hold %d and leave %d", n.held, n.dead, held, n.slots()-owned)
	}
	if n.dead*8 > n.held {
		t.Fatalf("%d dead slots beside %d entries held", n.dead, n.held)
	}
}

// record is an arena record decoded, for comparisons.
type record struct {
	d  uint16
	id uint64
}

// records returns the records leaf l's run holds.
func records(n *nodes, l *leaf) []record {
	rs := make([]record, 0, l.n)
	for i := l.off; i < l.off+l.n; i++ {
		rs = append(rs, record{n.code(i), n.id(i)})
	}
	return rs
}

// A run's room — which Stats().SizeBytes counts — follows the entries it
// holds through growth and shrinkage: never more than an eighth (or
// outlierStep) above them after an add, below twice them after a remove,
// nothing when empty. Four runs grow and shrink interleaved, so runs move
// to the arena's end, leave dead slots behind and are rewritten.
func TestOutlierBufferFollowsEntries(t *testing.T) {
	const runs, peak = 4, 1500
	n := &nodes{leaves: make([]leaf, runs)}
	for i := 0; i < runs*peak; i++ {
		l := &n.leaves[i%runs]
		n.addOutlier(l, uint16(i), uint64(i))
		if l.cap > l.n+max(outlierStep, l.n/8) {
			t.Fatalf("growth: %d entries in a run of %d", l.n, l.cap)
		}
		checkArena(t, n)
	}
	for i := 0; i < runs*peak; i++ {
		l := &n.leaves[i%runs]
		if !n.removeOutlier(l, uint16(i), uint64(i)) {
			t.Fatalf("entry %d not found", i)
		}
		if l.cap >= 2*l.n+2 || l.n == 0 && l.cap != 0 {
			t.Fatalf("shrinkage: %d entries in a run of %d", l.n, l.cap)
		}
		checkArena(t, n)
	}
	if n.held != 0 || n.dead != 0 || n.slots() != 0 {
		t.Fatalf("an empty arena: %d held, %d dead, %d long", n.held, n.dead, n.slots())
	}

	// An as-built run (exact room) stays exact until it is written. The
	// last run grows in place; another moves to the arena's end.
	n = &nodes{leaves: make([]leaf, 2)}
	for s, k := range []uint32{100, 10} {
		n.leaves[s] = leaf{off: n.claim(int(k)), n: k, cap: k}
		n.held += int(k)
	}
	n.addOutlier(&n.leaves[1], 1, 1)
	if l := n.leaves[1]; l.off != 100 || l.cap != 18 || n.slots() != 118 {
		t.Fatalf("first add to the last run, full at 10: run [%d, +%d) in an arena of %d", l.off, l.cap, n.slots())
	}
	n.addOutlier(&n.leaves[0], 1, 1)
	if l := n.leaves[0]; l.cap != 112 {
		t.Fatalf("first add to a full run of 100: room %d", l.cap)
	}
	checkArena(t, n)
}

// A seeded mix of Insert, Delete and Update on uncovered pairs, with a
// rebuild of every first-level subtree now and then: after each stretch of
// writes every leaf's run holds exactly the multiset of records a per-leaf
// reference of (m, id) entries holds, each coded as its target value codes
// in the leaf now — the leaf's span, or an edge leaf's grid, which the
// writes beyond the tree's bounds move — and the arena's bookkeeping is
// right.
func TestArenaRunsMatchReference(t *testing.T) {
	base := genLinear(20_000, 1000, 0.02, 11)
	tr := mustBuild(t, base, DefaultParams())
	type row struct {
		m, n float64
		id   uint64
	}
	type entry struct {
		m  float64
		id uint64
	}
	var rows []row // written through the tree, model-covered or not
	want := map[int32][]entry{}
	spans := map[int32]span{}
	// leafOf is the slot of the leaf that covers m, the entry (m, id) is
	// there, and whether the leaf covers (m, n) with its model.
	leafOf := func(m, n float64, id uint64) (int32, entry, bool) {
		s, sp, _ := tr.traverse(m)
		spans[s] = sp
		return s, entry{m, id}, tr.leaves[s].covers(sp, m, n)
	}
	reset := func(src []Pair) {
		clear(want)
		for _, p := range src {
			if s, e, covered := leafOf(p.M, p.N, p.ID); !covered {
				want[s] = append(want[s], e)
			}
		}
	}
	reset(base)
	drop := func(s int32, e entry) {
		i := slices.Index(want[s], e)
		if i < 0 {
			t.Fatalf("no %v in the reference of leaf %d", e, s)
		}
		want[s] = slices.Delete(want[s], i, i+1)
	}
	byEntry := func(a, b record) int {
		return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.id, b.id))
	}
	compare := func(op int) {
		t.Helper()
		for s := range tr.leaves {
			got := slices.SortedFunc(slices.Values(records(&tr.nodes, &tr.leaves[s])), byEntry)
			var exp []record
			for _, e := range want[int32(s)] {
				exp = append(exp, record{tr.codeAt(spans[int32(s)], e.m), e.id})
			}
			slices.SortFunc(exp, byEntry)
			if !slices.Equal(got, exp) {
				t.Fatalf("after op %d, leaf %d holds %d entries %v, want %d %v", op, s, len(got), got[:min(len(got), 8)], len(exp), exp[:min(len(exp), 8)])
			}
		}
		checkArena(t, &tr.nodes)
		checkStats(t, tr, len(base)+len(rows))
	}
	rng := rand.New(rand.NewSource(42))
	offModel := func() float64 { return 1e7 + rng.Float64()*1e6 }
	const ops = 30_000
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 5 || len(rows) == 0: // insert; one in ten repeats a live (m, id)
			r := row{m: rng.Float64()*1100 - 50, n: offModel(), id: uint64(1_000_000 + op)}
			if len(rows) > 0 && rng.Intn(10) == 0 {
				prev := rows[rng.Intn(len(rows))]
				r.m, r.id = prev.m, prev.id
			}
			if s, e, covered := leafOf(r.m, r.n, r.id); !covered {
				want[s] = append(want[s], e)
			}
			tr.Insert(r.m, r.n, r.id)
			rows = append(rows, r)
		case k < 8: // delete
			i := rng.Intn(len(rows))
			r := rows[i]
			if s, e, covered := leafOf(r.m, r.n, r.id); !covered {
				drop(s, e)
			}
			tr.Delete(r.m, r.n, r.id)
			rows[i] = rows[len(rows)-1]
			rows = rows[:len(rows)-1]
		default: // update onto the model or off it
			i := rng.Intn(len(rows))
			r := &rows[i]
			s, e, was := leafOf(r.m, r.n, r.id)
			newN := offModel()
			if rng.Intn(2) == 0 {
				newN = tr.leaves[s].model.Predict(r.m)
			}
			_, _, is := leafOf(r.m, newN, r.id)
			switch {
			case was && !is:
				want[s] = append(want[s], e)
			case !was && is:
				drop(s, e)
			}
			tr.Update(r.m, r.n, newN, r.id)
			r.n = newN
		}
		if op%500 == 499 {
			compare(op)
		}
		if op%7000 == 6999 {
			src := append([]Pair(nil), base...)
			for _, r := range rows {
				src = append(src, Pair{M: r.m, N: r.n, ID: r.id})
			}
			reorgAll(t, tr, pairSource(src))
			checkArena(t, &tr.nodes)
			reset(src)
		}
	}
	compare(ops)
}
