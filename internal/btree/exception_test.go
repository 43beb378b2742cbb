package btree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// exceptions counts the exceptions of tr's leaves.
func exceptions(tr *Tree) int {
	nx := 0
	for n := firstLeaf(tr); n != nil; n = n.next {
		nx += int(n.nx)
	}
	return nx
}

// Ids far from their leaf's frame through every write and read, at the
// paper's node and the engine's: a unique tree written with Swap and
// Delete, and a tree of tied keys written with Insert and Delete, whose
// leaves order the entries of one key by ids that exceptions hold. An id is
// near its key's (4k plus a little) or, one time in eight, far above or
// below every other; leaves fill, split, drain and merge with exceptions in
// them, and both trees are checked against a map oracle as they go.
func TestExceptionsAgainstOracle(t *testing.T) {
	for _, order := range []int{testOrder, DefaultOrder} {
		rng := rand.New(rand.NewSource(int64(order)))
		id := func(k float64) uint64 {
			switch rng.Intn(16) {
			case 0:
				return 1<<40 + uint64(rng.Intn(1000))
			case 1:
				return uint64(rng.Intn(4))
			}
			return 4*uint64(k) + 4 + uint64(rng.Intn(4))
		}
		uniq, multi := New(order), New(order)
		uo := map[float64]uint64{}
		var mo []kv
		seenU, seenM := 0, 0
		check := func() {
			t.Helper()
			var want []kv
			for k, id := range uo {
				want = append(want, kv{k, id})
				if got, ok := uniq.Get(k); !ok || got != id {
					t.Fatalf("order %d: Get(%v) = %d, %v; want %d", order, k, got, ok, id)
				}
			}
			holdsExactly(t, uniq, want)
			sortKV(want)
			var fg Finger
			for _, e := range want {
				if got, ok := uniq.GetAscending(&fg, e.key); !ok || got != e.id {
					t.Fatalf("order %d: GetAscending(%v) = %d, %v; want %d", order, e.key, got, ok, e.id)
				}
			}
			holdsExactly(t, multi, mo)
			seenU, seenM = max(seenU, exceptions(uniq)), max(seenM, exceptions(multi))
		}
		for step := range 30_000 {
			k := float64(rng.Intn(2000))
			switch rng.Intn(3) {
			case 0, 1:
				v := id(k)
				uniq.Swap(k, v)
				uo[k] = v
				e := kv{float64(int(k) / 16), id(k)} // about 16 entries a key
				multi.Insert(e.key, e.id)
				mo = append(mo, e)
			default:
				if v, ok := uo[k]; ok {
					if !uniq.Delete(k, v) {
						t.Fatalf("order %d: Delete(%v, %d) missed", order, k, v)
					}
					delete(uo, k)
				}
				if len(mo) > 0 {
					j := rng.Intn(len(mo))
					if e := mo[j]; !multi.Delete(e.key, e.id) {
						t.Fatalf("order %d: Delete(%v, %d) of a tied key missed", order, e.key, e.id)
					}
					mo = slices.Delete(mo, j, j+1)
				}
			}
			if step%3000 == 0 {
				check()
			}
		}
		check()
		if seenU == 0 || seenM == 0 {
			t.Fatalf("order %d: at most %d and %d exceptions in the trees", order, seenU, seenM)
		}
		// Drain both: leaves with exceptions merge and empty.
		for k, v := range uo {
			if !uniq.Delete(k, v) {
				t.Fatalf("order %d: drain Delete(%v, %d) missed", order, k, v)
			}
		}
		for _, e := range mo {
			if !multi.Delete(e.key, e.id) {
				t.Fatalf("order %d: drain Delete(%v, %d) of a tied key missed", order, e.key, e.id)
			}
		}
		uo, mo = map[float64]uint64{}, nil
		check()
	}
}

// A scan over tied keys yields their entries in id order, exceptions
// among them, and a delete or a contains of each finds it: the leaf search
// decodes the ids of a key tie.
func TestExceptionsOrderTiedKeys(t *testing.T) {
	tr := New(DefaultOrder)
	var want []kv
	for i := range 100 {
		e := kv{float64(i / 10), uint64(1000 + i)}
		tr.Insert(e.key, e.id)
		want = append(want, e)
	}
	for _, id := range []uint64{1 << 40, 3, 1<<40 + 1, 1005, 0} {
		e := kv{4, id}
		tr.Insert(e.key, e.id)
		want = append(want, e)
	}
	if nx := exceptions(tr); nx != 4 {
		t.Fatalf("%d exceptions, want 4", nx)
	}
	holdsExactly(t, tr, want)
	sortKV(want)
	for _, e := range want {
		if !tr.Delete(e.key, e.id) {
			t.Fatalf("Delete(%v, %d) missed", e.key, e.id)
		}
		want = want[1:]
		holdsExactly(t, tr, want)
	}
}

// A leaf whose id frame ends past 2^64 − 1 — ids at the top of the range —
// takes exceptions too: the mark, vbase plus all ones, wraps around and
// still marks, and an id below vbase is an exception even where its code
// would wrap into the frame, so that codes keep the ids' order on a key tie.
// Far ids go in by Swap and by Insert, between entries and after them, and
// one leaf is re-encoded with them (key 41 is off the key frame's grid).
func TestExceptionsMarkWraps(t *testing.T) {
	const top = math.MaxUint64 - 200
	uniq, multi := New(DefaultOrder), New(DefaultOrder)
	var want []kv
	for i := range 20 {
		e := kv{float64(2 * i), top + uint64(i)}
		uniq.Swap(e.key, e.id)
		multi.Insert(e.key, e.id)
		want = append(want, e)
	}
	for _, e := range []kv{{5, 7}, {41, 1 << 40}} {
		uniq.Swap(e.key, e.id)
		multi.Insert(e.key, e.id)
		want = append(want, e)
	}
	uniq.Swap(6, 9)
	multi.Insert(6, 9) // a tie with (6, top+3)
	want[3] = kv{6, 9}
	holdsExactly(t, uniq, want)
	for _, e := range want {
		if got, ok := uniq.Get(e.key); !ok || got != e.id {
			t.Fatalf("Get(%v) = %d, %v; want %d", e.key, got, ok, e.id)
		}
	}
	if nx := exceptions(uniq); nx != 3 {
		t.Fatalf("unique tree: %d exceptions, want 3", nx)
	}
	want = append(want, kv{6, top + 3})
	holdsExactly(t, multi, want)
	sortKV(want)
	for _, e := range want {
		if !multi.Delete(e.key, e.id) {
			t.Fatalf("Delete(%v, %d) missed", e.key, e.id)
		}
		want = want[1:]
		holdsExactly(t, multi, want)
	}
}
