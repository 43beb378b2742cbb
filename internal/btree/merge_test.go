package btree

import (
	"math/rand"
	"testing"
)

// eachKVs returns the tree's entries as Each walks them (the leaf chain).
func eachKVs(tr *Tree) []kv {
	var got []kv
	tr.Each(func(k float64, id uint64) bool { got = append(got, kv{k, id}); return true })
	return got
}

// The tree's size must follow the entries it holds, not the writes it has
// seen. Two workloads at a constant entry count: a sliding window (ascending
// Swap, delete the oldest — every leaf is emptied from the left, so without
// merging the tree keeps one empty leaf per leaf it ever filled and grows
// linearly in the ops) and a random churn (delete a random entry, insert a
// random one — without merging the occupancy decays to the point where
// deletes hollow nodes out as fast as splits make them). Both are bounded
// against the tree as first built with that many entries.
func TestDeleteMergesHollowNodes(t *testing.T) {
	const window = 10_000
	ops := 1_000_000
	if testing.Short() {
		ops = 100_000
	}
	for _, order := range []int{4, 16, 128} {
		// Sliding window.
		tr := New(order)
		for i := 0; i < window; i++ {
			tr.Swap(float64(i), uint64(i))
		}
		built := tr.SizeBytes()
		for i := window; i < window+ops; i++ {
			tr.Swap(float64(i), uint64(i))
			if !tr.Delete(float64(i-window), uint64(i-window)) {
				t.Fatalf("order %d: window entry %d missing", order, i-window)
			}
			if i%(ops/20) == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("order %d, window at %d: %v", order, i, err)
				}
			}
		}
		if got := tr.SizeBytes(); got > built*3/2 {
			t.Errorf("order %d: window of %d entries holds %d B after %d ops, %d B as built", order, window, got, ops, built)
		}
		if got := eachKVs(tr); len(got) != window || got[0].id != uint64(ops) || got[window-1].id != uint64(ops+window-1) {
			t.Fatalf("order %d: window walk has %d entries", order, len(got))
		}

		// Random churn: ids are unique, keys collide.
		rng := rand.New(rand.NewSource(int64(order)))
		tr = New(order)
		live := make([]kv, 0, window)
		add := func(id uint64) {
			e := kv{float64(rng.Intn(4 * window)), id}
			tr.Insert(e.key, e.id)
			live = append(live, e)
		}
		for i := 0; i < window; i++ {
			add(uint64(i))
		}
		built = tr.SizeBytes()
		for i := 0; i < ops; i++ {
			j := rng.Intn(len(live))
			if !tr.Delete(live[j].key, live[j].id) {
				t.Fatalf("order %d: churn entry %v missing", order, live[j])
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			add(uint64(window + i))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("order %d after churn: %v", order, err)
		}
		if got := tr.SizeBytes(); got > built*3/2 {
			t.Errorf("order %d: churn at %d entries holds %d B after %d ops, %d B as built", order, window, got, ops, built)
		}
		sortKV(live)
		if got := eachKVs(tr); !sameKVs(got, live) {
			t.Fatalf("order %d: leaf chain after churn differs from the entries held", order)
		}

		// A bulk-loaded tree drained like a queue. Its internal nodes are
		// fuller than a merge may leave one, so a parent drained down to one
		// empty leaf stays until its right neighbour has drained to a few
		// children too.
		const loaded, left = 100_000, 1_000
		keys, ids := make([]float64, loaded), make([]uint64, loaded)
		for i := range keys {
			keys[i], ids[i] = float64(i), uint64(i)
		}
		small, tr := New(order), New(order)
		if err := small.BulkLoad(keys[loaded-left:], ids[loaded-left:]); err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(keys, ids); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < loaded-left; i++ {
			tr.Delete(keys[i], ids[i])
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("order %d after the drain: %v", order, err)
		}
		if got, want := tr.SizeBytes(), small.SizeBytes(); got > want*3/2 {
			t.Errorf("order %d: %d entries left of a bulk load of %d hold %d B, %d B loaded alone", order, left, loaded, got, want)
		}
	}
}

// Every merge shape on trees small enough to check after each op: draining
// a tree of three to five levels from the left, from the right, from the
// middle and at random merges leaves and internal nodes as first, inner and
// last children, and collapses the root level by level.
func TestDeleteMergesEveryShape(t *testing.T) {
	const n = 300
	orders := map[string]func(i int) int{
		"ascending":  func(i int) int { return i },
		"descending": func(i int) int { return n - 1 - i },
		"inside-out": func(i int) int { return (n/2 + (i+1)/2*(1-2*(i%2)) + n) % n },
	}
	perm := rand.New(rand.NewSource(7)).Perm(n)
	orders["random"] = func(i int) int { return perm[i] }
	for name, at := range orders {
		for _, order := range []int{4, 5, 8} {
			tr := New(order)
			for i := 0; i < n; i++ {
				tr.Swap(float64(i), uint64(i))
			}
			top := tr.Height()
			for i := 0; i < n; i++ {
				k := at(i)
				if !tr.Delete(float64(k), uint64(k)) {
					t.Fatalf("%s order %d: entry %d missing", name, order, k)
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("%s order %d after deleting %d: %v", name, order, k, err)
				}
				if _, ok := tr.Get(float64(k)); ok {
					t.Fatalf("%s order %d: Get finds deleted key %d", name, order, k)
				}
				if got := len(eachKVs(tr)); got != n-1-i {
					t.Fatalf("%s order %d: %d entries on the leaf chain, want %d", name, order, got, n-1-i)
				}
			}
			if tr.Height() != 1 || top < 3 {
				t.Fatalf("%s order %d: height %d after draining a tree of height %d", name, order, tr.Height(), top)
			}
			// The drained tree is as good as new.
			for i := 0; i < n; i++ {
				tr.Swap(float64(i), uint64(i))
			}
			if err := tr.CheckInvariants(); err != nil || tr.Len() != n {
				t.Fatalf("%s order %d: refill: len %d, %v", name, order, tr.Len(), err)
			}
		}
	}
}
