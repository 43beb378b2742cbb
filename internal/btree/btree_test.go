package btree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

// testOrder is the node capacity of the tests that want structure — splits,
// merges, hollow nodes, three levels — out of a few hundred keys; at
// DefaultOrder the same keys would sit in one leaf.
const testOrder = 16

func TestEmpty(t *testing.T) {
	tr := New(testOrder)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("len=%d h=%d", tr.Len(), tr.Height())
	}
	called := false
	tr.Scan(0, 100, func(float64, uint64) bool { called = true; return true })
	if called {
		t.Fatal("scan on empty tree called fn")
	}
}

func TestInsertLookup(t *testing.T) {
	tr := New(testOrder)
	for i := 0; i < 1000; i++ {
		tr.Insert(float64(i), uint64(i*10))
	}
	if tr.Len() != 1000 {
		t.Fatalf("len=%d", tr.Len())
	}
	for i := 0; i < 1000; i++ {
		id, ok := tr.Get(float64(i))
		if !ok || id != uint64(i*10) {
			t.Fatalf("key %d: id=%d ok=%v", i, id, ok)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := New(4) // small order to force splits through duplicate runs
	const dups = 500
	for i := 0; i < dups; i++ {
		tr.Insert(42, uint64(i))
	}
	tr.Insert(41, 9999)
	tr.Insert(43, 9998)
	var got []uint64
	tr.Lookup(42, func(id uint64) bool { got = append(got, id); return true })
	if len(got) != dups {
		t.Fatalf("lookup returned %d of %d duplicates", len(got), dups)
	}
	for i, id := range got {
		if id != uint64(i) {
			t.Fatalf("duplicate ids out of order at %d: %d", i, id)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScanRange(t *testing.T) {
	tr := New(testOrder)
	for i := 0; i < 100; i++ {
		tr.Insert(float64(i), uint64(i))
	}
	var keys []float64
	tr.Scan(10, 20, func(k float64, _ uint64) bool { keys = append(keys, k); return true })
	if len(keys) != 11 || keys[0] != 10 || keys[10] != 20 {
		t.Fatalf("scan [10,20]: %v", keys)
	}
	// Inverted range is empty.
	n := 0
	tr.Scan(20, 10, func(float64, uint64) bool { n++; return true })
	if n != 0 {
		t.Fatal("inverted range returned entries")
	}
	// Early termination.
	n = 0
	tr.Scan(0, 99, func(float64, uint64) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop n=%d", n)
	}
}

func TestDelete(t *testing.T) {
	tr := New(testOrder)
	for i := 0; i < 200; i++ {
		tr.Insert(float64(i%50), uint64(i))
	}
	if !tr.Delete(7, 7) {
		t.Fatal("delete existing failed")
	}
	if tr.Delete(7, 7) {
		t.Fatal("double delete succeeded")
	}
	if tr.Delete(1000, 0) {
		t.Fatal("delete missing key succeeded")
	}
	if tr.Contains(7, 7) {
		t.Fatal("deleted entry still present")
	}
	if !tr.Contains(7, 57) {
		t.Fatal("sibling duplicate entry lost")
	}
	if tr.Len() != 199 {
		t.Fatalf("len=%d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoad(t *testing.T) {
	n := 10000
	keys := make([]float64, n)
	ids := make([]uint64, n)
	for i := range keys {
		keys[i] = float64(i)
		ids[i] = uint64(i)
	}
	tr := New(testOrder)
	if err := tr.BulkLoad(keys, ids); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("len=%d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	count := 0
	prev := math.Inf(-1)
	tr.Scan(math.Inf(-1), math.Inf(1), func(k float64, _ uint64) bool {
		if k < prev {
			t.Fatalf("out of order: %v after %v", k, prev)
		}
		prev = k
		count++
		return true
	})
	if count != n {
		t.Fatalf("scan count=%d", count)
	}
	// Mutations after bulk load still work.
	tr.Insert(0.5, 77)
	if !tr.Contains(0.5, 77) {
		t.Fatal("insert after bulk load")
	}
}

func TestBulkLoadErrors(t *testing.T) {
	tr := New(testOrder)
	if err := tr.BulkLoad([]float64{1}, []uint64{1, 2}); err == nil {
		t.Fatal("want length mismatch error")
	}
	if err := tr.BulkLoad([]float64{2, 1}, []uint64{0, 0}); err == nil {
		t.Fatal("want unsorted error")
	}
	if err := tr.BulkLoad(nil, nil); err != nil {
		t.Fatalf("empty bulk load: %v", err)
	}
}

func TestSizeBytesGrows(t *testing.T) {
	tr := New(testOrder)
	empty := tr.SizeBytes()
	for i := 0; i < 10000; i++ {
		tr.Insert(float64(i), uint64(i))
	}
	if tr.SizeBytes() <= empty {
		t.Fatal("size did not grow")
	}
	// Rough sanity: at least 2 bytes/entry (distinct keys and ids take a
	// byte of code each), at most ~100.
	per := float64(tr.SizeBytes()) / 10000
	if per < 2 || per > 100 {
		t.Fatalf("bytes/entry=%v outside sane range", per)
	}
}

func TestHeightGrows(t *testing.T) {
	tr := New(4)
	for i := 0; i < 1000; i++ {
		tr.Insert(float64(i), uint64(i))
	}
	if tr.Height() < 4 {
		t.Fatalf("height=%d, expected deep tree at order 4", tr.Height())
	}
}

// Property: the tree agrees with a reference sorted slice under random
// inserts and deletes, for both orders and random key distributions.
func TestQuickAgainstReference(t *testing.T) {
	type entry struct {
		k float64
		v uint64
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 4 + rng.Intn(29)
		tr := New(order)
		var ref []entry
		for op := 0; op < 4000; op++ {
			if len(ref) > 0 && rng.Float64() < 0.25 {
				i := rng.Intn(len(ref))
				e := ref[i]
				if !tr.Delete(e.k, e.v) {
					return false
				}
				ref = append(ref[:i], ref[i+1:]...)
			} else {
				// Small key space to force duplicates.
				e := entry{k: float64(rng.Intn(50)), v: uint64(op)}
				tr.Insert(e.k, e.v)
				ref = append(ref, e)
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		sort.Slice(ref, func(a, b int) bool {
			if ref[a].k != ref[b].k {
				return ref[a].k < ref[b].k
			}
			return ref[a].v < ref[b].v
		})
		i := 0
		okScan := true
		tr.Scan(math.Inf(-1), math.Inf(1), func(k float64, v uint64) bool {
			if i >= len(ref) || ref[i].k != k || ref[i].v != v {
				okScan = false
				return false
			}
			i++
			return true
		})
		return okScan && i == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: range scans return exactly the reference subset.
func TestQuickRangeScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New(8)
		keys := make([]float64, 2000)
		for i := range keys {
			keys[i] = math.Floor(rng.Float64() * 300)
			tr.Insert(keys[i], uint64(i))
		}
		for trial := 0; trial < 20; trial++ {
			lo := rng.Float64() * 300
			hi := lo + rng.Float64()*100
			want := 0
			for _, k := range keys {
				if k >= lo && k <= hi {
					want++
				}
			}
			got := 0
			tr.Scan(lo, hi, func(k float64, _ uint64) bool {
				if k < lo || k > hi {
					return false
				}
				got++
				return true
			})
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: bulk load and incremental insert produce identical scans.
func TestQuickBulkLoadEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5000)
		keys := make([]float64, n)
		ids := make([]uint64, n)
		for i := range keys {
			keys[i] = math.Floor(rng.Float64() * 100)
			ids[i] = uint64(i)
		}
		inc := New(testOrder)
		for i := range keys {
			inc.Insert(keys[i], ids[i])
		}
		type pair struct {
			k float64
			v uint64
		}
		sorted := make([]pair, n)
		for i := range keys {
			sorted[i] = pair{keys[i], ids[i]}
		}
		sort.Slice(sorted, func(a, b int) bool {
			if sorted[a].k != sorted[b].k {
				return sorted[a].k < sorted[b].k
			}
			return sorted[a].v < sorted[b].v
		})
		sk := make([]float64, n)
		sv := make([]uint64, n)
		for i, p := range sorted {
			sk[i], sv[i] = p.k, p.v
		}
		bl := New(testOrder)
		if err := bl.BulkLoad(sk, sv); err != nil {
			return false
		}
		if err := bl.CheckInvariants(); err != nil {
			return false
		}
		var a, b []pair
		inc.Scan(math.Inf(-1), math.Inf(1), func(k float64, v uint64) bool {
			a = append(a, pair{k, v})
			return true
		})
		bl.Scan(math.Inf(-1), math.Inf(1), func(k float64, v uint64) bool {
			b = append(b, pair{k, v})
			return true
		})
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// benchOrders are the two node capacities the decision for DefaultOrder was
// taken between (see the package comment): `go test -bench Order ./internal/btree`
// reproduces it.
var benchOrders = []int{16, 128}

func BenchmarkOrderInsertRandom(b *testing.B) {
	for _, order := range benchOrders {
		b.Run(fmt.Sprintf("order=%d", order), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			tr := New(order)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Insert(rng.Float64()*1e6, uint64(i))
			}
		})
	}
}

func BenchmarkOrderPointLookup(b *testing.B) {
	for _, order := range benchOrders {
		tr, _ := ascending(1_000_000, order)
		b.Run(fmt.Sprintf("order=%d", order), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := tr.Get(float64(i % 1_000_000)); !ok {
					b.Fatal("missing")
				}
			}
		})
	}
}

func BenchmarkOrderRangeScan1000(b *testing.B) {
	for _, order := range benchOrders {
		tr, _ := ascending(1_000_000, order)
		b.Run(fmt.Sprintf("order=%d", order), func(b *testing.B) {
			b.ReportMetric(float64(tr.SizeBytes())/1e6, "B/entry")
			for i := 0; i < b.N; i++ {
				lo := float64((i * 997) % 999000)
				n := 0
				tr.Scan(lo, lo+999, func(float64, uint64) bool { n++; return true })
				if n != 1000 {
					b.Fatalf("n=%d", n)
				}
			}
		})
	}
}

// heapOf returns the live heap build leaves behind, keeping its result
// reachable until measured.
func heapOf(build func() any) (uint64, any) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return after.HeapAlloc - before.HeapAlloc, v
}

// SizeBytes is what the process holds for an insert-built tree, to within
// 2% — the rest is the measurement's own noise: every node array's capacity
// is a size class and the node header fills its size class too, so neither
// splits nor merges nor deletes leave an array rounded up or pinned larger
// than cap() reports. Each array has the class of what it holds, so the
// trees stay near their entries: an ascending load (every primary index)
// leaves full leaves, and random inserts and a random churn, of one key or
// two, leave half-full to full ones, each in the class that fits it. The
// per-entry caps are 10% above what was measured at 1M entries when leaves
// were packed into frames: 2.93 B/entry ascending (a byte of key code and
// one of id code), 10.18 random and 10.78 after the random churn (5.5 bytes
// of key code and 3 of id code on average); 16.80, 18.10 and 19.24 when
// every entry took 16 bytes. An ascending load churned as the benchmark's
// primary index is (churned: 110k writes on 1M keys, counted per key
// loaded) holds 3.21 with its moved ids as exceptions, 5.22 when each
// widened its leaf's id frame. A two-key tree, whose b keys spread over all
// of [0, 1) in every leaf and so take 7 bytes of b code, holds 17.74 and
// 18.76; 27.0 and 28.9 when it kept three 8-byte arrays and never merged.
func TestHeapMatchesSizeBytes(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	check := func(name string, heap, size uint64, arrays error, maxPerEntry float64) {
		t.Helper()
		per := float64(heap) / float64(n)
		t.Logf("%s: heap %.2f B/entry, SizeBytes %.2f B/entry", name, per, float64(size)/float64(n))
		if d := math.Abs(float64(heap)-float64(size)) / float64(size); d > 0.02 {
			t.Errorf("%s: heap %d B is %.1f%% away from SizeBytes %d B", name, heap, d*100, size)
		}
		if arrays != nil {
			t.Errorf("%s: %v", name, arrays)
		}
		if per > maxPerEntry {
			t.Errorf("%s: %.1f B/entry, want <= %.1f", name, per, maxPerEntry)
		}
	}
	heap, v := heapOf(func() any {
		tr := New(DefaultOrder)
		for i := 0; i < n; i++ {
			tr.Insert(float64(i), uint64(i))
		}
		return tr
	})
	tr := v.(*Tree)
	check("ascending", heap, tr.SizeBytes(), tr.CheckInvariants(), 3.2)

	heap, v = heapOf(func() any {
		rng := rand.New(rand.NewSource(1))
		tr := New(DefaultOrder)
		for i := 0; i < n; i++ {
			tr.Insert(rng.Float64(), uint64(i))
		}
		return tr
	})
	tr = v.(*Tree)
	check("random", heap, tr.SizeBytes(), tr.CheckInvariants(), 11.2)

	// Random churn at n entries: n inserts, then n rounds of deleting the
	// oldest entry (a random key: a second generator on the same seed
	// replays the keys) and inserting a new random one.
	heap, v = heapOf(func() any {
		ins, del := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
		tr := New(DefaultOrder)
		for i := 0; i < n; i++ {
			tr.Insert(ins.Float64(), uint64(i))
		}
		for i := 0; i < n; i++ {
			if !tr.Delete(del.Float64(), uint64(i)) {
				t.Fatalf("churn: entry %d missing", i)
			}
			tr.Insert(ins.Float64(), uint64(n+i))
		}
		return tr
	})
	tr = v.(*Tree)
	check("random churn", heap, tr.SizeBytes(), tr.CheckInvariants(), 11.9)

	heap, v = heapOf(func() any { return churned(n, n*11/100) })
	tr = v.(*Tree)
	check("ascending churn", heap, tr.SizeBytes(), tr.CheckInvariants(), 3.5)

	heap, v = heapOf(func() any {
		rng := rand.New(rand.NewSource(1))
		tr := NewComposite(DefaultOrder)
		for i := 0; i < n; i++ {
			tr.InsertAB(rng.Float64(), rng.Float64(), uint64(i))
		}
		return tr
	})
	tr = v.(*Tree)
	check("composite random", heap, tr.SizeBytes(), tr.CheckInvariants(), 19.5)

	// The same churn on a two-key tree, which merges like a one-key one.
	heap, v = heapOf(func() any {
		ins, del := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
		tr := NewComposite(DefaultOrder)
		for i := 0; i < n; i++ {
			tr.InsertAB(ins.Float64(), ins.Float64(), uint64(i))
		}
		for i := 0; i < n; i++ {
			if !tr.DeleteAB(del.Float64(), del.Float64(), uint64(i)) {
				t.Fatalf("composite churn: entry %d missing", i)
			}
			tr.InsertAB(ins.Float64(), ins.Float64(), uint64(n+i))
		}
		return tr
	})
	tr = v.(*Tree)
	check("composite churn", heap, tr.SizeBytes(), tr.CheckInvariants(), 20.6)
}

// ascending returns a tree of n ascending unique keys built through Swap
// (the primary index's load) and a shuffled probe order over all of them.
func ascending(n, order int) (*Tree, []float64) {
	tr := New(order)
	for i := 0; i < n; i++ {
		tr.Swap(float64(i), uint64(i))
	}
	ks := make([]float64, n)
	for i, p := range rand.New(rand.NewSource(1)).Perm(n) {
		ks[i] = float64(p)
	}
	return tr, ks
}

// churned returns a tree of n ascending unique keys built through Swap,
// then put through ops writes in the mix of the benchmark's hermit-read
// trace on its primary index: in each four, two appended keys, one key
// moved to a new id — the next one, far from its neighbours' — and one key
// deleted, the keys drawn at random.
func churned(n, ops int) *Tree {
	tr := New(DefaultOrder)
	keys := make([]float64, n, n+ops/2)
	ids := make(map[float64]uint64, n+ops/4)
	for i := range n {
		tr.Swap(float64(i), uint64(i))
		keys[i], ids[float64(i)] = float64(i), uint64(i)
	}
	rng := rand.New(rand.NewSource(1))
	next := uint64(n)
	for op := 0; op < ops; op += 4 {
		for range 2 {
			k := float64(next)
			tr.Swap(k, next)
			keys, ids[k] = append(keys, k), next
			next++
		}
		k := keys[rng.Intn(len(keys))]
		tr.Swap(k, next)
		ids[k] = next
		next++
		j := rng.Intn(len(keys))
		k = keys[j]
		if !tr.Delete(k, ids[k]) {
			panic(fmt.Sprintf("churned: key %v missing", k))
		}
		delete(ids, k)
		keys[j] = keys[len(keys)-1]
		keys = keys[:len(keys)-1]
	}
	return tr
}

// A moved row costs its leaf one exception, not a wider id frame: 1M
// ascending Swaps hold 2.96 B/entry, and 110k writes of the hermit-read mix
// — 27.5k of them moving a key to an id far from its neighbours' — leave
// 3.12 B/entry, where widening the leaf's id frame for each left 5.08.
func TestChurnKeepsIDFrames(t *testing.T) {
	tr := churned(1_000_000, 110_000)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leaves, nx := 0, 0
	for n := firstLeaf(tr); n != nil; n = n.next {
		leaves, nx = leaves+1, nx+int(n.nx)
	}
	per := float64(tr.SizeBytes()) / float64(tr.Len())
	t.Logf("%.3f B/entry, %d exceptions in %d leaves", per, nx, leaves)
	if per > 3.2 {
		t.Fatalf("%.3f B/entry after the churn, want <= 3.2", per)
	}
}

// uniqueOrders are the node capacities the unique-key benchmarks sweep: the
// paper's node, the order every tree of the engine runs at, and one between.
var uniqueOrders = []int{16, 64, DefaultOrder}

// The unique-key path at primary-index size: every probe is a different
// random key, so each descent misses the caches the way a point read of a
// large table does.
func BenchmarkGetRandom1M(b *testing.B) {
	for _, order := range uniqueOrders {
		tr, ks := ascending(1_000_000, order)
		b.Run(fmt.Sprintf("order%d", order), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := tr.Get(ks[i%len(ks)]); !ok {
					b.Fatal("missing")
				}
			}
		})
	}
}

// BenchmarkGetRandom1M on a primary index that the hermit-read mix has
// churned (churned): about one entry in 40 reads its id through an
// exception.
func BenchmarkGetChurned1M(b *testing.B) {
	tr := churned(1_000_000, 110_000)
	var ks []float64
	tr.Each(func(k float64, _ uint64) bool { ks = append(ks, k); return true })
	rand.New(rand.NewSource(1)).Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.Get(ks[i%len(ks)]); !ok {
			b.Fatal("missing")
		}
	}
}

// One update's worth of primary-index work: the key's id is replaced.
// BenchmarkMoveRandom1M is the Delete + Insert it replaced.
func BenchmarkSwapRandom1M(b *testing.B) {
	for _, order := range uniqueOrders {
		tr, ks := ascending(1_000_000, order)
		b.Run(fmt.Sprintf("order%d", order), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := tr.Swap(ks[i%len(ks)], uint64(i)); !ok {
					b.Fatal("missing")
				}
			}
		})
	}
}

// A random churn at a constant 1M entries and DefaultOrder, the write pair
// of an engine update: each op deletes the oldest entry and inserts a new
// random one. B/op is what moving arrays between size classes allocates,
// B/entry the tree's size after the ops (`-benchtime 1000000x` is one full
// turnover).
func BenchmarkChurn1M(b *testing.B) {
	const n = 1_000_000
	ins, del := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
	tr := New(DefaultOrder)
	for i := 0; i < n; i++ {
		tr.Insert(ins.Float64(), uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tr.Delete(del.Float64(), uint64(i)) {
			b.Fatal("missing")
		}
		tr.Insert(ins.Float64(), uint64(n+i))
	}
	b.ReportMetric(float64(tr.SizeBytes())/n, "B/entry")
}

func BenchmarkMoveRandom1M(b *testing.B) {
	tr, ks := ascending(1_000_000, 16)
	cur := make([]uint64, len(ks))
	for i := range cur {
		cur[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := ks[i%len(ks)]
		if !tr.Delete(k, cur[int(k)]) {
			b.Fatal("missing")
		}
		cur[int(k)] = uint64(len(ks) + i)
		tr.Insert(k, cur[int(k)])
	}
}
