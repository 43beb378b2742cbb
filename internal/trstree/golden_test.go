package trstree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// genBenchmarkShape produces pairs in the shape of the repository
// benchmark's preloaded table (benchmark/data.go): the target on a grid of
// 2^22 quanta over [0, 1000), the host its sigmoid, every hundredth row (by
// a hash of its key) replaced by uniform noise, identifiers in load order.
func genBenchmarkShape(n int) []Pair {
	const quanta, span = 1 << 22, 1000.0
	mix := func(x uint64) uint64 { // splitmix64's finaliser
		x += 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		return x ^ (x >> 31)
	}
	rng := rand.New(rand.NewSource(0x5EED7AB1E))
	out := make([]Pair, n)
	for i := range out {
		m := float64(rng.Int31n(quanta)) * (span / quanta)
		hv := 10000 / (1 + math.Exp(-(m-span/2)/(span/12)))
		if h := mix(uint64(i)); h%100 == 0 {
			hv = float64(mix(h)>>11) / (1 << 53) * 12000
		}
		out[i] = Pair{M: m, N: hv, ID: uint64(i)}
	}
	return out
}

// fingerprint is the sha256 of the tree in the snapshot format the
// package once saved trees in, which the golden hashes were recorded over:
// a little-endian pre-order dump of
//
//	"TRST", uint16 version 1, the parameters, then per node
//	  flags byte (leaf 1 | left edge 2 | right edge 4), lo, hi, and
//	  leaf:  beta, alpha, eps, uint64 count, uint64 0, uint64 outliers, records
//	  inner: uint32 NodeFanout, then the children in order
//
// where the 0 held a deletes counter no leaf keeps any more, and a record
// is its float32 code and uint64 id — or, when codes is false, its id
// alone: the structure hash, which is the same for every encoding of the
// outlier values (it was recorded while the records held the values
// themselves as float64s).
func fingerprint(tr *Tree, codes bool) string {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	h := sha256.New()
	put := func(vals ...any) {
		for _, v := range vals {
			_ = binary.Write(h, binary.LittleEndian, v) // a hash never fails a write
		}
	}
	p := tr.params
	put([]byte("TRST"), uint16(1), uint32(p.NodeFanout), uint32(p.MaxHeight),
		p.OutlierRatio, p.ErrorBound, p.SampleRate, p.UnionRanges, uint32(p.MinLeafPairs))
	k := p.NodeFanout
	var node func(r ref, s span)
	node = func(r ref, s span) {
		var flags byte
		if r.isLeaf() {
			flags |= 1
		}
		if s.left {
			flags |= 2
		}
		if s.right {
			flags |= 4
		}
		put(flags, s.lo, s.hi)
		if r.isLeaf() {
			l := &tr.leaves[r.slot()]
			put(l.model.Beta, l.model.Alpha, l.eps, uint64(l.count), uint64(0), uint64(l.n))
			for i := l.off; i < l.off+l.n; i++ {
				if codes {
					put(tr.code(i))
				}
				put(tr.id(i))
			}
			return
		}
		put(uint32(k))
		w := s.width(k)
		for i, c := range tr.kids(r) {
			node(c, s.child(w, i, k))
		}
	}
	node(tr.root, tr.bounds)
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildGolden pins the tree Build returns, node for node and bit for
// bit, by two hashes of its fingerprint. The structure hash leaves the
// outlier values out: it was recorded before construction was rewritten
// (radix partition scratch, streaming fit) with the builder that allocated
// every intermediate — as the full fingerprint was then — and has held
// since. The full hash has each record's code, and moved, alone, when the
// records took float32 codes in place of float64 values. A change to
// build.go that alters any model, eps, outlier or its order fails here
// before it moves index_bytes_per_row.
func TestBuildGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other architectures may fuse multiply-adds")
	}
	small := DefaultParams()
	small.MinLeafPairs = 4
	flat := make([]Pair, 3000) // one target value: partition sends all to bucket 0
	for i := range flat {
		flat[i] = Pair{M: 7, N: float64(i % 13), ID: uint64(i)}
	}
	cases := []struct {
		name            string
		pairs           []Pair
		params          Params
		structure, want string
	}{
		{"benchmark-50k", genBenchmarkShape(50_000), DefaultParams(),
			"46b67f55482bc8537313c4651d85f6de460e7f48c1c7a82513aa10f0e3fbaa6a",
			"e55953e3b78ff99e4d0a139f4814d591ad9fa35689cdce16620c05c4637d48b7"},
		{"benchmark-200k", genBenchmarkShape(200_000), DefaultParams(),
			"0c7188f13ee8a791fdd98e3ec9eea5fb5df84467e79ae6b648f773892c09855a",
			"359b828ea2f2a0587f840b3d7e82dd7ab07194fb327e0ce924eed9efa7832772"},
		{"benchmark-1M", genBenchmarkShape(1_000_000), DefaultParams(),
			"e849d2bd2a21f4b8dc5852aaac3e8090b5c4a52c473bb3eef57ce9b7e6322cdc",
			"8cabf53b17312e488bf3b1554a1186c82c3d405b8f6e6902e2a35d3dada27227"},
		{"sigmoid-40k-noise2", genSigmoid(40_000, 1000, 0.02, 21), DefaultParams(),
			"de4b87411ecf53747181e5e5f77dbf2e5e14f1c797cb40204570fcb58c8c7948",
			"dd51d467803dd992e02cacc223aef868b0587da1a7ad312b34fb2d62ad65572b"},
		{"linear-10k-noise5", genLinear(10_000, 1000, 0.05, 5), DefaultParams(),
			"71035ac42a6d7ba43212b19b3e01c365d75e75c1a59583ae64a642061e2aefd8",
			"3dda1e03b74e3ff00b78437bc62ec7048fd1a4716fb4da3aa264879e915ae314"},
		{"sigmoid-700-tiny-leaves", genSigmoid(700, 1000, 0.1, 9), small,
			"cd66ab3138dfed7fcb33962fbe39066ff4f149a76454bd63a92c5036f70c061f",
			"52d78d4d13561f1fda3647d3294099fa84c04326064bb07bce5461371714c903"},
		{"flat-3000", flat, DefaultParams(),
			"1deddf221e65f178914427ecba0e7270f137b67ef358762e2c19eed960d87785",
			"2779bad357973f5653b3216590ac09642287c094324e00830432e07d4fa117d1"},
	}
	for _, c := range cases {
		tr, err := Build(c.pairs, 1, 0, c.params) // lo>hi: derive range from data
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(tr, false); got != c.structure {
			t.Errorf("%s: structure hash %s, want %s", c.name, got, c.structure)
		}
		if got := fingerprint(tr, true); got != c.want {
			st := tr.Stats()
			t.Errorf("%s: fingerprint %s, want %s (nodes %d, outliers %d, size %d B)",
				c.name, got, c.want, st.Nodes, st.Outliers, st.SizeBytes)
		}
	}
}

// TestBuildParallelGolden pins the tree BuildParallel returns — the
// builder a Hermit index is created with when it is given build workers;
// the engine gives none, so its indexes take Build's tree — over the
// benchmark's 1M-row shape, by TestBuildGolden's two hashes: the
// structure hash as recorded before the tree's nodes moved into flat
// arrays, the full one since the records took float32 codes. Both are the
// same for every worker count.
func TestBuildParallelGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hash recorded on amd64; other architectures may fuse multiply-adds")
	}
	const (
		structure = "0c24e2dab13b24467080fb79e379e73191cfd0e75ee1e9386526bb8125490e35"
		want      = "b838d5f456ab712d36b832c49847e0913360548c8e7b1d600212ad14c7d3a3e5"
	)
	src := genBenchmarkShape(1_000_000)
	for _, workers := range []int{2, 4} {
		tr, err := BuildParallel(append([]Pair(nil), src...), 1, 0, DefaultParams(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(tr, false); got != structure {
			t.Errorf("%d workers: structure hash %s, want %s", workers, got, structure)
		}
		if got := fingerprint(tr, true); got != want {
			t.Errorf("%d workers: fingerprint %s, want %s", workers, got, want)
		}
	}
}

// TestHeapMatchesSizeBytes: SizeBytes is what the heap holds for trees, to
// within 3 %: as built; after an outlier churn of 200k uncovered inserts,
// 100k of them deleted again, which moves runs about the arena, leaves dead
// slots and rewrites it; and after 200k deletes and a ReorgSubtree of every
// first-level subtree, which leave freed slots, free lists and node arrays
// grown by append. The trees are built over the benchmark's 1M-row shape,
// so the figure index_bytes_per_row reports is bytes the process keeps.
func TestHeapMatchesSizeBytes(t *testing.T) {
	const trees, deletes, churn = 6, 200_000, 200_000
	src := genBenchmarkShape(1_000_000)
	pairs := make([]Pair, len(src))
	kept := make([]*Tree, 0, trees)
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
		t.Logf("%s: heap %d B, SizeBytes %d B for %d trees (%.3f B/row each)", what, heap, size, trees, float64(size)/trees/1e6)
		if d := math.Abs(float64(heap)-float64(size)) / float64(size); d > 0.03 {
			t.Errorf("%s: heap %d B is %.1f%% away from SizeBytes %d B", what, heap, d*100, size)
		}
	}
	for range trees {
		copy(pairs, src)
		tr, err := BuildParallel(pairs, 1, 0, DefaultParams(), 2)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, tr)
	}
	check("built")
	// The host values lie in [0, 12000]: 1e9 is off every leaf's model.
	rng := rand.New(rand.NewSource(7))
	extra := make([]Pair, churn)
	for i := range extra {
		extra[i] = Pair{M: rng.Float64() * 1000, N: 1e9, ID: uint64(1<<40 + i)}
	}
	for _, tr := range kept {
		for _, p := range extra {
			tr.Insert(p.M, p.N, p.ID)
		}
		for _, p := range extra[:churn/2] {
			tr.Delete(p.M, p.N, p.ID)
		}
	}
	check("churned")
	for _, tr := range kept {
		for _, p := range src[:deletes] {
			tr.Delete(p.M, p.N, p.ID)
		}
		reorgAll(t, tr, pairSource(src[deletes:]))
	}
	check("rebuilt")
	runtime.KeepAlive(src)
	runtime.KeepAlive(pairs)
}

// pairSource is a DataSource over a fixed set of pairs.
type pairSource []Pair

func (s pairSource) ScanMRange(lo, hi float64, fn func(m, n float64, id uint64) bool) error {
	for _, p := range s {
		if p.M >= lo && p.M <= hi && !fn(p.M, p.N, p.ID) {
			break
		}
	}
	return nil
}

// TestBuildAllocBound: construction works in the pairs array, one scratch of
// the same size and the builder's fit scratch, so it allocates a small
// multiple of its input (1.2x when this was written; the builder that
// collected inliers and outliers by append and partitioned into a fresh
// array per level allocated 8.5x).
func TestBuildAllocBound(t *testing.T) {
	pairs := genBenchmarkShape(200_000)
	input := uint64(len(pairs)) * 24
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Build(pairs, 1, 0, DefaultParams())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 3*input {
		t.Errorf("Build of %d B of pairs allocated %d B, over 3x", input, got)
	}
	runtime.KeepAlive(tr)
}

// BenchmarkBuildBenchmarkShape builds the tree of the repository
// benchmark's 1M-row table (TestBuildGolden's benchmark-1M case) once per
// iteration, from a fresh copy of its pairs.
func BenchmarkBuildBenchmarkShape(b *testing.B) {
	src := genBenchmarkShape(1_000_000)
	pairs := make([]Pair, len(src))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(pairs, src)
		b.StartTimer()
		if _, err := Build(pairs, 1, 0, DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}
