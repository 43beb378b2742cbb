package trstree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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

// fingerprint is the sha256 of a little-endian pre-order dump of the
// tree:
//
//	"TRST", uint16 version 1, the parameters, then per node
//	  flags byte (leaf 1 | left edge 2 | right edge 4), lo, hi, and
//	  leaf:  beta, alpha, [eps as a float64,] uint64 outliers, records
//	  inner: uint32 NodeFanout, then the children in order
//
// where a record is [its code and] its uint64 id, [and then the edge
// leaves' grids, a uint16 shift and under each]. What the hash covers
// tells a change of the tree's shape from one of its fields' widths.
func fingerprint(tr *Tree, c covers) string {
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
			put(l.model.Beta, l.model.Alpha)
			if c >= withEps {
				put(float64(l.eps))
			}
			put(uint64(l.n))
			for i := l.off; i < l.off+l.n; i++ {
				if c >= withCodes {
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
	node(tr.root, tr.rootSpan())
	if c >= withCodes {
		put(tr.edge)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// covers is what a fingerprint hashes.
type covers int

const (
	// shapeOnly is the spans, edge flags, models and each leaf's outlier
	// ids in order: the tree's shape, which no change to how a leaf stores
	// eps or a record stores its target value moves.
	shapeOnly covers = iota
	withEps          // and each leaf's stored eps
	withCodes        // and each record's code, and the edge leaves' grids
)

// TestBuildGolden pins the tree Build returns, node for node and bit for
// bit, by three hashes of its fingerprint, and its SizeBytes. The shape
// hash leaves out every leaf's eps and every record's code, the fields
// whose widths the tree chooses: it is the one the trees had while a leaf
// held a float64 eps and a record a float32 offset, and a change to how
// either is stored must leave it as it is. The structure hash adds each
// eps, and the full hash each code too. A change to build.go that alters
// any model, eps, outlier or its order fails here before it moves
// index_bytes_per_row, and a change to the tree's layout that moves
// index_bytes_per_row fails the size.
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
		name                  string
		pairs                 []Pair
		params                Params
		shape, structure, all string
		size                  uint64
	}{
		{"benchmark-50k", genBenchmarkShape(50_000), DefaultParams(),
			"02fa7434f8b61ec3733501b1aea7598d9edc2dac5046aa12cab6d65c24eb5cbd",
			"3f1390cf4f81dfcd8f135053f5bf10a2347ce50f61d91972710b813abe1269e9",
			"4281dfaf0d3da6f81a1ef66a4864eaad68596a95666d5c75cc201ec3c814af82", 21312},
		{"benchmark-200k", genBenchmarkShape(200_000), DefaultParams(),
			"45a21389b557f1614c2268b4548b9e2a16fdd4a07747be50c7f1b32e056d5490",
			"7788a78f7c7920dce84539e6c7d6760e414f4c8e08ec4a5226d5d7d6622c6dda",
			"7d4c710af66aa6cac4c5a18231cf3136c6e075c0a553fbacbf56e13038c4c67f", 30272},
		{"benchmark-1M", genBenchmarkShape(1_000_000), DefaultParams(),
			"88c6be078261025503756d6afca7a502927b6ece7205f09a0ae2c773c68c27f5",
			"53f43490149cc14b23b6f2b5876616b5a5e17a514a38711dfd1bc02cd42537ab",
			"44c1a4b488a94d39f10c151c9979093dae02911acc1838083cfa30afbb805e95", 207168},
		{"sigmoid-40k-noise2", genSigmoid(40_000, 1000, 0.02, 21), DefaultParams(),
			"000f664c08d51401a79ee09df03fdf7994a7a4194618c3ef90a1c4f4dd105a61",
			"8887ea7ea8d26190d96d6aa2ed24c23f941c7764f61cff5e4c710ff1bcf89462",
			"3edd17000f82346440514d5d28fd604838da888fbb3e72578a0bf9c85d511b87", 22208},
		{"linear-10k-noise5", genLinear(10_000, 1000, 0.05, 5), DefaultParams(),
			"2cbb87de5695646469b1b8d37b8fdc3c8d4aeeb4db7e7c60af6a2f2827f27fe9",
			"8ef05f55c865938228365754231b9b52d6ed1fa552b92e1892d7433ea288229b",
			"dc58d1496579349f416ae67802de44e13eec923fca24da82938e3729d52cbd41", 2376},
		{"sigmoid-700-tiny-leaves", genSigmoid(700, 1000, 0.1, 9), small,
			"291f63077ae28b5aceddca16497bbafc3ce62ff7769ffc42c449a07cf1e00e68",
			"680bd8fcc6392f5c971c37a566926060f8a6ebbe8ead7c960e33a897e587cc77",
			"1a7b6632c3b988a131f17d0badbf040aa77b11ff0d627b9a47b63774e337e346", 7888},
		{"flat-3000", flat, DefaultParams(),
			"92ab36e601a849c6e2857f14a7a020d8471d3790b0b38013212fccc620b1e94a",
			"ac5d0a583ca14b777765dbade2249babc73f6db0921d33c73ade556dec0a74f4",
			"878fca10d56b53d23622cdace3cb9b564dc97ae916316fdd38aa78295a158a05", 12616},
	}
	for _, c := range cases {
		tr, err := Build(c.pairs, 1, 0, c.params) // lo>hi: derive range from data
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, c.name, tr, c.shape, c.structure, c.all, c.size)
	}
}

// checkGolden compares tr's three fingerprints and its SizeBytes with the
// pinned ones.
func checkGolden(t *testing.T, name string, tr *Tree, shape, structure, all string, size uint64) {
	t.Helper()
	for _, h := range []struct {
		what string
		c    covers
		want string
	}{{"shape", shapeOnly, shape}, {"structure", withEps, structure}, {"full", withCodes, all}} {
		if got := fingerprint(tr, h.c); got != h.want {
			t.Errorf("%s: %s hash %s, want %s", name, h.what, got, h.want)
		}
	}
	if st := tr.Stats(); st.SizeBytes != size {
		t.Errorf("%s: %d B (nodes %d, outliers %d), want %d B", name, st.SizeBytes, st.Nodes, st.Outliers, size)
	}
}

// TestBuildParallelGolden pins the tree BuildParallel returns — the
// builder a Hermit index is created with when it is given build workers;
// the engine gives none, so its indexes take Build's tree — over the
// benchmark's 1M-row shape, by TestBuildGolden's three hashes and its
// SizeBytes. All are the same for every worker count.
func TestBuildParallelGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hash recorded on amd64; other architectures may fuse multiply-adds")
	}
	const (
		shape     = "83504a52995298c45896c6fc444c6656045fa3dbea9bcc6ee274f5347e1aa05e"
		structure = "3b553dac5559540085df8ee3004e907be328acaf4e8107302ffc35493fa4e64e"
		all       = "6200593d1382f9b7363ae44e22cf039fdc48a039ca83e3ccbb26205fbaa0e559"
		size      = 207168
	)
	src := genBenchmarkShape(1_000_000)
	for _, workers := range []int{2, 4} {
		tr, err := BuildParallel(append([]Pair(nil), src...), 1, 0, DefaultParams(), workers)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fmt.Sprintf("%d workers", workers), tr, shape, structure, all, size)
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
