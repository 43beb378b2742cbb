package trstree

import (
	"bytes"
	"crypto/sha256"
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

func saveHash(t *testing.T, tr *Tree) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestBuildGolden pins the tree Build returns, node for node and bit for
// bit: the hashes are of Save's output at the commit before construction
// was rewritten (radix partition scratch, streaming fit), recorded with the
// builder that allocated every intermediate. A change to build.go that
// alters any model, eps, outlier or its order fails here before it moves
// index_bytes_per_row.
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
		name   string
		pairs  []Pair
		params Params
		want   string
	}{
		{"benchmark-50k", genBenchmarkShape(50_000), DefaultParams(),
			"f232958a922a5031f8486de75acd757a8ce45d4b8d3fcb532ed88d6063eb36e6"},
		{"benchmark-200k", genBenchmarkShape(200_000), DefaultParams(),
			"2dd3d9ccce5bb2014844716dc3a0be732bbb04f7af77497f4d7dda28aab97c79"},
		{"benchmark-1M", genBenchmarkShape(1_000_000), DefaultParams(),
			"80e0f320921f7d7208d968aec40daf1824dd8dbc5e57c3ea721d23ee38eda883"},
		{"sigmoid-40k-noise2", genSigmoid(40_000, 1000, 0.02, 21), DefaultParams(),
			"62b621b6aec00236768d495b2793a4aeeb8556233278163b4c02c173a19f097f"},
		{"linear-10k-noise5", genLinear(10_000, 1000, 0.05, 5), DefaultParams(),
			"c91c3856443f564a0017723e32e8506c8230e4488114097f57098754aa3237ad"},
		{"sigmoid-700-tiny-leaves", genSigmoid(700, 1000, 0.1, 9), small,
			"d8ed82cfff4d8ebd79350056044a4097ed9b0cb698a51ca30f9c1747002f6488"},
		{"flat-3000", flat, DefaultParams(),
			"c21c516c7cff775d31a9593bbff308a1f86d012ec06977a250e09e5a891ba355"},
	}
	for _, c := range cases {
		tr, err := Build(c.pairs, 1, 0, c.params) // lo>hi: derive range from data
		if err != nil {
			t.Fatal(err)
		}
		if got := saveHash(t, tr); got != c.want {
			st := tr.Stats()
			t.Errorf("%s: sha256(Save) = %s, want %s (nodes %d, outliers %d, size %d B)",
				c.name, got, c.want, st.Nodes, st.Outliers, st.SizeBytes)
		}
	}
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
