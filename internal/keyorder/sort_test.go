package keyorder

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// refSorter is the reference the kernels replaced: sort.Sort over the
// parallel arrays with an interface Less, (a, b, id) under the total order.
// SortPairs is checked against it with every b equal.
type refSorter struct {
	as, bs []float64
	ids    []uint64
}

func (s refSorter) Len() int { return len(s.as) }

func (s refSorter) Less(x, y int) bool {
	if c := Compare(s.as[x], s.as[y]); c != 0 {
		return c < 0
	}
	if c := Compare(s.bs[x], s.bs[y]); c != 0 {
		return c < 0
	}
	return s.ids[x] < s.ids[y]
}

func (s refSorter) Swap(x, y int) {
	s.as[x], s.as[y] = s.as[y], s.as[x]
	s.bs[x], s.bs[y] = s.bs[y], s.bs[x]
	s.ids[x], s.ids[y] = s.ids[y], s.ids[x]
}

// sameOrder fails unless got is want bit for bit. Entries that tie under
// the order — one key, one id, told apart only by the sign of a zero — form
// a group that may come out in any order, so a group is compared as a set.
func sameOrder(t *testing.T, what string, got, want refSorter) {
	t.Helper()
	n := want.Len()
	if got.Len() != n || len(got.bs) != n || len(got.ids) != n {
		t.Fatalf("%s: lengths changed", what)
	}
	bits := func(s refSorter, i int) [3]uint64 {
		return [3]uint64{math.Float64bits(s.as[i]), math.Float64bits(s.bs[i]), s.ids[i]}
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && !want.Less(j-1, j) {
			j++
		}
		seen := make(map[[3]uint64]int, j-i)
		for k := i; k < j; k++ {
			seen[bits(want, k)]++
			seen[bits(got, k)]--
		}
		for e, c := range seen {
			if c != 0 {
				t.Fatalf("%s: entries %d..%d differ from the reference at %x", what, i, j-1, e)
			}
		}
		i = j
	}
}

func checkSorts(t *testing.T, as, bs []float64, ids []uint64) {
	t.Helper()
	clone := func(as, bs []float64) refSorter {
		return refSorter{append([]float64(nil), as...), append([]float64(nil), bs...), append([]uint64(nil), ids...)}
	}
	flat := make([]float64, len(as))
	want, got := clone(as, flat), clone(as, flat)
	sort.Sort(want)
	SortPairs(got.as, got.ids)
	sameOrder(t, "SortPairs", got, want)

	want, got = clone(as, bs), clone(as, bs)
	sort.Sort(want)
	SortTriples(got.as, got.bs, got.ids)
	sameOrder(t, "SortTriples", got, want)
}

// awkward are the keys ordinary comparison cannot place, and their
// neighbours.
var awkward = []float64{
	0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64,
	math.NaN(), math.Float64frombits(0x7ff8000000000002),
	math.Float64frombits(0xfff8000000000001), math.Float64frombits(0xfff8000000000002),
}

// genSortInput builds n entries of one of the shapes the fuzz seeds name.
func genSortInput(shape byte, n int, seed int64) (as, bs []float64, ids []uint64) {
	rng := rand.New(rand.NewSource(seed))
	as, bs, ids = make([]float64, n), make([]float64, n), make([]uint64, n)
	for i := range as {
		switch shape % 6 {
		case 0: // finite, ids in scan order
			as[i], bs[i], ids[i] = rng.NormFloat64()*1e3, rng.Float64(), uint64(i)
		case 1: // heavy duplicates, ids shuffled
			as[i], bs[i], ids[i] = float64(rng.Intn(7)), float64(rng.Intn(3)), uint64(rng.Intn(n))
		case 2: // the awkward keys, few ids: -0 and +0 meet under one id
			as[i], bs[i], ids[i] = awkward[rng.Intn(len(awkward))], awkward[rng.Intn(len(awkward))], uint64(rng.Intn(4))
		case 3: // already sorted
			as[i], bs[i], ids[i] = float64(i/3), float64(i%3), uint64(i)
		case 4: // reverse
			as[i], bs[i], ids[i] = float64(n-i), float64(i%5), uint64(n-i)
		case 5: // arbitrary bit patterns, ids over the whole word
			as[i], bs[i], ids[i] = math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()), rng.Uint64()
		}
	}
	return as, bs, ids
}

func TestSortMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 2, insertionMax, insertionMax + 1, 1000, parallelMin + 77}
	for _, gmp := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(gmp)
		for shape := byte(0); shape < 6; shape++ {
			for _, n := range sizes {
				as, bs, ids := genSortInput(shape, n, int64(n)+int64(shape))
				checkSorts(t, as, bs, ids)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// FuzzSortPairs reads its input as 24-byte entries (a, b, id) after a shape
// byte: shape 0 takes the bytes as they are, the others draw a generated
// input of that many entries, so the corpus reaches the radix and the
// two-goroutine paths without megabyte inputs.
func FuzzSortPairs(f *testing.F) {
	var raw []byte
	for i, k := range awkward {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(k))
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(awkward[len(awkward)-1-i]))
		raw = binary.LittleEndian.AppendUint64(raw, uint64(i%3))
	}
	f.Add(byte(0), uint32(0), raw)
	f.Add(byte(0), uint32(0), append(raw, raw...))
	for shape := byte(1); shape <= 6; shape++ {
		f.Add(shape, uint32(300), []byte{})
		f.Add(shape, uint32(parallelMin+5), []byte{})
	}
	f.Fuzz(func(t *testing.T, shape byte, n uint32, raw []byte) {
		if shape != 0 {
			as, bs, ids := genSortInput(shape-1, int(n%(2*parallelMin)), int64(n))
			checkSorts(t, as, bs, ids)
			return
		}
		var as, bs []float64
		var ids []uint64
		for ; len(raw) >= 24; raw = raw[24:] {
			as = append(as, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			bs = append(bs, math.Float64frombits(binary.LittleEndian.Uint64(raw[8:])))
			ids = append(ids, binary.LittleEndian.Uint64(raw[16:]))
		}
		checkSorts(t, as, bs, ids)
	})
}

func BenchmarkSortPairs(b *testing.B) {
	as, _, ids := genSortInput(0, 1_000_000, 1)
	keys, tie := make([]float64, len(as)), make([]uint64, len(ids))
	b.SetBytes(16 * int64(len(as)))
	for i := 0; i < b.N; i++ {
		copy(keys, as)
		copy(tie, ids)
		SortPairs(keys, tie)
	}
}
