package trstree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuickselectMatchesSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[i] = rng.NormFloat64()
			case 1:
				vals[i] = float64(rng.Intn(5)) // heavy ties
			default:
				vals[i] = float64(i) // sorted run
			}
		}
		k := rng.Intn(n)
		cp := append([]float64(nil), vals...)
		got := quickselect(cp, k)
		sort.Float64s(vals)
		return got == vals[k]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianOfEdges(t *testing.T) {
	if medianOf(nil) != 0 {
		t.Fatal("empty median")
	}
	if medianOf([]float64{7}) != 7 {
		t.Fatal("single median")
	}
	if m := medianOf([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median=%v", m)
	}
	// Even length returns the lower median.
	if m := medianOf([]float64{4, 1, 3, 2}); m != 2 && m != 3 {
		t.Fatalf("even median=%v", m)
	}
}

func TestStrideSample(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := strideSample(vals, make([]float64, 10))
	if len(s) > 10 || len(s) < 5 {
		t.Fatalf("sample size %d", len(s))
	}
	// Small inputs copied whole.
	s2 := strideSample(vals[:3], make([]float64, 10))
	if len(s2) != 3 {
		t.Fatalf("small sample %d", len(s2))
	}
	// The copy must not alias.
	s2[0] = -1
	if vals[0] == -1 {
		t.Fatal("strideSample aliases input")
	}
}

func TestRobustFitResistsContamination(t *testing.T) {
	// 20% wild contamination must not move the Theil–Sen line materially —
	// the property the OLS-only Compute lacked (docs/ARCHITECTURE.md, "Index
	// construction").
	rng := rand.New(rand.NewSource(9))
	pairs := make([]Pair, 2000)
	for i := range pairs {
		m := rng.Float64() * 100
		n := 3*m + 10
		if i%5 == 0 {
			n = rng.Float64() * 1e6
		}
		pairs[i] = Pair{M: m, N: n, ID: uint64(i)}
	}
	model := robustFit(pairs, make([]float64, len(pairs)))
	if model.Beta < 2.5 || model.Beta > 3.5 {
		t.Fatalf("beta=%v, want ~3 despite contamination", model.Beta)
	}
	if model.Alpha < -40 || model.Alpha > 60 {
		t.Fatalf("alpha=%v, want ~10", model.Alpha)
	}
}

func TestRobustFitDegenerateInputs(t *testing.T) {
	// Fewer than 3 points: falls back to OLS.
	m := robustFit([]Pair{{M: 1, N: 5, ID: 0}, {M: 2, N: 7, ID: 1}}, nil)
	if m.Beta != 2 || m.Alpha != 3 {
		t.Fatalf("two-point fit %+v", m)
	}
	// Constant x: horizontal line through the median host value.
	pairs := []Pair{{M: 5, N: 1}, {M: 5, N: 2}, {M: 5, N: 100}}
	m = robustFit(pairs, make([]float64, len(pairs)))
	if m.Beta != 0 || m.Alpha != 2 {
		t.Fatalf("constant-x fit %+v", m)
	}
}

// oddValues are the values whose order < does not pin down to the bit: NaN
// payloads of both signs, and −0 beside +0; ±Inf and the extremes ride along.
var oddValues = []float64{
	math.NaN(), math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF0000000000002),
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, 1, -1,
}

// genSelectInput draws n values of one shape.
func genSelectInput(shape byte, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	c := rng.NormFloat64()
	for i := range vals {
		switch shape % 7 {
		case 0: // noisy, as a fit's slopes and residuals are
			vals[i] = rng.NormFloat64()
		case 1: // duplicate-heavy
			vals[i] = float64(rng.Intn(4))
		case 2: // all equal
			vals[i] = c
		case 3: // sorted
			vals[i] = float64(i / 2)
		case 4: // reversed
			vals[i] = float64(n - i)
		case 5: // the odd values among a few ordinary ones
			vals[i] = oddValues[rng.Intn(len(oddValues))]
		case 6: // ±Inf and both zeros, no NaN
			vals[i] = oddValues[3+rng.Intn(4)]
		}
	}
	return vals
}

// checkSelect holds medianOf to quickselect's answer on vals, bit for bit,
// and — where vals holds no NaN and no −0 — selectOrdered to the sorted
// order's element of rank k.
func checkSelect(t *testing.T, vals []float64, k int) {
	t.Helper()
	got := medianOf(append([]float64(nil), vals...))
	want := 0.0
	if len(vals) > 0 {
		want = quickselect(append([]float64(nil), vals...), len(vals)/2)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("medianOf of %d values = %v (%#x), quickselect %v (%#x)",
			len(vals), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if len(vals) == 0 {
		return
	}
	for _, v := range vals {
		if v != v || math.Float64bits(v) == negZeroBits {
			return
		}
	}
	k %= len(vals)
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	sel := selectOrdered(append([]float64(nil), vals...), k)
	q := quickselect(append([]float64(nil), vals...), k)
	if want := math.Float64bits(sorted[k]); math.Float64bits(sel) != want || math.Float64bits(q) != want {
		t.Fatalf("rank %d of %d values: selectOrdered %v, quickselect %v, sorted %v", k, len(vals), sel, q, sorted[k])
	}
}

// FuzzMedianOf holds the fit's selection to quickselect, the selection it
// replaced, bit for bit (math.Float64bits). A shape byte below 7 draws size
// values of that shape, 0 to 5000 of them; shape 7 and above reads raw as
// little-endian float64 bit patterns, so the fuzzer can place NaN payloads
// and signed zeros anywhere.
func FuzzMedianOf(f *testing.F) {
	var raw []byte
	for i, v := range oddValues {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(float64(i%3)))
	}
	f.Add(byte(7), uint16(0), uint16(0), raw)
	f.Add(byte(7), uint16(0), uint16(3), raw[:8*7])
	for shape := byte(0); shape < 7; shape++ {
		for _, n := range []uint16{0, 1, 2, 3, 127, 128, 255, 1024, 4096, 5000} {
			f.Add(shape, n, n/3, []byte{})
		}
	}
	f.Fuzz(func(t *testing.T, shape byte, size, k uint16, raw []byte) {
		if shape < 7 {
			checkSelect(t, genSelectInput(shape, int(size)%5001, int64(size)*7+int64(shape)), int(k))
			return
		}
		var vals []float64
		for ; len(raw) >= 8 && len(vals) < 5000; raw = raw[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		}
		checkSelect(t, vals, int(k))
	})
}
