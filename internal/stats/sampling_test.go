package stats

import (
	"math"
	"testing"
)

func TestReservoirKeepsEverythingUnderCapacity(t *testing.T) {
	r := NewReservoir(10, 1)
	for i := 0; i < 7; i++ {
		r.Add(float64(i), float64(2*i))
	}
	xs, ys := r.Sample()
	if len(xs) != 7 || len(ys) != 7 || r.Seen() != 7 {
		t.Fatalf("len=%d/%d seen=%d", len(xs), len(ys), r.Seen())
	}
	for i := range xs {
		if ys[i] != 2*xs[i] {
			t.Fatal("pairing broken")
		}
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Every stream element should be retained with probability cap/N.
	// Count retentions of the first element over many deterministic runs.
	const capN, streamN, runs = 50, 1000, 400
	kept := 0
	for seed := int64(1); seed <= runs; seed++ {
		r := NewReservoir(capN, seed)
		for i := 0; i < streamN; i++ {
			r.Add(float64(i), 0)
		}
		xs, _ := r.Sample()
		for _, x := range xs {
			if x == 0 {
				kept++
				break
			}
		}
	}
	got := float64(kept) / runs
	want := float64(capN) / streamN
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("first element kept at rate %.3f, want ~%.3f", got, want)
	}
}

func TestReservoirDeterminism(t *testing.T) {
	sample := func() []float64 {
		r := NewReservoir(5, 42)
		for i := 0; i < 100; i++ {
			r.Add(float64(i), 0)
		}
		xs, _ := r.Sample()
		return xs
	}
	a, b := sample(), sample()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different sample")
		}
	}
}

func TestEWMAStep(t *testing.T) {
	if got := EWMAStep(0, 42, 0.5, 0); got != 42 {
		t.Fatalf("init step: %v", got)
	}
	if got := EWMAStep(10, 20, 0.5, 5); got != 15 {
		t.Fatalf("step: %v", got)
	}
	// Out-of-range alpha falls back to the default.
	if got := EWMAStep(0, 8, -1, 1); got != DefaultEWMAAlpha*8 {
		t.Fatalf("alpha fallback: %v", got)
	}
}
