package main

import (
	"fmt"
	"math"
	"os"
	"slices"
)

// compareSets returns the two sets' medians, the distance between them as
// a share of the smaller one (the same whichever set is the worse), and the
// wider of the two inter-quartile spreads.
func compareSets(a, b []float64) (ma, mb, gap, spread float64) {
	ma, mb = median(slices.Clone(a)), median(slices.Clone(b))
	return ma, mb, math.Abs(ma-mb) / min(ma, mb), max(iqrShare(a), iqrShare(b))
}

// runSelfcheck is the benchmark checking its own noise budget: two sets of
// n full runs of the current tree on the same n seeds, alternating A, B, A,
// B … so that each seed's pair runs back to back. Both sets run the same
// code on the same inputs, so whatever separates them is the machine. Per
// workload and end-to-end metric it prints both medians, the gap between
// them as a share of the better one, the wider of the two sets'
// inter-quartile spreads as a share of its median (the driver's spread
// check, which it makes on ten seeds), and the bound. It exits non-zero if
// any gap, in either direction, or any spread exceeds its bound; such a
// metric is to be demoted to per-layer, not given a wider bound.
func runSelfcheck(n int, seed uint64, seconds, scale float64, outDir string) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -selfcheck needs at least 2 runs per set")
		return 1
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for _, w := range workloadNames() {
		for i := 0; i < 2*n; i++ {
			runSeed := seed + uint64(i/2)
			line, _, err := child(w, runSeed, seconds, scale, 0, outDir, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !line.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d of %d ops failed\n", w, runSeed, line.Failed, line.Attempted)
				return 1
			}
			for name, v := range line.Metrics {
				k := key{w, name}
				sets[i%2][k] = append(sets[i%2][k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "# selfcheck %s run %d/%d done\n", w, i+1, 2*n)
		}
	}
	fmt.Printf("%-14s %-20s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "gap", "spread", "bound", "verdict")
	status := 0
	for _, w := range workloadNames() {
		for _, d := range endToEnd {
			a, b := sets[0][key{w, d.Name}], sets[1][key{w, d.Name}]
			ma, mb, gap, spread := compareSets(a, b)
			verdict := "ok"
			switch {
			case gap > d.Bound:
				verdict, status = "GAP > BOUND", 1
			case spread > d.Bound && d.Name != "setup_s": // the driver exempts set-up from the spread rule
				verdict, status = "SPREAD > BOUND", 1
			case spread > d.Bound/3 && d.Name != "setup_s":
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("%-14s %-20s %14.4f %14.4f %7.2f%% %7.2f%% %6.1f%%  %s\n",
				w, d.Name, ma, mb, 100*gap, 100*spread, 100*d.Bound, verdict)
		}
	}
	return status
}
