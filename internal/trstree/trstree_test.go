package trstree

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// genLinear produces pairs n = 2m + 100 over m in [0, span), with a noise
// fraction replaced by uniform random host values (the paper's Synthetic
// noise injection).
func genLinear(n int, span float64, noise float64, seed int64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Pair, n)
	for i := range out {
		m := rng.Float64() * span
		hv := 2*m + 100
		if rng.Float64() < noise {
			hv = rng.Float64() * (2*span + 100)
		}
		out[i] = Pair{M: m, N: hv, ID: uint64(i)}
	}
	return out
}

// genSigmoid produces the paper's Sigmoid correlation.
func genSigmoid(n int, span float64, noise float64, seed int64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Pair, n)
	for i := range out {
		m := rng.Float64() * span
		x := (m - span/2) / (span / 12)
		hv := 10000 / (1 + math.Exp(-x))
		if rng.Float64() < noise {
			hv = rng.Float64() * 10000
		}
		out[i] = Pair{M: m, N: hv, ID: uint64(i)}
	}
	return out
}

// slices implements DataSource over a snapshot of pairs.
type sliceSource struct {
	mu    sync.Mutex
	pairs []Pair
}

func (s *sliceSource) ScanMRange(lo, hi float64, fn func(m, n float64, id uint64) bool) error {
	s.mu.Lock()
	snapshot := append([]Pair(nil), s.pairs...)
	s.mu.Unlock()
	for _, p := range snapshot {
		if p.M >= lo && p.M <= hi {
			if !fn(p.M, p.N, p.ID) {
				return nil
			}
		}
	}
	return nil
}

func (s *sliceSource) add(p Pair) {
	s.mu.Lock()
	s.pairs = append(s.pairs, p)
	s.mu.Unlock()
}

func mustBuild(t testing.TB, pairs []Pair, params Params) *Tree {
	t.Helper()
	cp := append([]Pair(nil), pairs...)
	tr, err := Build(cp, 1, 0, params) // lo>hi: derive range from data
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkRecall verifies the core correctness contract (no false negatives):
// for a predicate [lo, hi] on M, every matching pair is either an outlier
// ID in the result or has its host value inside one of the returned ranges.
func checkRecall(t *testing.T, tr *Tree, pairs []Pair, lo, hi float64) {
	t.Helper()
	res := tr.Lookup(lo, hi)
	ids := make(map[uint64]bool, len(res.IDs))
	for _, id := range res.IDs {
		ids[id] = true
	}
	for _, p := range pairs {
		if p.M < lo || p.M > hi {
			continue
		}
		if ids[p.ID] {
			continue
		}
		covered := false
		for _, r := range res.Ranges {
			if r.Contains(p.N) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("false negative: pair %+v not covered by ranges %v (predicate [%v,%v])",
				p, res.Ranges, lo, hi)
		}
	}
}

func TestBuildLinearSingleLeaf(t *testing.T) {
	pairs := genLinear(10000, 1000, 0, 1)
	tr := mustBuild(t, pairs, DefaultParams())
	// A clean linear correlation needs one leaf (§7.3: "a single leaf node
	// to model the correlation function").
	if got := tr.LeafCount(); got != 1 {
		t.Fatalf("leaves=%d, want 1 for perfect linear data", got)
	}
	if tr.Height() != 1 {
		t.Fatalf("height=%d", tr.Height())
	}
	if tr.OutlierCount() != 0 {
		t.Fatalf("outliers=%d", tr.OutlierCount())
	}
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(nil, 1, 0, DefaultParams()); err != ErrNoData {
		t.Fatalf("want ErrNoData, got %v", err)
	}
	tr, err := Build(nil, 0, 100, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res := tr.Lookup(0, 100)
	if len(res.Ranges) != 0 || len(res.IDs) != 0 {
		t.Fatalf("empty tree lookup returned %+v", res)
	}
}

func TestBuildSigmoidSplits(t *testing.T) {
	pairs := genSigmoid(50000, 1000, 0, 2)
	tr := mustBuild(t, pairs, DefaultParams())
	if tr.LeafCount() < 2 {
		t.Fatalf("sigmoid should force splits, leaves=%d", tr.LeafCount())
	}
	if tr.Height() > DefaultParams().MaxHeight {
		t.Fatalf("height %d exceeds max %d", tr.Height(), DefaultParams().MaxHeight)
	}
}

func TestRecallLinearWithNoise(t *testing.T) {
	pairs := genLinear(20000, 1000, 0.05, 3)
	tr := mustBuild(t, pairs, DefaultParams())
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		lo := rng.Float64() * 1000
		checkRecall(t, tr, pairs, lo, lo+rng.Float64()*50)
	}
	// Point queries.
	for trial := 0; trial < 50; trial++ {
		p := pairs[rng.Intn(len(pairs))]
		checkRecall(t, tr, pairs, p.M, p.M)
	}
}

func TestRecallSigmoidWithNoise(t *testing.T) {
	pairs := genSigmoid(20000, 1000, 0.05, 4)
	tr := mustBuild(t, pairs, DefaultParams())
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		lo := rng.Float64() * 1000
		checkRecall(t, tr, pairs, lo, lo+rng.Float64()*100)
	}
}

func TestErrorBoundZeroMakesEverythingOutlier(t *testing.T) {
	// §6: with error_bound = 0 every pair that is not exactly on the fitted
	// line is an outlier.
	params := DefaultParams()
	params.ErrorBound = 0
	params.MaxHeight = 1 // paper's single-node scenario
	params.SampleRate = 0
	pairs := genLinear(1000, 100, 0.5, 5)
	tr := mustBuild(t, pairs, params)
	st := tr.Stats()
	if st.Leaves != 1 {
		t.Fatalf("leaves=%d", st.Leaves)
	}
	if st.Outliers < 400 {
		t.Fatalf("outliers=%d, expected most noisy pairs buffered", st.Outliers)
	}
	checkRecall(t, tr, pairs, 0, 100)
}

func TestLargerErrorBoundShrinksTree(t *testing.T) {
	pairs := genSigmoid(30000, 1000, 0.01, 6)
	small := DefaultParams()
	small.ErrorBound = 1
	large := DefaultParams()
	large.ErrorBound = 1000
	trS := mustBuild(t, pairs, small)
	trL := mustBuild(t, pairs, large)
	if trL.SizeBytes() > trS.SizeBytes() {
		t.Fatalf("error_bound=1000 size %d should be <= error_bound=1 size %d (Fig. 18)",
			trL.SizeBytes(), trS.SizeBytes())
	}
}

func TestOutlierRatioForcesSplit(t *testing.T) {
	params := DefaultParams()
	params.SampleRate = 0
	params.OutlierRatio = 0.01
	pairs := genSigmoid(20000, 1000, 0, 9)
	tr := mustBuild(t, pairs, params)
	loose := DefaultParams()
	loose.SampleRate = 0
	loose.OutlierRatio = 0.5
	tr2 := mustBuild(t, pairs, loose)
	if tr.LeafCount() < tr2.LeafCount() {
		t.Fatalf("tight ratio %d leaves < loose ratio %d leaves", tr.LeafCount(), tr2.LeafCount())
	}
}

func TestNegativeSlopeCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pairs := make([]Pair, 5000)
	for i := range pairs {
		m := rng.Float64() * 100
		pairs[i] = Pair{M: m, N: 500 - 3*m, ID: uint64(i)}
	}
	tr := mustBuild(t, pairs, DefaultParams())
	checkRecall(t, tr, pairs, 10, 20)
	res := tr.Lookup(10, 20)
	// Host range for negative slope: [500-60-eps, 500-30+eps].
	if len(res.Ranges) == 0 {
		t.Fatal("no ranges")
	}
	r := res.Ranges[0]
	if r.Lo > 440 || r.Hi < 470 {
		t.Fatalf("range %v does not cover [440,470]", r)
	}
}

func TestLookupInvertedPredicate(t *testing.T) {
	pairs := genLinear(100, 100, 0, 11)
	tr := mustBuild(t, pairs, DefaultParams())
	res := tr.Lookup(50, 10)
	if len(res.Ranges) != 0 || len(res.IDs) != 0 {
		t.Fatalf("inverted predicate returned %+v", res)
	}
}

func TestUnionRanges(t *testing.T) {
	rs := []Range{{5, 10}, {1, 3}, {9, 12}, {2, 4}, {20, 21}}
	got := unionRanges(rs)
	want := []Range{{1, 4}, {5, 12}, {20, 21}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if out := unionRanges(nil); len(out) != 0 {
		t.Fatalf("nil union: %v", out)
	}
	one := []Range{{1, 2}}
	if out := unionRanges(one); len(out) != 1 || out[0] != one[0] {
		t.Fatalf("single union: %v", out)
	}
}

func TestInsertCoveredVsOutlier(t *testing.T) {
	pairs := genLinear(5000, 1000, 0, 12)
	tr := mustBuild(t, pairs, DefaultParams())
	before := tr.OutlierCount()
	// Covered insert: on the line.
	tr.Insert(500, 2*500+100, 999998)
	if tr.OutlierCount() != before {
		t.Fatal("covered insert should not grow outlier buffer")
	}
	// Outlier insert: far off the line.
	tr.Insert(500, 1e9, 999999)
	if tr.OutlierCount() != before+1 {
		t.Fatal("outlier insert not buffered")
	}
	res := tr.Lookup(500, 500)
	found := false
	for _, id := range res.IDs {
		if id == 999999 {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted outlier not returned by lookup")
	}
}

func TestInsertOutsideRange(t *testing.T) {
	pairs := genLinear(5000, 1000, 0, 13)
	tr := mustBuild(t, pairs, DefaultParams())
	tr.Insert(-50, 0, 111111)  // below build range
	tr.Insert(2000, 0, 222222) // above build range
	resLow := tr.Lookup(-100, -10)
	resHigh := tr.Lookup(1500, 3000)
	if len(resLow.IDs) != 1 || resLow.IDs[0] != 111111 {
		t.Fatalf("low out-of-range lookup: %+v", resLow)
	}
	if len(resHigh.IDs) != 1 || resHigh.IDs[0] != 222222 {
		t.Fatalf("high out-of-range lookup: %+v", resHigh)
	}
}

func TestDeleteOutlier(t *testing.T) {
	pairs := genLinear(1000, 100, 0, 14)
	tr := mustBuild(t, pairs, DefaultParams())
	tr.Insert(50, 1e9, 777)
	if tr.OutlierCount() == 0 {
		t.Fatal("setup failed")
	}
	tr.Delete(50, 1e9, 777)
	res := tr.Lookup(50, 50)
	for _, id := range res.IDs {
		if id == 777 {
			t.Fatal("deleted outlier still returned")
		}
	}
	// Odd target values are outliers too, and a delete takes theirs out.
	base := tr.OutlierCount()
	odd := []float64{math.NaN(), math.Float64frombits(0xFFF8000000000123), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300}
	for i, m := range odd {
		tr.Insert(m, 1e9, uint64(900+i))
	}
	for i, m := range odd {
		tr.Delete(m, 1e9, uint64(900+i))
	}
	if got := tr.OutlierCount(); got != base {
		t.Fatalf("%d outliers after inserting and deleting odd values, want %d", got, base)
	}
}

func TestUpdateTransitions(t *testing.T) {
	pairs := genLinear(1000, 100, 0, 15)
	tr := mustBuild(t, pairs, DefaultParams())
	base := tr.OutlierCount()
	// covered -> outlier
	tr.Update(50, 2*50+100, 1e9, 5)
	if tr.OutlierCount() != base+1 {
		t.Fatal("update to outlier not buffered")
	}
	// outlier -> covered
	tr.Update(50, 1e9, 2*50+100, 5)
	if tr.OutlierCount() != base {
		t.Fatal("update back to covered did not remove buffer entry")
	}
}

// reorgAll rebuilds every first-level subtree of tr from src.
func reorgAll(t testing.TB, tr *Tree, src DataSource) {
	t.Helper()
	for i := range tr.Params().NodeFanout {
		if err := tr.ReorgSubtree(i, src); err != nil {
			t.Fatal(err)
		}
	}
}

// A region that takes pairs off its leaf's line fills the leaf's outlier
// buffer; rebuilding the subtrees from the table refits it and shrinks the
// buffers, and every pair stays covered.
func TestReorgRebuildsBadlyModelledRange(t *testing.T) {
	params := DefaultParams()
	params.SampleRate = 0
	src := &sliceSource{pairs: genLinear(5000, 1000, 0, 17)}
	tr := mustBuild(t, src.pairs, params)
	// Insert a cluster of pairs that follow a *different* line, making one
	// region badly modelled.
	for i := 0; i < 1500; i++ {
		m := 100 + rand.New(rand.NewSource(int64(i))).Float64()*10
		p := Pair{M: m, N: 5*m + 4000, ID: uint64(50000 + i)}
		src.add(p)
		tr.Insert(p.M, p.N, p.ID)
	}
	outBefore := tr.OutlierCount()
	reorgAll(t, tr, src)
	if tr.OutlierCount() >= outBefore {
		t.Fatalf("reorg did not shrink outliers: before=%d after=%d", outBefore, tr.OutlierCount())
	}
	// Recall still holds against the current table contents.
	checkRecall(t, tr, src.pairs, 100, 110)
	checkRecall(t, tr, src.pairs, 0, 1000)
}

// TestReorgSubtree rebuilds every first-level subtree twice. A rebuild
// frees the slots of the subtree it replaces and the replacement fills
// them, so the second round, which builds the same subtrees again, leaves
// the node arrays as long as the first left them.
func TestReorgSubtree(t *testing.T) {
	src := &sliceSource{pairs: genSigmoid(20000, 1000, 0.02, 18)}
	tr := mustBuild(t, src.pairs, DefaultParams())
	reorgAll(t, tr, src)
	checkRecall(t, tr, src.pairs, 0, 1000)
	leaves, inner := len(tr.leaves), len(tr.inner)
	reorgAll(t, tr, src)
	checkRecall(t, tr, src.pairs, 0, 1000)
	if len(tr.leaves) != leaves || len(tr.inner) != inner {
		t.Fatalf("a second round of rebuilds grew the node arrays: %d leaves, %d inner references; the first left %d, %d",
			len(tr.leaves), len(tr.inner), leaves, inner)
	}
	// An i that names no subtree rebuilds nothing.
	want := fingerprint(tr, true)
	for _, i := range []int{-1, DefaultParams().NodeFanout} {
		if err := tr.ReorgSubtree(i, src); err != nil {
			t.Fatal(err)
		}
	}
	if fingerprint(tr, true) != want {
		t.Fatal("a rebuild of no subtree changed the tree")
	}
}

// overRatio reports whether the leaf covering m holds more outliers than
// OutlierRatio of its tuples.
func overRatio(tr *Tree, m float64) bool {
	slot, _ := tr.traverse(m)
	l := &tr.leaves[slot]
	return float64(l.n) > tr.params.OutlierRatio*float64(l.count)
}

// TestReorgReplayDeterministic plays one schedule of inserts, deletes and
// reorganizations twice: the subtrees a reorganization builds depend on the
// table and the node alone (the rebuild's sampling RNG is seeded from the
// node, not from the clock), so both plays leave the same tree. Every
// reorganization of the schedule rebuilds a leaf whose share of pairs off
// the line is just under OutlierRatio, where the full fit keeps the node
// whole and the 5 % sample's draw decides whether it is asked at all.
func TestReorgReplayDeterministic(t *testing.T) {
	play := func() string {
		src := &sliceSource{pairs: genLinear(10000, 1000, 0, 31)}
		tr := mustBuild(t, src.pairs, DefaultParams())
		rng := rand.New(rand.NewSource(32))
		k := tr.Params().NodeFanout
		for cycle := 0; cycle < 8; cycle++ {
			// Off-line pairs until the leaf of the last one is over the ratio...
			var added []Pair
			for len(added) == 0 || !overRatio(tr, added[len(added)-1].M) {
				m := rng.Float64() * 1000
				p := Pair{M: m, N: 3*m + 20000, ID: uint64(100000 + len(src.pairs))}
				added = append(added, p)
				src.add(p)
				tr.Insert(p.M, p.N, p.ID)
			}
			last := added[len(added)-1].M
			// ...then a few of them gone again, so the rebuild sees it just under.
			for _, p := range added[:min(len(added), 60)] {
				for i, q := range src.pairs {
					if q.ID == p.ID {
						src.pairs[i] = src.pairs[len(src.pairs)-1]
						src.pairs = src.pairs[:len(src.pairs)-1]
						break
					}
				}
				tr.Delete(p.M, p.N, p.ID)
			}
			i := subRange(last, tr.bounds.lo, tr.bounds.width(k), k)
			if err := tr.ReorgSubtree(i, src); err != nil {
				t.Fatal(err)
			}
		}
		checkRecall(t, tr, src.pairs, 0, 1000)
		return fingerprint(tr, true)
	}
	if first, second := play(), play(); first != second {
		t.Fatal("two plays of one schedule left different trees")
	}
}

func TestConcurrentLookupInsertReorg(t *testing.T) {
	src := &sliceSource{pairs: genSigmoid(30000, 1000, 0.05, 19)}
	tr := mustBuild(t, src.pairs, DefaultParams())
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	// Readers.
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := rng.Float64() * 1000
				tr.Lookup(lo, lo+10)
			}
		}(int64(w))
	}
	// Writer.
	writers.Add(1)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 20000; i++ {
			m := rng.Float64() * 1000
			p := Pair{M: m, N: rng.Float64() * 10000, ID: uint64(100000 + i)}
			src.add(p)
			tr.Insert(p.M, p.N, p.ID)
		}
	}()
	// Reorganizer.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 20; i++ {
			if err := tr.ReorgSubtree(i%tr.Params().NodeFanout, src); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	checkRecall(t, tr, src.pairs, 0, 1000)
}

// TestBuildParallelEquivalentResults: BuildParallel's tree is the same for
// every worker count and every run (each node seeds its own sampling RNG,
// so scheduling cannot reach the result), and both builders answer every
// lookup with a superset of a brute-force scan. The two trees themselves
// need not be equal: Build threads one RNG stream through the whole
// construction.
func TestBuildParallelEquivalentResults(t *testing.T) {
	pairs := genSigmoid(40000, 1000, 0.02, 21)
	seq := mustBuild(t, pairs, DefaultParams())
	var par *Tree
	var want string
	for run, workers := range []int{2, 3, 8, 2, 8} {
		cp := append([]Pair(nil), pairs...)
		tr, err := BuildParallel(cp, 1, 0, DefaultParams(), workers)
		if err != nil {
			t.Fatal(err)
		}
		got := fingerprint(tr, true)
		if run == 0 {
			par, want = tr, got
		} else if got != want {
			t.Fatalf("run %d with %d workers built a different tree: %s, first run %s", run, workers, got, want)
		}
	}
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		lo := rng.Float64() * 1000
		hi := lo + rng.Float64()*50
		checkRecall(t, seq, pairs, lo, hi)
		checkRecall(t, par, pairs, lo, hi)
	}
}

func TestBuildParallelSingleLeafData(t *testing.T) {
	pairs := genLinear(10000, 1000, 0, 23)
	cp := append([]Pair(nil), pairs...)
	par, err := BuildParallel(cp, 1, 0, DefaultParams(), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect linear data validates at the root: parallel build should not
	// inflate the structure.
	if par.LeafCount() != 1 {
		t.Fatalf("leaves=%d", par.LeafCount())
	}
	if _, err := BuildParallel(nil, 1, 0, DefaultParams(), 4); err != ErrNoData {
		t.Fatalf("want ErrNoData, got %v", err)
	}
}

func TestParamsSanitize(t *testing.T) {
	p := Params{}.sanitize()
	if p.NodeFanout < 2 || p.MaxHeight < 1 || p.MinLeafPairs < 1 {
		t.Fatalf("sanitize produced %+v", p)
	}
}

func TestStatsAndSize(t *testing.T) {
	pairs := genSigmoid(20000, 1000, 0.05, 24)
	tr := mustBuild(t, pairs, DefaultParams())
	st := tr.Stats()
	if st.Nodes < st.Leaves || st.Leaves == 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.SizeBytes == 0 {
		t.Fatal("zero size")
	}
	if st.Height != tr.Height() {
		t.Fatal("height mismatch")
	}
	lo, hi := tr.Bounds()
	if lo >= hi {
		t.Fatalf("bounds [%v,%v]", lo, hi)
	}
	if tr.Params().NodeFanout != 8 {
		t.Fatalf("params %+v", tr.Params())
	}
}

// Property: recall holds for arbitrary correlation shapes, noise levels and
// random predicates — the fundamental no-false-negatives invariant.
func TestQuickRecall(t *testing.T) {
	shapes := []func(m float64) float64{
		func(m float64) float64 { return 2*m + 100 },
		func(m float64) float64 { return m * m / 100 },
		func(m float64) float64 { return 1000 / (1 + math.Exp(-(m-500)/50)) },
		func(m float64) float64 { return 300 - m/2 },
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := shapes[rng.Intn(len(shapes))]
		noise := rng.Float64() * 0.2
		pairs := make([]Pair, 3000)
		for i := range pairs {
			m := rng.Float64() * 1000
			n := shape(m)
			if rng.Float64() < noise {
				n = rng.Float64() * 2000
			}
			pairs[i] = Pair{M: m, N: n, ID: uint64(i)}
		}
		params := DefaultParams()
		params.ErrorBound = []float64{1, 2, 10, 100}[rng.Intn(4)]
		cp := append([]Pair(nil), pairs...)
		tr, err := Build(cp, 1, 0, params)
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			lo := rng.Float64() * 1000
			hi := lo + rng.Float64()*100
			res := tr.Lookup(lo, hi)
			ids := make(map[uint64]bool)
			for _, id := range res.IDs {
				ids[id] = true
			}
			for _, p := range pairs {
				if p.M < lo || p.M > hi || ids[p.ID] {
					continue
				}
				ok := false
				for _, r := range res.Ranges {
					if r.Contains(p.N) {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: lookup ranges after UnionRanges are sorted and disjoint.
func TestQuickUnionInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := make([]Range, rng.Intn(40))
		for i := range rs {
			lo := rng.Float64() * 100
			rs[i] = Range{Lo: lo, Hi: lo + rng.Float64()*20}
		}
		orig := append([]Range(nil), rs...)
		got := unionRanges(rs)
		for i := 1; i < len(got); i++ {
			if got[i].Lo <= got[i-1].Hi {
				return false
			}
		}
		// Every original point set is preserved: endpoints stay covered.
		for _, r := range orig {
			coveredLo, coveredHi := false, false
			for _, g := range got {
				if g.Contains(r.Lo) {
					coveredLo = true
				}
				if g.Contains(r.Hi) {
					coveredHi = true
				}
			}
			if !coveredLo || !coveredHi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: insert-then-delete of the same outlier leaves the visible
// lookup results unchanged.
func TestQuickInsertDeleteRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pairs := genLinear(2000, 500, 0.02, seed)
		cp := append([]Pair(nil), pairs...)
		tr, err := Build(cp, 1, 0, DefaultParams())
		if err != nil {
			return false
		}
		before := tr.Lookup(0, 500)
		for i := 0; i < 100; i++ {
			m := rng.Float64() * 500
			n := rng.Float64() * 1e6
			id := uint64(900000 + i)
			tr.Insert(m, n, id)
			tr.Delete(m, n, id)
		}
		after := tr.Lookup(0, 500)
		if len(before.IDs) != len(after.IDs) {
			return false
		}
		sort.Slice(before.IDs, func(a, b int) bool { return before.IDs[a] < before.IDs[b] })
		sort.Slice(after.IDs, func(a, b int) bool { return after.IDs[a] < after.IDs[b] })
		for i := range before.IDs {
			if before.IDs[i] != after.IDs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildLinear100k(b *testing.B) {
	pairs := genLinear(100000, 1000, 0.01, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := append([]Pair(nil), pairs...)
		if _, err := Build(cp, 1, 0, DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupRange(b *testing.B) {
	pairs := genSigmoid(1000000, 1000, 0.01, 1)
	tr, err := Build(pairs, 1, 0, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := float64(i%990) + 0.5
		tr.Lookup(lo, lo+10)
	}
}

func BenchmarkInsertCovered(b *testing.B) {
	pairs := genLinear(100000, 1000, 0, 1)
	tr, err := Build(pairs, 1, 0, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := float64(i%1000) + 0.25
		tr.Insert(m, 2*m+100, uint64(i))
	}
}

// The paper's one safety property, beyond the build-time bounds: when the
// edge child of an internal node is itself internal, a lookup outside
// the tree's bounds must still descend to the edge leaves, where such
// values live as outliers. Both builders.
func TestLookupBeyondBoundsDeepEdges(t *testing.T) {
	// A cubic is steepest at both ends of the domain, so the edge
	// sub-ranges are the ones that keep splitting.
	pairs := make([]Pair, 60000)
	rng := rand.New(rand.NewSource(31))
	for i := range pairs {
		m := rng.Float64() * 1000
		pairs[i] = Pair{M: m, N: math.Pow(m-500, 3), ID: uint64(i)}
	}
	par, err := BuildParallel(append([]Pair(nil), pairs...), 1, 0, DefaultParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Tree{"sequential": mustBuild(t, pairs, DefaultParams()), "parallel": par} {
		if tr.root.isLeaf() || tr.kids(tr.root)[0].isLeaf() || tr.kids(tr.root)[tr.params.NodeFanout-1].isLeaf() {
			t.Fatalf("%s: test data must give internal edge children (height %d)", name, tr.Height())
		}
		tr.Insert(-5, 0, 111111)
		tr.Insert(1005, 0, 222222)
		for _, c := range []struct {
			lo, hi float64
			id     uint64
		}{{-5, -5, 111111}, {-100, -1, 111111}, {1005, 1005, 222222}, {1001, 3000, 222222}} {
			res := tr.Lookup(c.lo, c.hi)
			if len(res.IDs) != 1 || res.IDs[0] != c.id {
				t.Errorf("%s: Lookup(%v, %v) IDs = %v, want [%d]", name, c.lo, c.hi, res.IDs, c.id)
			}
		}
	}
}

// Under logical pointers every version of a row carries the same id, so
// versions sharing a target value share (m, id). Reclaiming one version —
// covered by the model or not — must leave the outlier entry of another.
func TestDeleteKeepsOtherVersionsOutlier(t *testing.T) {
	pairs := genLinear(5000, 1000, 0, 41)
	tr := mustBuild(t, pairs, DefaultParams())
	has := func(m float64, id uint64) bool {
		for _, got := range tr.Lookup(m, m).IDs {
			if got == id {
				return true
			}
		}
		return false
	}
	const m, id = 500.25, 999_999
	covered, out1, out2 := 2*m+100, 5.0, 7.0

	tr.Insert(m, covered, id) // version 1: on the line, stores nothing
	tr.Insert(m, out1, id)    // version 2: an outlier
	tr.Delete(m, covered, id) // version 1 reclaimed
	if !has(m, id) {
		t.Fatal("deleting a model-covered version removed another version's outlier entry")
	}
	tr.Insert(m, out2, id) // version 3: an outlier with the same (m, id)
	tr.Delete(m, out1, id) // version 2 reclaimed
	if !has(m, id) {
		t.Fatal("deleting one outlier version removed the entry two versions shared")
	}
	tr.Delete(m, out2, id)
	if has(m, id) {
		t.Fatal("entry left behind after every version was deleted")
	}
}
