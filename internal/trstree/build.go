package trstree

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"hermit/internal/stats"
)

// lmodel and fitLinear keep the build code readable without repeating the
// stats package qualifier in the hot construction path.
type lmodel = stats.LinearModel

var fitLinear = stats.FitLinear

// ErrNoData is returned when Build is given no pairs and no explicit range.
var ErrNoData = errors.New("trstree: no data and no range to build over")

// Build constructs a TRS-Tree over the given pairs using Algorithm 1. The
// pairs slice is reordered in place (it is partitioned recursively). lo and
// hi give the target column's full range R; if lo > hi the range is derived
// from the data.
func Build(pairs []Pair, lo, hi float64, params Params) (*Tree, error) {
	params = params.sanitize()
	if lo > hi {
		if len(pairs) == 0 {
			return nil, ErrNoData
		}
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, p := range pairs {
			lo = math.Min(lo, p.M)
			hi = math.Max(hi, p.M)
		}
	}
	t := &Tree{params: params}
	b := builder{params: params, rng: rand.New(rand.NewSource(1))}
	t.root = b.build(pairs, lo, hi, 1, true, true)
	return t, nil
}

// BuildParallel constructs the tree with the top-down multi-threaded scheme
// of Appendix D.2: because construction is top-down, the sub-ranges of any
// split can be built by independent workers with no synchronization points
// between them. Parallelism is dynamic — every split offers its large
// sub-ranges to a bounded worker pool, so skewed correlations (where most
// of the fitting work concentrates in a few sub-ranges, e.g. a sigmoid's
// steep centre) still scale with the thread count.
//
// workers <= 1 falls back to the sequential Build. The resulting structure
// is deterministic and identical to the sequential one: each sub-range's
// build is a pure function of its pairs.
func BuildParallel(pairs []Pair, lo, hi float64, params Params, workers int) (*Tree, error) {
	params = params.sanitize()
	if workers <= 1 {
		return Build(pairs, lo, hi, params)
	}
	if workers > runtime.NumCPU()*4 {
		workers = runtime.NumCPU() * 4
	}
	if lo > hi {
		if len(pairs) == 0 {
			return nil, ErrNoData
		}
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, p := range pairs {
			lo = math.Min(lo, p.M)
			hi = math.Max(hi, p.M)
		}
	}
	pb := &parallelBuilder{
		params: params,
		tokens: make(chan struct{}, workers-1), // the caller is worker 0
	}
	root := pb.build(pairs, lo, hi, 1, true, true)
	return &Tree{params: params, root: root}, nil
}

// parallelSpawnMin is the sub-range size below which spawning a goroutine
// is not worth the scheduling cost.
const parallelSpawnMin = 8192

// parallelBuilder runs builder.build recursively, offering large sub-ranges
// to other workers through a token pool.
type parallelBuilder struct {
	params Params
	tokens chan struct{}
}

func (pb *parallelBuilder) build(pairs []Pair, lo, hi float64, depth int, leftEdge, rightEdge bool) *node {
	b := builder{params: pb.params, rng: rand.New(rand.NewSource(int64(depth)*7919 + int64(len(pairs))))}
	if leaf, ok := b.tryLeaf(pairs, lo, hi, depth, leftEdge, rightEdge); ok {
		return leaf
	}
	k := pb.params.NodeFanout
	buckets := partition(pairs, lo, hi, k)
	n := &node{lo: lo, hi: hi, leftEdge: leftEdge, rightEdge: rightEdge, children: make([]*node, k)}
	w := (hi - lo) / float64(k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		clo := lo + float64(i)*w
		chi := clo + w
		if i == k-1 {
			chi = hi
		}
		le, re := leftEdge && i == 0, rightEdge && i == k-1
		if len(buckets[i]) >= parallelSpawnMin {
			select {
			case pb.tokens <- struct{}{}:
				wg.Add(1)
				go func(i int, bucket []Pair, clo, chi float64, le, re bool) {
					defer wg.Done()
					defer func() { <-pb.tokens }()
					n.children[i] = pb.build(bucket, clo, chi, depth+1, le, re)
				}(i, buckets[i], clo, chi, le, re)
				continue
			default:
				// Pool exhausted: build inline.
			}
		}
		n.children[i] = pb.build(buckets[i], clo, chi, depth+1, le, re)
	}
	wg.Wait()
	return n
}

type builder struct {
	params Params
	rng    *rand.Rand
}

// build recursively constructs the subtree for pairs covering [lo, hi].
// It implements Algorithm 1's Compute/Validate/SplitNode loop in recursive
// form (the FIFO order of the paper only affects construction order, not
// the resulting structure).
func (b *builder) build(pairs []Pair, lo, hi float64, depth int, leftEdge, rightEdge bool) *node {
	if leaf, ok := b.tryLeaf(pairs, lo, hi, depth, leftEdge, rightEdge); ok {
		return leaf
	}
	k := b.params.NodeFanout
	buckets := partition(pairs, lo, hi, k)
	n := &node{lo: lo, hi: hi, leftEdge: leftEdge, rightEdge: rightEdge, children: make([]*node, k)}
	w := (hi - lo) / float64(k)
	for i := 0; i < k; i++ {
		clo := lo + float64(i)*w
		chi := clo + w
		if i == k-1 {
			chi = hi
		}
		n.children[i] = b.build(buckets[i], clo, chi, depth+1, leftEdge && i == 0, rightEdge && i == k-1)
	}
	return n
}

// tryLeaf fits a linear model over pairs and validates it. It returns the
// finished leaf when the model's outliers stay within OutlierRatio, when
// the depth limit is reached, or when too few pairs remain to justify a
// split — in those cases the uncovered pairs go to the outlier buffer.
func (b *builder) tryLeaf(pairs []Pair, lo, hi float64, depth int, leftEdge, rightEdge bool) (*node, bool) {
	mustBeLeaf := depth >= b.params.MaxHeight || len(pairs) <= b.params.MinLeafPairs || hi-lo <= 0
	// Sampling-based outlier estimation (Appendix D.2): decide to split
	// from a 5% sample before paying for the full regression.
	if !mustBeLeaf && b.params.SampleRate > 0 && len(pairs) > 4*b.params.MinLeafPairs {
		if b.sampleSaysSplit(pairs, lo, hi) {
			return nil, false
		}
	}
	model, eps, outliers := fitAndValidate(pairs, lo, hi, b.params)
	if !mustBeLeaf && float64(len(outliers)) > b.params.OutlierRatio*float64(len(pairs)) {
		return nil, false
	}
	leaf := &node{
		lo: lo, hi: hi,
		leftEdge: leftEdge, rightEdge: rightEdge,
		model: model, eps: eps,
		count: len(pairs),
	}
	if len(outliers) > 0 {
		leaf.outliers = make([]outlierEntry, len(outliers))
		for i, p := range outliers {
			leaf.outliers[i] = outlierEntry{m: p.M, id: p.ID}
		}
	}
	return leaf, true
}

// sampleSaysSplit fits on a sample and reports whether the sampled outlier
// fraction already exceeds the threshold.
func (b *builder) sampleSaysSplit(pairs []Pair, lo, hi float64) bool {
	sn := int(float64(len(pairs)) * b.params.SampleRate)
	if sn < 32 {
		sn = 32
	}
	if sn >= len(pairs) {
		return false
	}
	sample := make([]Pair, sn)
	for i := range sample {
		sample[i] = pairs[b.rng.Intn(len(pairs))]
	}
	_, _, outliers := fitAndValidate(sample, lo, hi, b.params)
	return float64(len(outliers)) > b.params.OutlierRatio*float64(len(sample))
}

// fitAndValidate runs Compute and Validate from Algorithm 1: it fits a
// linear model, derives eps from ErrorBound (§4.5) and collects the pairs
// the interval fails to cover.
//
// Because the paper's eps is very tight for large n (error_bound counts the
// expected false positives of a *point* query), a plain OLS fit over data
// containing even 1% injected noise is dragged off the true line: the clean
// points then fall outside eps, splits cascade to max_height, and worst of
// all the surviving leaves carry *garbage models* whose predicted host
// ranges land on dense unrelated regions — answers stay exact (the true
// matches sit in the outlier buffers) but candidate sets explode. The
// paper's reported behaviour (memory growing with the noise fraction only,
// Fig. 18; throughput stable under noise, Fig. 16) therefore requires a
// noise-robust Compute step:
//
//  1. Theil–Sen estimate: the slope is the median of pairwise slopes over a
//     deterministic pseudo-random sample of point pairs, the intercept the
//     median of (n - beta*m). Robust to far more contamination than the
//     workloads inject.
//  2. OLS polish on the MAD-inliers (residual <= 3 * median absolute
//     residual), restoring least-squares efficiency on the clean subset.
func fitAndValidate(pairs []Pair, lo, hi float64, params Params) (m lmodel, eps float64, outliers []Pair) {
	if len(pairs) == 0 {
		return lmodel{}, 0, nil
	}
	model := robustFit(pairs)
	// Polish: OLS over the MAD-inliers of the robust fit. The MAD is
	// estimated from a stride sample of residuals: a full median would cost
	// an O(n log n) sort per node and dominates construction, while a few
	// thousand samples estimate the scale just as well.
	resid := make([]float64, len(pairs))
	for i, p := range pairs {
		resid[i] = math.Abs(p.N - model.Predict(p.M))
	}
	mad := medianOf(strideSample(resid, 4096))
	if mad > 0 {
		thr := 3 * mad
		var inX, inY []float64
		for i, p := range pairs {
			if resid[i] <= thr {
				inX = append(inX, p.M)
				inY = append(inY, p.N)
			}
		}
		if len(inX) >= 2 {
			if refit, err := fitLinear(inX, inY); err == nil {
				model = refit
			}
		}
	}
	eps = deriveEps(model.Beta, lo, hi, params.ErrorBound, len(pairs))
	for _, p := range pairs {
		if math.Abs(p.N-model.Predict(p.M)) > eps {
			outliers = append(outliers, p)
		}
	}
	return model, eps, outliers
}

// robustFitSamples bounds the number of pairwise slopes Theil–Sen draws;
// 255 samples estimate the median slope to well within the precision the
// eps interval needs, at a fraction of the sort cost.
const robustFitSamples = 255

// robustFit computes a sampled Theil–Sen line: median pairwise slope,
// median residual intercept. Sampling uses multiplicative hashing so
// construction stays deterministic without threading an RNG through.
func robustFit(pairs []Pair) lmodel {
	n := len(pairs)
	if n < 3 {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i, p := range pairs {
			xs[i] = p.M
			ys[i] = p.N
		}
		m, err := fitLinear(xs, ys)
		if err != nil {
			return lmodel{}
		}
		return m
	}
	k := robustFitSamples
	if n*(n-1)/2 < k {
		k = n * (n - 1) / 2
	}
	slopes := make([]float64, 0, k)
	const mix = 2654435761 // Knuth multiplicative hash
	for s := 0; len(slopes) < k && s < 4*k; s++ {
		i := int(uint32(s*mix) % uint32(n))
		j := int(uint32((s+1)*mix+0x9e3779b9) % uint32(n))
		if i == j {
			continue
		}
		dx := pairs[j].M - pairs[i].M
		if dx == 0 {
			continue
		}
		slopes = append(slopes, (pairs[j].N-pairs[i].N)/dx)
	}
	if len(slopes) == 0 {
		// Degenerate x: horizontal line through the median host value.
		vals := make([]float64, n)
		for i, p := range pairs {
			vals[i] = p.N
		}
		return lmodel{Beta: 0, Alpha: medianOf(vals)}
	}
	beta := medianOf(slopes)
	// Intercept: median of residual intercepts over a sample of points.
	m := n
	if m > 1024 {
		m = 1024
	}
	alphas := make([]float64, 0, m)
	step := n / m
	if step < 1 {
		step = 1
	}
	for i := 0; i < n && len(alphas) < m; i += step {
		alphas = append(alphas, pairs[i].N-beta*pairs[i].M)
	}
	return lmodel{Beta: beta, Alpha: medianOf(alphas)}
}

// strideSample copies up to max evenly spaced elements of vals.
func strideSample(vals []float64, max int) []float64 {
	if len(vals) <= max {
		return append([]float64(nil), vals...)
	}
	step := len(vals) / max
	out := make([]float64, 0, max)
	for i := 0; i < len(vals) && len(out) < max; i += step {
		out = append(out, vals[i])
	}
	return out
}

// medianOf returns the (lower) median via quickselect, reordering vals in
// place. Construction calls this per node, so the O(n) selection beats a
// full sort measurably.
func medianOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return quickselect(vals, len(vals)/2)
}

// quickselect returns the k-th smallest element of vals (0-based),
// partitioning in place with a median-of-three pivot.
func quickselect(vals []float64, k int) float64 {
	lo, hi := 0, len(vals)-1
	for lo < hi {
		// Median-of-three pivot to avoid quadratic behaviour on sorted or
		// constant inputs.
		mid := lo + (hi-lo)/2
		if vals[mid] < vals[lo] {
			vals[mid], vals[lo] = vals[lo], vals[mid]
		}
		if vals[hi] < vals[lo] {
			vals[hi], vals[lo] = vals[lo], vals[hi]
		}
		if vals[hi] < vals[mid] {
			vals[hi], vals[mid] = vals[mid], vals[hi]
		}
		pivot := vals[mid]
		i, j := lo, hi
		for i <= j {
			for vals[i] < pivot {
				i++
			}
			for vals[j] > pivot {
				j--
			}
			if i <= j {
				vals[i], vals[j] = vals[j], vals[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return vals[k]
		}
	}
	return vals[lo]
}

// deriveEps computes the confidence interval from the error_bound parameter
// using the paper's derivation (§4.5):
//
//	eps ≈ beta * (ub - lb) * error_bound / (2n)
//
// A zero slope would give eps = 0 and classify every noisy pair as an
// outlier even for perfectly flat correlations, so a tiny floor
// proportional to the magnitude of the fitted intercept is applied.
func deriveEps(beta, lo, hi, errorBound float64, n int) float64 {
	if n == 0 {
		return 0
	}
	eps := math.Abs(beta) * (hi - lo) * errorBound / (2 * float64(n))
	if eps == 0 && errorBound > 0 {
		eps = 1e-12
	}
	return eps
}

// partition distributes pairs into k equal sub-ranges of [lo, hi]
// (Algorithm 1's SplitTable). The input slice's storage is reused.
func partition(pairs []Pair, lo, hi float64, k int) [][]Pair {
	buckets := make([][]Pair, k)
	if len(pairs) == 0 {
		return buckets
	}
	w := (hi - lo) / float64(k)
	// Counting pass then stable placement into one backing array keeps
	// allocation linear instead of per-append.
	counts := make([]int, k)
	idx := func(m float64) int {
		if w <= 0 {
			return 0
		}
		i := int((m - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= k {
			i = k - 1
		}
		return i
	}
	for _, p := range pairs {
		counts[idx(p.M)]++
	}
	backing := make([]Pair, len(pairs))
	offsets := make([]int, k)
	sum := 0
	for i, c := range counts {
		offsets[i] = sum
		sum += c
	}
	cursor := append([]int(nil), offsets...)
	for _, p := range pairs {
		i := idx(p.M)
		backing[cursor[i]] = p
		cursor[i]++
	}
	for i := 0; i < k; i++ {
		end := offsets[i] + counts[i]
		buckets[i] = backing[offsets[i]:end:end]
	}
	return buckets
}

// sortRanges orders ranges by Lo; used by the lookup union step.
func sortRanges(rs []Range) {
	sort.Slice(rs, func(a, b int) bool { return rs[a].Lo < rs[b].Lo })
}
