package trstree

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"hermit/internal/stats"
)

// lmodel keeps the build code readable without repeating the stats package
// qualifier in the hot construction path.
type lmodel = stats.LinearModel

// ErrNoData is returned when Build is given no pairs and no explicit range.
var ErrNoData = errors.New("trstree: no data and no range to build over")

// Build constructs a TRS-Tree over the given pairs using Algorithm 1. The
// pairs slice is scratch from then on (it is partitioned recursively, to and
// from one buffer of the same size that Build drops before it returns). lo
// and hi give the target column's full range R; if lo > hi the range is
// derived from the data.
//
// The tree is a pure function of the pairs in the order given, the range
// and the parameters: one RNG stream, seeded with a constant, is threaded
// through the depth-first construction for the sampling pre-check.
func Build(pairs []Pair, lo, hi float64, params Params) (*Tree, error) {
	return buildTree(pairs, lo, hi, params, nil)
}

// BuildParallel constructs the tree with the top-down multi-threaded scheme
// of Appendix D.2: because construction is top-down, the sub-ranges of any
// split can be built by independent workers with no synchronization points
// between them. Parallelism is dynamic — every split offers its large
// sub-ranges to a bounded worker pool, so skewed correlations (where most
// of the fitting work concentrates in a few sub-ranges, e.g. a sigmoid's
// steep centre) still scale with the thread count.
//
// workers <= 1 falls back to the sequential Build. With more, the tree is
// deterministic — the same for every worker count and every run, because a
// node's build is a pure function of its pairs, range and depth — but it is
// not Build's tree: no RNG stream can cross goroutines, so every node seeds
// its own for the sampling pre-check, and where the two samples disagree
// about a split the trees differ by a few nodes. Both answer every lookup
// with a superset of the matching pairs.
func BuildParallel(pairs []Pair, lo, hi float64, params Params, workers int) (*Tree, error) {
	if workers <= 1 {
		return Build(pairs, lo, hi, params)
	}
	if workers > runtime.NumCPU()*4 {
		workers = runtime.NumCPU() * 4
	}
	return buildTree(pairs, lo, hi, params, make(chan struct{}, workers-1)) // the caller is worker 0
}

func buildTree(pairs []Pair, lo, hi float64, params Params, tokens chan struct{}) (*Tree, error) {
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
	b := newBuilder(params, 1, tokens)
	root := b.build(pairs, nil, span{lo: lo, hi: hi, left: true, right: true}, 1)
	return newTree(params, lo, hi, root, b.nodes, b.top), nil
}

// parallelSpawnMin is the sub-range size below which spawning a goroutine
// is not worth the scheduling cost.
const parallelSpawnMin = 8192

// builder carries one construction's parameters, RNG stream, scratch and
// the nodes it builds. The scratch is what makes a build allocate little
// beyond the tree: every node's fit reuses it, and nothing of it is
// reachable from the tree.
type builder struct {
	params Params
	rng    *rand.Rand
	// tokens is BuildParallel's worker pool (nil: sequential). A builder
	// belongs to one goroutine; a sub-range handed to another worker gets a
	// builder of its own, whose nodes the parent grafts into its own.
	tokens chan struct{}
	nodes  nodes
	// top counts the pairs of each child of the root (depth 1) it built,
	// or the root's own when the root is a leaf: the tree's gauge.
	top []uint32

	resid  []float64           // |n - model(m)| of the node being fitted
	sample []Pair              // the sampling pre-check's draw
	med    [madSamples]float64 // the residuals whose median is the MAD
	sub    []uint32            // partition's sub-range of each pair
}

func newBuilder(params Params, seed int64, tokens chan struct{}) *builder {
	return &builder{params: params, rng: rand.New(rand.NewSource(seed)), tokens: tokens, nodes: nodes{fanout: int32(params.NodeFanout)}}
}

// build recursively constructs the subtree for pairs covering s at depth
// and returns its reference in b.nodes. It implements Algorithm 1's
// Compute/Validate/SplitNode loop in recursive form (the FIFO order of the
// paper only affects construction order, not the resulting structure).
// other is the region of the second buffer that lies alongside pairs: a
// split scatters pairs into it and the children scatter back, so one
// level's input is the next level's scratch. Only the root passes nil.
func (b *builder) build(pairs, other []Pair, s span, depth int) ref {
	if b.tokens != nil {
		b.rng.Seed(int64(depth)*7919 + int64(len(pairs)))
	}
	if l, ok := b.tryLeaf(pairs, s, depth); ok {
		if depth == 1 {
			b.top = []uint32{saturate(len(pairs))}
		}
		return b.nodes.addLeaf(l)
	}
	if other == nil {
		other = make([]Pair, len(pairs))
	}
	k := b.params.NodeFanout
	w := s.width(k)
	ends := b.partition(pairs, other, s.lo, w, k)
	if depth == 1 {
		b.top = make([]uint32, k)
		start := 0
		for i, end := range ends {
			b.top[i], start = saturate(end-start), end
		}
	}
	in := b.nodes.addInner()
	var wg sync.WaitGroup
	var spawned []*subBuild
	start := 0
	for i, end := range ends {
		cs := s.child(w, i, k)
		bucket, scratch := other[start:end], pairs[start:end]
		start = end
		if b.tokens != nil && len(bucket) >= parallelSpawnMin {
			select {
			case b.tokens <- struct{}{}:
				sb := &subBuild{b: newBuilder(b.params, 0, b.tokens), i: i} // build seeds every node
				spawned = append(spawned, sb)
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-b.tokens }()
					sb.root = sb.b.build(bucket, scratch, cs, depth+1)
				}()
				continue
			default:
				// Pool exhausted: build inline.
			}
		}
		c := b.build(bucket, scratch, cs, depth+1) // before indexing: the build moves b.nodes.inner
		b.nodes.kids(in)[i] = c
	}
	wg.Wait()
	for _, sb := range spawned {
		c := b.nodes.graft(&sb.b.nodes, sb.root)
		b.nodes.kids(in)[sb.i] = c
		b.nodes.takeEdges(&sb.b.nodes, s.child(w, sb.i, k))
	}
	return in
}

// subBuild is a subtree built in nodes of its own, to be grafted into a
// tree's: its builder, its root's reference in the builder's nodes and,
// for a sub-range another worker builds, the child index it fills.
type subBuild struct {
	b    *builder
	root ref
	i    int
}

// tryLeaf fits a linear model over pairs and validates it. It returns the
// finished leaf when the model's outliers stay within OutlierRatio, when
// the depth limit is reached, or when too few pairs remain to justify a
// split — in those cases the uncovered pairs go to the outlier buffer, a
// run at the end of the builder's arena with no room beyond them.
func (b *builder) tryLeaf(pairs []Pair, s span, depth int) (leaf, bool) {
	lo, hi := s.lo, s.hi
	mustBeLeaf := depth >= b.params.MaxHeight || len(pairs) <= b.params.MinLeafPairs || hi-lo <= 0
	// Sampling-based outlier estimation (Appendix D.2): decide to split
	// from a 5% sample before paying for the full regression.
	if !mustBeLeaf && b.params.SampleRate > 0 && len(pairs) > 4*b.params.MinLeafPairs {
		if b.sampleSaysSplit(pairs, lo, hi) {
			return leaf{}, false
		}
	}
	model, eps, outliers := b.fitAndValidate(pairs, lo, hi)
	if !mustBeLeaf && float64(outliers) > b.params.OutlierRatio*float64(len(pairs)) {
		return leaf{}, false
	}
	l := leaf{model: model, eps: eps}
	if g := b.nodes.gridOf(s); g != nil {
		for _, p := range pairs {
			if uncovered(model, eps, lo, hi, p) {
				*g = s.fit(*g, p.M)
			}
		}
	}
	l.off, l.n, l.cap = b.nodes.claim(outliers), uint32(outliers), uint32(outliers)
	b.nodes.held += outliers
	at := l.off
	for _, p := range pairs {
		if uncovered(model, eps, lo, hi, p) {
			b.nodes.put(at, b.nodes.codeAt(s, p.M), p.ID)
			at++
		}
	}
	return l, true
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
	if cap(b.sample) < sn {
		b.sample = make([]Pair, sn)
	}
	sample := b.sample[:sn]
	for i := range sample {
		sample[i] = pairs[b.rng.Intn(len(pairs))]
	}
	_, _, outliers := b.fitAndValidate(sample, lo, hi)
	return float64(outliers) > b.params.OutlierRatio*float64(len(sample))
}

// uncovered reports whether the leaf over [lo, hi] with this model and eps
// misses the pair: Validate's test, and the one that fills a leaf's outlier
// buffer. It is leaf.covers' complement: a pair beyond the range — which a
// rebuilt edge leaf is handed, and no lookup predicts host ranges for — is
// a miss, and so is a NaN residual (a NaN or infinite value on either
// side), and so is every pair of a leaf whose model was fitted on none.
func uncovered(model lmodel, eps float32, lo, hi float64, p Pair) bool {
	return !(fitted(model, eps) && p.M >= lo && p.M <= hi && math.Abs(p.N-model.Predict(p.M)) <= float64(eps))
}

// fitted reports whether a leaf's model was fitted on any pair. One fitted
// on none is the zero line with an eps of +0 (fitAndValidate): it covers no
// pair and predicts no host range, whatever its subtree's live count says —
// a statistic that a replayed parked delete can drive to 0 while pairs the
// model covers are live (ReorgSubtree). A fitted leaf never holds that
// state — deriveEps never gives +0: it floors eps at 1e-12, or gives −0
// under ErrorBound 0, and epsOf keeps both apart from +0 — so a fitted
// zero line covers the pairs on it.
func fitted(model lmodel, eps float32) bool {
	return math.Float32bits(eps) != 0 || model != (lmodel{})
}

// madSamples bounds the residuals the MAD is estimated from.
const madSamples = 4096

// fitAndValidate runs Compute and Validate from Algorithm 1: it fits a
// linear model, derives eps from ErrorBound (§4.5) as the leaf would store
// it (epsOf) and counts the pairs that interval fails to cover.
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
//
// Nothing here allocates once the builder's scratch has grown to the node:
// the polish streams over the inliers in place of collecting them, adding
// in stats.FitLinear's order, so the model is FitLinear's to the bit.
func (b *builder) fitAndValidate(pairs []Pair, lo, hi float64) (model lmodel, eps float32, outliers int) {
	if len(pairs) == 0 {
		return lmodel{}, 0, 0
	}
	if cap(b.resid) < len(pairs) {
		b.resid = make([]float64, len(pairs))
	}
	resid := b.resid[:len(pairs)]
	model = robustFit(pairs, resid)
	// Polish: OLS over the MAD-inliers of the robust fit. The MAD is
	// estimated from a stride sample of residuals: a full median would cost
	// an O(n log n) sort per node and dominates construction, while a few
	// thousand samples estimate the scale just as well.
	for i, p := range pairs {
		resid[i] = math.Abs(p.N - model.Predict(p.M))
	}
	mad := medianOf(strideSample(resid, b.med[:]))
	if mad > 0 {
		thr := 3 * mad
		inliers := 0
		var sx, sy float64
		for i, p := range pairs {
			if resid[i] <= thr {
				inliers++
				sx += p.M
				sy += p.N
			}
		}
		if inliers >= 2 {
			mx, my := sx/float64(inliers), sy/float64(inliers)
			var sxx, sxy float64
			for i, p := range pairs {
				if resid[i] <= thr {
					dx := p.M - mx
					sxx += dx * dx
					sxy += dx * (p.N - my)
				}
			}
			model = lmodel{Beta: 0, Alpha: my} // degenerate m: the horizontal line
			if sxx != 0 {
				beta := sxy / sxx
				model = lmodel{Beta: beta, Alpha: my - beta*mx}
			}
		}
	}
	eps = epsOf(deriveEps(model.Beta, lo, hi, b.params.ErrorBound, len(pairs)))
	for _, p := range pairs {
		if uncovered(model, eps, lo, hi, p) {
			outliers++
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
// scratch holds len(pairs) values the degenerate case may overwrite.
func robustFit(pairs []Pair, scratch []float64) lmodel {
	n := len(pairs)
	if n < 3 {
		var xs, ys [2]float64
		for i, p := range pairs {
			xs[i], ys[i] = p.M, p.N
		}
		m, err := stats.FitLinear(xs[:n], ys[:n])
		if err != nil {
			return lmodel{}
		}
		return m
	}
	k := robustFitSamples
	if n*(n-1)/2 < k {
		k = n * (n - 1) / 2
	}
	var slopeBuf [robustFitSamples]float64
	slopes := slopeBuf[:0]
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
		vals := scratch[:n]
		for i, p := range pairs {
			vals[i] = p.N
		}
		return lmodel{Beta: 0, Alpha: medianOf(vals)}
	}
	beta := medianOf(slopes)
	// Intercept: median of residual intercepts over a sample of points.
	const maxAlphas = 1024
	m := min(n, maxAlphas)
	var alphaBuf [maxAlphas]float64
	alphas := alphaBuf[:0]
	step := n / m
	for i := 0; i < n && len(alphas) < m; i += step {
		alphas = append(alphas, pairs[i].N-beta*pairs[i].M)
	}
	return lmodel{Beta: beta, Alpha: medianOf(alphas)}
}

// strideSample copies up to len(buf) evenly spaced elements of vals into
// buf and returns them.
func strideSample(vals, buf []float64) []float64 {
	if len(vals) <= len(buf) {
		return buf[:copy(buf, vals)]
	}
	step := len(vals) / len(buf)
	out := buf[:0]
	for i := 0; i < len(vals) && len(out) < len(buf); i += step {
		out = append(out, vals[i])
	}
	return out
}

// medianOf returns the (lower) median of vals — its element of rank
// len(vals)/2 — reordering vals in place. Construction calls this three
// times per fit (slopes, intercepts, residuals), so it selects in O(n)
// rather than sorting, and it selects with selectOrdered, whose partition
// loops do not branch on the data: quickselect's data-dependent inner loops
// mispredict on the noisy samples a fit draws, and took twice as long on a
// 1M-pair build (BenchmarkBuildBenchmarkShape). Wherever the
// total order of < is the order of the values — no NaN, no −0 beside +0 —
// the element of a rank is one float64 to the bit, so both return the same
// bits; an input holding a NaN or a −0 keeps quickselect, whose answer for
// those is a function of its own comparison sequence (FuzzMedianOf).
func medianOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	for _, v := range vals {
		if v != v || math.Float64bits(v) == negZeroBits {
			return quickselect(vals, len(vals)/2)
		}
	}
	return selectOrdered(vals, len(vals)/2)
}

// negZeroBits is −0's bit pattern.
const negZeroBits = 1 << 63

// selectOrdered returns the k-th smallest element of vals (0-based), which
// holds no NaN and no −0, reordering vals in place. Each round partitions
// the live range three ways around a sampled pivot (pivotOf), as two
// branch-free Lomuto passes — the values below the pivot to the front, then
// the pivot's equals after them — moving every element unconditionally and
// advancing the boundary by the comparison's 0 or 1. The pivot is one of
// the range's values, so its run of equals is never empty and each round
// shrinks the range; duplicate-heavy input ends on that run.
func selectOrdered(vals []float64, k int) float64 {
	for len(vals) > 1 {
		pivot := pivotOf(vals)
		lt := lomuto(vals, func(v float64) bool { return v < pivot })
		if k < lt {
			vals = vals[:lt]
			continue
		}
		le := lt + lomuto(vals[lt:], func(v float64) bool { return v <= pivot })
		if k < le {
			return pivot
		}
		vals, k = vals[le:], k-le
	}
	return vals[0]
}

// lomuto moves the elements of vals for which in holds to its front, in no
// particular order, and returns their number. It branches on the loop only.
func lomuto(vals []float64, in func(float64) bool) int {
	j := 0
	for i, v := range vals {
		vals[i] = vals[j]
		vals[j] = v
		j += b2i(in(v))
	}
	return j
}

// b2i is 1 for true and 0 for false, compiled to a flag set, not a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// pivotOf samples a pivot from vals, which holds no NaN: the median of three
// (first, middle, last), or from 128 values on the median of three such
// medians (Tukey's ninther) over nine evenly spaced values, which lands
// nearer the middle and saves a quarter of the passes on a median.
func pivotOf(vals []float64) float64 {
	n := len(vals)
	if n < 128 {
		return median3(vals[0], vals[n/2], vals[n-1])
	}
	s := n / 8
	return median3(
		median3(vals[0], vals[s], vals[2*s]),
		median3(vals[3*s], vals[4*s], vals[5*s]),
		median3(vals[6*s], vals[7*s], vals[n-1]))
}

// median3 returns the median of three values without NaN.
func median3(a, b, c float64) float64 {
	return max(min(a, b), min(max(a, b), c))
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
// ErrorBound 0 gives −0, which covers what 0 does — the pairs exactly on
// the line — and tells a fitted leaf from one fitted on no pair (fitted).
func deriveEps(beta, lo, hi, errorBound float64, n int) float64 {
	if n == 0 {
		return 0
	}
	eps := math.Abs(beta) * (hi - lo) * errorBound / (2 * float64(n))
	if eps == 0 {
		if errorBound > 0 {
			return 1e-12
		}
		return math.Copysign(0, -1)
	}
	return eps
}

// epsOf is the float32 a leaf stores for the confidence interval eps: the
// least one not below it, so the stored interval covers what eps does, but
// MaxFloat32 for every eps above that, +Inf included: under an eps of +Inf
// a model that predicts ±Inf would cover pairs of finite host values, for
// which it predicts a NaN range. It keeps eps's sign, and a NaN. The
// builder classifies pairs against the stored value, so building, writes
// and lookups all use one interval.
func epsOf(eps float64) float32 {
	if eps > math.MaxFloat32 {
		return math.MaxFloat32
	}
	f := float32(eps)
	if float64(f) < eps {
		f = math.Nextafter32(f, math.MaxFloat32)
	}
	return f
}

// saturate is n as a uint32 counter, MaxUint32 for more.
func saturate(n int) uint32 { return uint32(min(n, math.MaxUint32)) }

// partition distributes pairs into k sub-ranges of width w from lo
// (Algorithm 1's SplitTable): a counting pass, then a placement into dst —
// as long as pairs — that keeps each sub-range's pairs in input order, which
// the fits below depend on. Sub-range i is dst[ends[i-1]:ends[i]]. The
// counting pass computes each pair's sub-range (a division and two range
// tests) once, into the builder's scratch, where the placement reads it; a
// split's children partition after it returns, so one scratch the size of
// the root's pairs serves every level.
func (b *builder) partition(pairs, dst []Pair, lo, w float64, k int) (ends []int) {
	if cap(b.sub) < len(pairs) {
		b.sub = make([]uint32, len(pairs))
	}
	sub := b.sub[:len(pairs)]
	next := make([]int, k) // counts, then each sub-range's write cursor
	for i, p := range pairs {
		j := subRange(p.M, lo, w, k)
		sub[i] = uint32(j)
		next[j]++
	}
	sum := 0
	for i, c := range next {
		next[i] = sum
		sum += c
	}
	for i, p := range pairs {
		j := sub[i]
		dst[next[j]] = p
		next[j]++
	}
	return next // every cursor stopped at its sub-range's end
}

// sortRanges orders ranges by Lo; used by the lookup union step, whose
// result does not depend on the order of ranges with equal Lo. It runs on
// every lookup that visits two leaves or more and must not allocate
// (TestHermitRangeReadIntoSteadyState), which rules out sort.Slice.
func sortRanges(rs []Range) {
	slices.SortFunc(rs, func(a, b Range) int { return cmp.Compare(a.Lo, b.Lo) })
}
