package trstree

import "math"

// Result is the output of a TRS-Tree lookup (Algorithm 2): a set of
// approximate ranges on the host column N, to be resolved against the host
// index, plus the exact tuple identifiers of matching outliers, which can be
// fetched directly without touching the host index.
type Result struct {
	Ranges []Range
	IDs    []uint64
	// LeavesVisited counts the leaf nodes touched; the performance
	// breakdown experiments use it to attribute time to the TRS-Tree phase.
	LeavesVisited int
}

// Lookup answers the range predicate lo <= M <= hi. A point query passes
// lo == hi. The returned ranges are widened by each leaf's confidence
// interval, so they over-approximate the true matches; the base-table
// visit that ends a Hermit lookup removes the false positives.
func (t *Tree) Lookup(lo, hi float64) Result {
	var res Result
	t.LookupInto(lo, hi, &res)
	return res
}

// LookupInto is Lookup into a caller-owned Result, whose slices it reuses:
// a caller that carries res across lookups allocates nothing once they
// have grown.
func (t *Tree) LookupInto(lo, hi float64, res *Result) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	*res = Result{Ranges: res.Ranges[:0], IDs: res.IDs[:0]}
	if lo > hi {
		return
	}
	t.lookupNode(t.root, t.bounds, lo, hi, res)
	// Writes parked in the temporal side buffer while a reorganization
	// scan is in flight (Appendix B) are already acknowledged to their
	// writers, so lookups must see them: matching parked inserts join the
	// exact-identifier result. (Parked deletes need no handling here — the
	// stale entry they will remove only widens the candidate set, and
	// validation filters it.)
	for _, op := range t.sideBuf {
		if !op.del && op.p.M >= lo && op.p.M <= hi {
			res.IDs = append(res.IDs, op.p.ID)
		}
	}
	if t.params.UnionRanges {
		res.Ranges = unionRanges(res.Ranges)
	}
}

// lookupNode performs the per-node work of Algorithm 2 on node r, which
// covers s. The paper uses a FIFO queue for breadth-first traversal;
// recursion visits the same nodes (every node overlapping the predicate)
// without allocating a queue.
func (t *Tree) lookupNode(r ref, s span, lo, hi float64, res *Result) {
	if !r.isLeaf() {
		k := t.params.NodeFanout
		w := s.width(k)
		for i, c := range t.kids(r) {
			if cs := s.child(w, i, k); cs.effectiveLo() <= hi && cs.effectiveHi() >= lo {
				t.lookupNode(c, cs, lo, hi, res)
			}
		}
		return
	}
	l := &t.leaves[r.slot()]
	res.LeavesVisited++
	// Intersect the predicate with the leaf's finite range for the model
	// estimate; out-of-range values are never model-covered (they are
	// inserted straight into outlier buffers), so the model is only
	// consulted over the range it was fitted on.
	// A model fitted over infinite or NaN values predicts NaN; it covers no
	// pair (covers, uncovered), so it contributes no range — a NaN range
	// would also derail the union's sort.
	mlo := math.Max(lo, s.lo)
	mhi := math.Min(hi, s.hi)
	if mlo <= mhi && l.count > 0 {
		if rlo, rhi := l.model.PredictRange(mlo, mhi, l.eps); rlo <= rhi {
			res.Ranges = append(res.Ranges, Range{Lo: rlo, Hi: rhi})
		}
	}
	// Outlier retrieval uses the edge-extended range so that tuples beyond
	// the build-time range R are still found.
	olo := math.Max(lo, s.effectiveLo())
	ohi := math.Min(hi, s.effectiveHi())
	if olo <= ohi {
		for _, e := range l.outliers {
			if e.m >= olo && e.m <= ohi {
				res.IDs = append(res.IDs, e.id)
			}
		}
	}
}

// unionRanges merges overlapping or touching ranges (Algorithm 2, line 15),
// reducing the number of host-index probes.
func unionRanges(rs []Range) []Range {
	if len(rs) <= 1 {
		return rs
	}
	sortRanges(rs)
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}
