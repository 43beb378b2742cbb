package trstree

import (
	"encoding/binary"
	"math"
)

// Result is the output of a TRS-Tree lookup (Algorithm 2): a set of
// approximate ranges on the host column N, to be resolved against the host
// index, plus the tuple identifiers of the outliers that may match, which
// can be fetched directly without touching the host index: every matching
// outlier's, and those of the few whose target value rounds to the same
// record code as a matching one (see the outlier record in tree.go).
type Result struct {
	Ranges []Range
	IDs    []uint64
	// LeavesVisited counts the leaf nodes touched; the performance
	// breakdown experiments use it to attribute time to the TRS-Tree phase.
	LeavesVisited int
}

// Lookup answers the range predicate lo <= M <= hi. A point query passes
// lo == hi. The returned ranges are widened by each leaf's confidence
// interval and the outlier identifiers are a superset of the matching
// ones, so both over-approximate the true matches; the base-table visit
// that ends a Hermit lookup removes the false positives.
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
	t.decode(res.IDs)
	// Writes parked in the temporal side buffer while a reorganization
	// scan is in flight (Appendix B) are already acknowledged to their
	// writers, so lookups must see them: matching parked inserts join the
	// identifier result. (Parked deletes need no handling here — the
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
	if olo <= ohi && l.n > 0 {
		dlo, dhi := s.matcher(olo, ohi)
		res.IDs = t.matches(res.IDs, l, dlo, dhi)
	}
}

// matches appends to ids the id fields of leaf l's records whose code
// lies in [dlo, dhi] (decode makes them ids): in place when ids has room
// for every record — a Result carried across lookups soon does — and else
// through a stack buffer, a chunk of records at a time, so a fresh Result
// grows by its matches only.
func (n *nodes) matches(ids []uint64, l *leaf, dlo, dhi float32) []uint64 {
	rec, m := n.rec(), mask(n.w)
	run := n.out[int(l.off)*rec:][:int(l.n)*rec+pad]
	if k := len(ids); cap(ids)-k >= int(l.n) {
		return ids[:k+keep(ids[k:cap(ids)], run, rec, m, dlo, dhi)]
	}
	var kept [matchChunk]uint64
	for len(run) > pad {
		end := min(len(run)-pad, matchChunk*rec)
		ids = append(ids, kept[:keep(kept[:], run[:end+pad], rec, m, dlo, dhi)]...)
		run = run[end:]
	}
	return ids
}

// decode turns the id fields matches kept into the ids they stand for,
// in place, once a lookup has visited its leaves. It is a pass of its own
// so that keep, which writes the field of every record it scans, pays no
// more for a field than its mask: a lookup keeps a few of the records it
// scans. Row ids from 0 take the frame of base 0 and shift 0, where a
// field is its id.
func (n *nodes) decode(fields []uint64) {
	base, shift := n.base, n.shift
	if base == 0 && shift == 0 {
		return
	}
	for i, f := range fields {
		fields[i] = base + f<<shift
	}
}

// matchChunk is the records matches scans into its stack buffer at a time.
const matchChunk = 32

// keep writes to dst, which has room for them all, the id fields (masked
// by m) of the rec-byte records in run — then pad bytes — whose code lies
// in [dlo, dhi], and returns their number. It does not branch on a
// record: it writes every field — an 8-byte load and a mask, which the
// pad keeps in bounds — after the ones kept so far and keeps it by
// advancing their count by the comparisons' 0 or 1. Whether a record
// matches is a coin toss when the predicate covers part of the leaf, and
// a branch on it mispredicted about once a record.
func keep(dst []uint64, run []byte, rec int, m uint64, dlo, dhi float32) int {
	k := 0
	for o := 0; o+pad < len(run); o += rec {
		d := math.Float32frombits(binary.LittleEndian.Uint32(run[o:]))
		dst[k] = binary.LittleEndian.Uint64(run[o+4:]) & m
		k += b2i(d >= dlo) & b2i(d <= dhi)
	}
	return k
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
