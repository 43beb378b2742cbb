package trstree

import "math"

// Insert adds a tuple to the index (Algorithm 3). The tree locates the leaf
// covering m; if the leaf's linear function already covers (m, n) nothing is
// stored — that is the source of TRS-Tree's insert speed (§7.6). Otherwise
// the pair goes to the leaf's outlier buffer, however full it grows: only
// ReorgSubtree refits a leaf.
func (t *Tree) Insert(m, n float64, id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sideBuf != nil {
		t.bufferOp(bufferedOp{p: Pair{M: m, N: n, ID: id}})
		return
	}
	t.insertLocked(m, n, id)
}

func (t *Tree) insertLocked(m, n float64, id uint64) {
	slot, sp, top := t.traverse(m)
	l := &t.leaves[slot]
	if t.gauge[top] < math.MaxUint32 { // saturates: no wrap to 0
		t.gauge[top]++
	}
	if !l.covers(sp, m, n) {
		t.addOutlier(l, t.mark(l, sp, m), id)
	}
}

// Delete removes a tuple (Algorithm 3). Only outlier-buffer entries carry
// state, so deleting a model-covered tuple just updates its subtree's
// count (it must not touch the buffer: under logical pointers another
// version of the same key, with the same target value and an uncovered
// host value, may own an entry with this very (m, id)); the resulting
// false positives are filtered by the base-table visit that ends every
// Hermit lookup, until a ReorgSubtree refits the range.
func (t *Tree) Delete(m, n float64, id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sideBuf != nil {
		t.bufferOp(bufferedOp{del: true, p: Pair{M: m, N: n, ID: id}})
		return
	}
	t.deleteLocked(m, n, id)
}

func (t *Tree) deleteLocked(m, n float64, id uint64) {
	slot, sp, top := t.traverse(m)
	l := &t.leaves[slot]
	if !l.covers(sp, m, n) {
		t.removeOutlier(l, t.codeAt(sp, m), id)
	}
	if t.gauge[top] > 0 {
		t.gauge[top]--
	}
}

// Update re-indexes a tuple whose host value changed from oldN to newN
// (target value unchanged), the common case for correlated columns.
func (t *Tree) Update(m, oldN, newN float64, id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sideBuf != nil {
		t.bufferOp(bufferedOp{del: true, p: Pair{M: m, N: oldN, ID: id}})
		t.bufferOp(bufferedOp{p: Pair{M: m, N: newN, ID: id}})
		return
	}
	slot, sp, _ := t.traverse(m)
	l := &t.leaves[slot]
	wasCovered, isCovered := l.covers(sp, m, oldN), l.covers(sp, m, newN)
	switch {
	case wasCovered && !isCovered:
		t.addOutlier(l, t.mark(l, sp, m), id)
	case !wasCovered && isCovered:
		t.removeOutlier(l, t.codeAt(sp, m), id)
	}
}

// covers reports whether the leaf, which covers s, predicts host value nv
// for target value m within its confidence interval, in which case the
// tuple is stored nowhere: uncovered's complement. Values outside the
// build-time range are never covered, nor is any by a model fitted on no
// pair.
func (l *leaf) covers(s span, m, nv float64) bool {
	return !uncovered(l.model, l.eps, s.lo, s.hi, Pair{M: m, N: nv})
}

// addOutlier records (d, id) in leaf l's buffer, d being the code of its
// target value in the leaf's span. The buffer is a multiset:
// under logical pointers every version of a key carries the same id, so
// two versions with one target value are two entries, and reclaiming one
// of them must leave the other's behind. An insert that a reorganization's
// rescan had already collected and the side-buffer replay adds again is a
// surplus candidate, which validation filters; dropping it as a duplicate
// instead would risk a false negative.
//
// The arena's capacity is counted in Stats().SizeBytes, so a run's room
// follows the entries it holds: a full run grows by an eighth (at least
// outlierStep entries), not by doubling, and removeOutlier gives back the
// room once half of it is unused.
func (n *nodes) addOutlier(l *leaf, d uint16, id uint64) {
	if l.n == l.cap {
		n.regrow(l, l.n+max(outlierStep, l.n/8))
	}
	n.put(l.off+l.n, d, id)
	l.n++
	n.held++
}

// removeOutlier takes one (d, id) record out of leaf l's buffer, moving
// the run's last record into its place, and reports whether there was
// one. Two values with one code are one record to the buffer, so which of
// their entries goes makes no difference to any lookup. A NaN value codes
// to nanCode every time, and its record goes with its tuple like any
// other.
func (n *nodes) removeOutlier(l *leaf, d uint16, id uint64) bool {
	for i := l.off; i < l.off+l.n; i++ {
		if n.id(i) == id && n.code(i) == d {
			last, rec := int(l.off+l.n-1), n.rec()
			copy(n.out[int(i)*rec:][:rec], n.out[last*rec:])
			l.n--
			n.held--
			if l.n <= l.cap/2 {
				n.release(l.off+l.n, l.cap-l.n)
				l.cap = l.n
				if l.cap == 0 {
					l.off = 0
				}
			}
			n.settle()
			return true
		}
	}
	return false
}

// outlierStep is the least a full outlier buffer grows by.
const outlierStep = 8

// regrow gives leaf l's run room for capacity entries: in place when the
// run ends the arena, else in a run claimed at its end, the old slots left
// dead.
func (n *nodes) regrow(l *leaf, capacity uint32) {
	if int(l.off+l.cap) == n.slots() {
		n.claim(int(capacity - l.cap))
	} else {
		off := n.claim(int(capacity))
		copy(n.out[int(off)*n.rec():], n.runBytes(l))
		n.release(l.off, l.cap)
		l.off = off
	}
	l.cap = capacity
	n.settle()
}

func (t *Tree) bufferOp(op bufferedOp) {
	*t.sideBuf = append(*t.sideBuf, op)
}

// ReorgSubtree rebuilds first-level subtree i — the whole tree while the
// root is a leaf — from a rescan of src. It is the tree's one
// reorganization path (§4.4, Appendix B): it marks the tree so that
// writers park in the temporal side buffer, scans and builds without the
// latch, then installs the new subtree and replays the parked writes under
// the write latch. A rebuild that starts while another is parked runs whole
// under the write latch instead. An i that names no subtree rebuilds
// nothing. The reorganization trace experiment (§7.7, Fig. 23) drives
// partial reorganizations through it; the engine does not reorganize.
func (t *Tree) ReorgSubtree(i int, src DataSource) error {
	// Phase 1: mark reorganization so writers divert to the side buffer.
	t.mu.Lock()
	at, ok := t.target(i)
	if !ok {
		t.mu.Unlock()
		return nil
	}
	if t.sideBuf != nil {
		defer t.mu.Unlock()
		return t.rebuildLocked(at, src)
	}
	t.sideBuf = new([]bufferedOp)
	t.mu.Unlock()

	// Phase 2: scan and build without holding the tree latch.
	pairs, err := collectPairs(src, at.span)
	var repl subBuild
	if err == nil {
		repl = buildReplacement(pairs, at, t.params)
	}

	// Phase 3: install under the write latch, replaying parked writers.
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.replaySideBuf()
	if err != nil {
		return err
	}
	t.install(at, repl, len(pairs))
	return nil
}

// place is a rebuild's target, named by its path: the root (depth 1) or
// first-level subtree i (depth 2), with the span it covers. A rebuild
// replaces a node but never its span, and only a leaf root is rebuilt
// whole, so a root that is an inner node stays one: the path leads to the
// same place however the tree changed while a rebuild scanned.
type place struct {
	span
	depth, i int
}

// target returns the place of first-level subtree i, the root's while the
// root is a leaf. It reports false when i names no subtree. Called with
// t.mu held.
func (t *Tree) target(i int) (place, bool) {
	if t.root.isLeaf() {
		return place{span: t.rootSpan(), depth: 1}, true
	}
	k := t.params.NodeFanout
	if i < 0 || i >= k {
		return place{}, false
	}
	rs := t.rootSpan()
	return place{span: rs.child(rs.width(k), i, k), depth: 2, i: i}, true
}

// refAt returns the reference to the node at p. Called with t.mu held.
func (t *Tree) refAt(p place) *ref {
	if p.depth == 1 {
		return &t.root
	}
	return &t.kids(t.root)[p.i]
}

// rebuildLocked performs scan+build+install entirely under t.mu; used only
// when rebuilds race with each other.
func (t *Tree) rebuildLocked(at place, src DataSource) error {
	pairs, err := collectPairs(src, at.span)
	if err != nil {
		return err
	}
	t.install(at, buildReplacement(pairs, at, t.params), len(pairs))
	return nil
}

func collectPairs(src DataSource, s span) ([]Pair, error) {
	var pairs []Pair
	err := src.ScanMRange(s.effectiveLo(), s.effectiveHi(), func(m, n float64, id uint64) bool {
		pairs = append(pairs, Pair{M: m, N: n, ID: id})
		return true
	})
	return pairs, err
}

// buildReplacement builds, in a builder's nodes, the subtree that replaces
// the node at. Its sampling RNG is seeded from the node — depth, pair
// count and the bits of its lower bound — so replaying one trace of writes
// and reorganizations builds the same subtrees.
func buildReplacement(pairs []Pair, at place, params Params) subBuild {
	seed := int64(at.depth)*7919 + int64(len(pairs)) + int64(math.Float64bits(at.lo))
	b := newBuilder(params, seed, nil)
	return subBuild{b: b, root: b.build(pairs, nil, at.span, at.depth)}
}

// install replaces the subtree at with the one repl built from the
// scanned pairs, and resets the subtree counters and the height to it. The
// old subtree's slots are freed first, so the new one fills them, and its
// runs settled, so the new runs do not grow an arena of dead slots. Called
// with t.mu held.
func (t *Tree) install(at place, repl subBuild, scanned int) {
	t.free(*t.refAt(at))
	t.settle()
	r := t.graft(&repl.b.nodes, repl.root) // before refAt: the graft may move t.inner
	*t.refAt(at) = r
	t.takeEdges(&repl.b.nodes, at.span)
	if at.depth == 1 {
		t.gauge = repl.b.top
	} else {
		t.gauge[at.i] = saturate(scanned)
	}
	t.height = t.depth(t.root)
}

// replaySideBuf applies writes parked during the reorganization scan and
// ends the diversion. Called with t.mu held.
func (t *Tree) replaySideBuf() {
	parked := *t.sideBuf
	t.sideBuf = nil
	for _, op := range parked {
		if op.del {
			t.deleteLocked(op.p.M, op.p.N, op.p.ID)
		} else {
			t.insertLocked(op.p.M, op.p.N, op.p.ID)
		}
	}
}
