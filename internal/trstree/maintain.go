package trstree

import (
	"math"
	"time"
)

// Insert adds a tuple to the index (Algorithm 3). The tree locates the leaf
// covering m; if the leaf's linear function already covers (m, n) nothing is
// stored — that is the source of TRS-Tree's insert speed (§7.6). Otherwise
// the pair goes to the leaf's outlier buffer. Overgrown buffers enqueue the
// leaf for reorganization.
func (t *Tree) Insert(m, n float64, id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inReorg {
		t.bufferOp(bufferedOp{p: Pair{M: m, N: n, ID: id}})
		return
	}
	t.insertLocked(m, n, id)
}

func (t *Tree) insertLocked(m, n float64, id uint64) {
	slot, sp := t.traverse(m)
	l := &t.leaves[slot]
	if l.count < math.MaxUint32 { // saturates: no wrap to 0
		l.count++
	}
	if l.covers(sp, m, n) {
		return
	}
	l.addOutlier(m, id)
	if float64(len(l.outliers)) > t.params.OutlierRatio*float64(l.count) {
		t.enqueue(reorgCandidate{leaf: t.id(leafRef(slot)), m: m})
	}
}

// Delete removes a tuple (Algorithm 3). Only outlier-buffer entries carry
// state, so deleting a model-covered tuple just updates the counters (it
// must not touch the buffer: under logical pointers another version of the
// same key, with the same target value and an uncovered host value, may
// own an entry with this very (m, id)); the resulting false positives are
// filtered by the base-table visit that ends every Hermit lookup.
// Ranges that accumulate many deletes enqueue their parent for a merge.
func (t *Tree) Delete(m, n float64, id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inReorg {
		t.bufferOp(bufferedOp{del: true, p: Pair{M: m, N: n, ID: id}})
		return
	}
	t.deleteLocked(m, n, id)
}

func (t *Tree) deleteLocked(m, n float64, id uint64) {
	slot, sp := t.traverse(m)
	l := &t.leaves[slot]
	if !l.covers(sp, m, n) {
		l.removeOutlier(m, id)
	}
	if l.count > 0 {
		l.count--
	}
	if l.deleted < math.MaxUint32 {
		l.deleted++
	}
	if l.count > 0 && float64(l.deleted) > t.params.OutlierRatio*float64(l.count) {
		t.enqueue(reorgCandidate{leaf: t.id(leafRef(slot)), m: m, merge: true})
	}
}

// Update re-indexes a tuple whose host value changed from oldN to newN
// (target value unchanged), the common case for correlated columns.
func (t *Tree) Update(m, oldN, newN float64, id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inReorg {
		t.bufferOp(bufferedOp{del: true, p: Pair{M: m, N: oldN, ID: id}})
		t.bufferOp(bufferedOp{p: Pair{M: m, N: newN, ID: id}})
		return
	}
	slot, sp := t.traverse(m)
	l := &t.leaves[slot]
	wasCovered, isCovered := l.covers(sp, m, oldN), l.covers(sp, m, newN)
	switch {
	case wasCovered && !isCovered:
		l.addOutlier(m, id)
	case !wasCovered && isCovered:
		l.removeOutlier(m, id)
	}
}

// covers reports whether the leaf, which covers s, predicts host value nv
// for target value m within its confidence interval, in which case the
// tuple is stored nowhere. Values outside the build-time range are never
// covered.
func (l *leaf) covers(s span, m, nv float64) bool {
	return m >= s.lo && m <= s.hi && math.Abs(nv-l.model.Predict(m)) <= l.eps
}

// addOutlier records (m, id). The buffer is a multiset: under logical
// pointers every version of a key carries the same id, so two versions
// with one target value are two entries, and reclaiming one of them must
// leave the other's behind. An insert that a reorganization's rescan had
// already collected and the side-buffer replay adds again is a surplus
// candidate, which validation filters; dropping it as a duplicate instead
// would risk a false negative.
//
// The buffer's capacity is counted in Stats().SizeBytes, so it follows the
// entries held: a full buffer grows by an eighth (at least outlierStep
// entries), not by append's doubling, and removeOutlier gives back the
// array once half of it is unused.
func (l *leaf) addOutlier(m float64, id uint64) {
	if held := len(l.outliers); held == cap(l.outliers) {
		l.rehouse(held + max(outlierStep, held/8))
	}
	l.outliers = append(l.outliers, outlierEntry{m: m, id: id})
}

func (l *leaf) removeOutlier(m float64, id uint64) bool {
	for i, e := range l.outliers {
		if e.id == id && e.m == m {
			last := len(l.outliers) - 1
			l.outliers[i] = l.outliers[last]
			l.outliers = l.outliers[:last]
			if last <= cap(l.outliers)/2 {
				l.rehouse(last)
			}
			return true
		}
	}
	return false
}

// outlierStep is the least a full outlier buffer grows by.
const outlierStep = 8

// rehouse moves the outlier buffer into an array of the given capacity.
func (l *leaf) rehouse(capacity int) {
	if capacity == 0 {
		l.outliers = nil
		return
	}
	l.outliers = append(make([]outlierEntry, 0, capacity), l.outliers...)
}

func (t *Tree) bufferOp(op bufferedOp) {
	t.sideBuf = append(t.sideBuf, op)
}

// enqueue registers a reorganization candidate, deduplicating by leaf.
// Writers call this with t.mu held.
func (t *Tree) enqueue(c reorgCandidate) {
	t.reorgMu.Lock()
	defer t.reorgMu.Unlock()
	if t.pendingIn == nil {
		t.pendingIn = make(map[nodeID]bool)
	}
	if t.pendingIn[c.leaf] {
		return
	}
	t.pendingIn[c.leaf] = true
	t.pending = append(t.pending, c)
}

// PendingReorg returns the number of queued reorganization candidates.
func (t *Tree) PendingReorg() int {
	t.reorgMu.Lock()
	defer t.reorgMu.Unlock()
	return len(t.pending)
}

// ReorgOnce processes every queued candidate in one batch (the paper's
// batch structure reorganization): for each candidate it rescans the
// affected target range from src, rebuilds the subtree, and installs it
// under the coarse write latch. Concurrent writers are parked in the
// temporal side buffer while the rebuild scan runs (Appendix B) and are
// replayed before the latch is released. It returns the number of subtrees
// rebuilt.
func (t *Tree) ReorgOnce(src DataSource) (int, error) {
	t.reorgMu.Lock()
	cands := t.pending
	t.pending = nil
	t.pendingIn = nil
	t.reorgMu.Unlock()
	if len(cands) == 0 {
		return 0, nil
	}
	rebuilt := 0
	for _, c := range cands {
		target := c.leaf
		if c.merge {
			t.mu.RLock()
			if at, ok := t.find(c.leaf, c.m); ok && at.depth > 1 {
				target = at.up
			}
			t.mu.RUnlock()
		}
		ok, err := t.rebuildSubtree(target, c.m, src)
		if err != nil {
			return rebuilt, err
		}
		if ok {
			rebuilt++
		}
	}
	return rebuilt, nil
}

// ReorgSubtree rebuilds the i-th first-level subtree from src regardless of
// the candidate queue. The reorganization trace experiment (§7.7, Fig. 23)
// drives partial reorganizations through this entry point.
func (t *Tree) ReorgSubtree(i int, src DataSource) error {
	k := t.params.NodeFanout
	t.mu.RLock()
	target, m := t.id(t.root), t.bounds.lo
	if !t.root.isLeaf() {
		if i < 0 || i >= k {
			t.mu.RUnlock()
			return nil
		}
		cs := t.bounds.child(t.bounds.width(k), i, k)
		target, m = t.id(t.kids(t.root)[i]), cs.lo+(cs.hi-cs.lo)/2
	}
	t.mu.RUnlock()
	_, err := t.rebuildSubtree(target, m, src)
	return err
}

// place is where a node sits in the tree: its span and depth (root = 1),
// its parent, and the index in t.inner of the reference to it.
type place struct {
	span
	depth int
	id    nodeID
	up    nodeID // the parent's, when depth > 1
	slot  int    // -1: the reference is t.root
}

// refAt returns the reference at slot, t.root for -1.
func (t *Tree) refAt(slot int) *ref {
	if slot < 0 {
		return &t.root
	}
	return &t.inner[slot]
}

// find descends towards m until it meets the node id and returns its
// place. It reports false when id is no longer in the tree, or not on
// m's path. Called with t.mu held.
func (t *Tree) find(id nodeID, m float64) (place, bool) {
	at := place{span: t.bounds, depth: 1, id: t.id(t.root), slot: -1}
	k := t.params.NodeFanout
	for at.id != id {
		if at.id.r.isLeaf() {
			return place{}, false
		}
		w := at.width(k)
		i := subRange(m, at.lo, w, k)
		slot := int(at.id.r)*k + i
		at = place{span: at.child(w, i, k), depth: at.depth + 1, id: t.id(t.inner[slot]), up: at.id, slot: slot}
	}
	return at, true
}

// rebuildSubtree rescans the node id's range (edge-extended), rebuilds
// the subtree and swaps it in. m leads to the node (find). It reports
// false when the node is no longer in the tree (replaced by an earlier
// candidate in the batch).
func (t *Tree) rebuildSubtree(id nodeID, m float64, src DataSource) (bool, error) {
	// Phase 1: mark reorganization so writers divert to the side buffer.
	t.mu.Lock()
	at, ok := t.find(id, m)
	if !ok {
		t.mu.Unlock()
		return false, nil
	}
	if t.inReorg {
		// A concurrent explicit reorg is running; fall back to doing the
		// whole rebuild under the write latch.
		defer t.mu.Unlock()
		return t.rebuildLocked(at, src)
	}
	t.inReorg = true
	t.mu.Unlock()

	// Phase 2: scan and build without holding the tree latch.
	pairs, err := collectPairs(src, at.span)
	var repl subBuild
	if err == nil {
		repl = buildReplacement(pairs, at, t.params)
	}

	// Phase 3: install under the write latch, replaying parked writers.
	t.mu.Lock()
	defer func() {
		t.inReorg = false
		t.mu.Unlock()
	}()
	defer t.replaySideBuf()
	if err != nil {
		return false, err
	}
	// Re-locate: the tree may have changed while we scanned.
	if at, ok = t.find(id, m); !ok {
		return false, nil
	}
	t.install(at, repl)
	return true, nil
}

// rebuildLocked performs scan+build+install entirely under t.mu; used only
// when rebuilds race with each other.
func (t *Tree) rebuildLocked(at place, src DataSource) (bool, error) {
	pairs, err := collectPairs(src, at.span)
	if err != nil {
		return false, err
	}
	t.install(at, buildReplacement(pairs, at, t.params))
	return true, nil
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

// install replaces the subtree at with the one repl built. The old
// subtree's slots are freed first, so the new one fills them. Called with
// t.mu held.
func (t *Tree) install(at place, repl subBuild) {
	t.free(*t.refAt(at.slot))
	r := t.graft(&repl.b.nodes, repl.root) // before refAt: the graft may move t.inner
	*t.refAt(at.slot) = r
}

// replaySideBuf applies writes parked during the reorganization scan.
// Called with t.mu held and inReorg still true; the direct *Locked calls
// bypass the diversion.
func (t *Tree) replaySideBuf() {
	for _, op := range t.sideBuf {
		if op.del {
			t.deleteLocked(op.p.M, op.p.N, op.p.ID)
		} else {
			t.insertLocked(op.p.M, op.p.N, op.p.ID)
		}
	}
	t.sideBuf = nil
}

// StartReorg launches the dedicated background reorganization goroutine
// (§4.4): every interval it batch-processes the candidate queue against
// src. Stop it with StopReorg. Starting twice is a no-op.
func (t *Tree) StartReorg(src DataSource, interval time.Duration) {
	t.reorgMu.Lock()
	if t.stopCh != nil {
		t.reorgMu.Unlock()
		return
	}
	t.stopCh = make(chan struct{})
	t.doneCh = make(chan struct{})
	stop, done := t.stopCh, t.doneCh
	t.reorgMu.Unlock()
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				_, _ = t.ReorgOnce(src)
			}
		}
	}()
}

// StopReorg stops the background reorganizer and waits for it to exit.
func (t *Tree) StopReorg() {
	t.reorgMu.Lock()
	stop, done := t.stopCh, t.doneCh
	t.stopCh, t.doneCh = nil, nil
	t.reorgMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
