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
	leaf := t.traverse(m)
	leaf.count++
	if leaf.covers(m, n) {
		return
	}
	leaf.addOutlier(m, id)
	if float64(len(leaf.outliers)) > t.params.OutlierRatio*float64(leaf.count) {
		t.enqueue(reorgCandidate{n: leaf})
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
	leaf := t.traverse(m)
	if !leaf.covers(m, n) {
		leaf.removeOutlier(m, id)
	}
	if leaf.count > 0 {
		leaf.count--
	}
	leaf.deleted++
	if leaf.count > 0 && float64(leaf.deleted) > t.params.OutlierRatio*float64(leaf.count) {
		t.enqueue(reorgCandidate{n: leaf, merge: true})
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
	leaf := t.traverse(m)
	wasCovered, isCovered := leaf.covers(m, oldN), leaf.covers(m, newN)
	switch {
	case wasCovered && !isCovered:
		leaf.addOutlier(m, id)
	case !wasCovered && isCovered:
		leaf.removeOutlier(m, id)
	}
}

// covers reports whether the leaf's linear function predicts host value nv
// for target value m within its confidence interval, in which case the
// tuple is stored nowhere. Values outside the build-time range are never
// covered.
func (n *node) covers(m, nv float64) bool {
	return m >= n.lo && m <= n.hi && math.Abs(nv-n.model.Predict(m)) <= n.eps
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
func (n *node) addOutlier(m float64, id uint64) {
	if held := len(n.outliers); held == cap(n.outliers) {
		n.rehouse(held + max(outlierStep, held/8))
	}
	n.outliers = append(n.outliers, outlierEntry{m: m, id: id})
}

func (n *node) removeOutlier(m float64, id uint64) bool {
	for i, e := range n.outliers {
		if e.id == id && e.m == m {
			last := len(n.outliers) - 1
			n.outliers[i] = n.outliers[last]
			n.outliers = n.outliers[:last]
			if last <= cap(n.outliers)/2 {
				n.rehouse(last)
			}
			return true
		}
	}
	return false
}

// outlierStep is the least a full outlier buffer grows by.
const outlierStep = 8

// rehouse moves the outlier buffer into an array of the given capacity.
func (n *node) rehouse(capacity int) {
	if capacity == 0 {
		n.outliers = nil
		return
	}
	n.outliers = append(make([]outlierEntry, 0, capacity), n.outliers...)
}

func (t *Tree) bufferOp(op bufferedOp) {
	t.sideBuf = append(t.sideBuf, op)
}

// enqueue registers a reorganization candidate, deduplicating by node.
// Writers call this with t.mu held.
func (t *Tree) enqueue(c reorgCandidate) {
	t.reorgMu.Lock()
	defer t.reorgMu.Unlock()
	if t.pendingIn == nil {
		t.pendingIn = make(map[*node]bool)
	}
	if t.pendingIn[c.n] {
		return
	}
	t.pendingIn[c.n] = true
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
		target := c.n
		if c.merge {
			if p := t.parentOf(target); p != nil {
				target = p
			}
		}
		ok, err := t.rebuildSubtree(target, src)
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
	t.mu.RLock()
	var target *node
	if t.root.isLeaf() {
		target = t.root
	} else if i >= 0 && i < len(t.root.children) {
		target = t.root.children[i]
	}
	t.mu.RUnlock()
	if target == nil {
		return nil
	}
	_, err := t.rebuildSubtree(target, src)
	return err
}

// rebuildSubtree rescans [target.lo, target.hi] (edge-extended), rebuilds
// the subtree and swaps it in. It reports false when the target is no
// longer reachable (already replaced by an earlier candidate in the batch).
func (t *Tree) rebuildSubtree(target *node, src DataSource) (bool, error) {
	// Phase 1: mark reorganization so writers divert to the side buffer.
	t.mu.Lock()
	parent, depth := t.locate(target)
	if parent == nil && t.root != target {
		t.mu.Unlock()
		return false, nil
	}
	if t.inReorg {
		// A concurrent explicit reorg is running; fall back to doing the
		// whole rebuild under the write latch.
		defer t.mu.Unlock()
		return t.rebuildLocked(target, parent, depth, src)
	}
	t.inReorg = true
	t.mu.Unlock()

	// Phase 2: scan and build without holding the tree latch.
	pairs, err := collectPairs(src, target)
	newNode, buildErr := buildReplacement(pairs, target, depth, t.params)

	// Phase 3: install under the write latch, replaying parked writers.
	t.mu.Lock()
	defer func() {
		t.inReorg = false
		t.mu.Unlock()
	}()
	if err != nil {
		t.replaySideBuf()
		return false, err
	}
	if buildErr != nil {
		t.replaySideBuf()
		return false, buildErr
	}
	// Re-locate: the tree may have changed while we scanned.
	parent, _ = t.locate(target)
	if parent == nil && t.root != target {
		t.replaySideBuf()
		return false, nil
	}
	t.install(parent, target, newNode)
	t.replaySideBuf()
	return true, nil
}

// rebuildLocked performs scan+build+install entirely under t.mu; used only
// when rebuilds race with each other.
func (t *Tree) rebuildLocked(target, parent *node, depth int, src DataSource) (bool, error) {
	pairs, err := collectPairs(src, target)
	if err != nil {
		return false, err
	}
	newNode, err := buildReplacement(pairs, target, depth, t.params)
	if err != nil {
		return false, err
	}
	t.install(parent, target, newNode)
	return true, nil
}

func collectPairs(src DataSource, target *node) ([]Pair, error) {
	var pairs []Pair
	err := src.ScanMRange(target.effectiveLo(), target.effectiveHi(), func(m, n float64, id uint64) bool {
		pairs = append(pairs, Pair{M: m, N: n, ID: id})
		return true
	})
	return pairs, err
}

// buildReplacement builds the subtree that replaces target. Its sampling
// RNG is seeded from the node — depth, pair count and the bits of its lower
// bound — so replaying one trace of writes and reorganizations builds the
// same subtrees.
func buildReplacement(pairs []Pair, target *node, depth int, params Params) (*node, error) {
	seed := int64(depth)*7919 + int64(len(pairs)) + int64(math.Float64bits(target.lo))
	b := newBuilder(params, seed, nil)
	return b.build(pairs, nil, target.lo, target.hi, depth, target.leftEdge, target.rightEdge), nil
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

// locate finds target's parent and depth (root depth = 1) by descending the
// deterministic range structure. A nil parent with depth 1 means target is
// the root; a nil parent with depth 0 means target is unreachable.
// Called with t.mu held.
func (t *Tree) locate(target *node) (parent *node, depth int) {
	if t.root == target {
		return nil, 1
	}
	mid := (target.lo + target.hi) / 2
	cur := t.root
	d := 1
	for !cur.isLeaf() {
		for _, c := range cur.children {
			if c == target {
				return cur, d + 1
			}
		}
		cur = cur.children[childIndex(cur, mid)]
		d++
	}
	return nil, 0
}

// install replaces target with repl in the tree. Called with t.mu held.
func (t *Tree) install(parent, target, repl *node) {
	if parent == nil {
		t.root = repl
		return
	}
	for i, c := range parent.children {
		if c == target {
			parent.children[i] = repl
			return
		}
	}
}

// parentOf returns the parent of n, or nil when n is the root or detached.
func (t *Tree) parentOf(n *node) *node {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p, _ := t.locate(n)
	return p
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
