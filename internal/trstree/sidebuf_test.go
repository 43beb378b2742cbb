package trstree

import (
	"math"
	"sync"
	"testing"
)

// blockingSource is a DataSource whose scan parks until released: it holds
// a reorganization in its scan phase so the test can observe the tree
// while writers are being diverted to the temporal side buffer.
type blockingSource struct {
	inner   *sliceSource
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (b *blockingSource) ScanMRange(lo, hi float64, fn func(m, n float64, id uint64) bool) error {
	b.once.Do(func() { close(b.started) })
	<-b.release
	return b.inner.ScanMRange(lo, hi, fn)
}

// TestLookupSeesSideBufferedInserts is the regression test for a lost-
// visibility window: an insert acknowledged while a reorganization scan is
// in flight is parked in the side buffer, and lookups running before the
// replay must still return it. (The MVCC engine stamps a row's commit only
// after its index inserts return, so a parked-but-invisible insert would
// let a snapshot read miss a committed row.)
func TestLookupSeesSideBufferedInserts(t *testing.T) {
	params := DefaultParams()
	params.SampleRate = 0
	src := &sliceSource{pairs: genLinear(4000, 1000, 0, 7)}
	tr := mustBuild(t, src.pairs, params)
	// Flood one region with off-model pairs for the rebuild to refit.
	for i := 0; i < 1500; i++ {
		p := Pair{M: 100 + float64(i%10), N: 5e6 + float64(i), ID: uint64(50000 + i)}
		src.add(p)
		tr.Insert(p.M, p.N, p.ID)
	}
	blk := &blockingSource{
		inner:   src,
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	done := make(chan error, 1)
	go func() { done <- tr.ReorgSubtree(0, blk) }()
	<-blk.started // the rebuild is now parked inside its scan phase

	// An insert arriving mid-scan is acknowledged (diverted to the side
	// buffer) — off-model AND on-model alike must be lookup-visible.
	tr.Insert(500, 9e6, 777777) // far off the linear model
	tr.Insert(600, 600, 888888) // exactly on the model
	for _, want := range []struct {
		m  float64
		id uint64
	}{{500, 777777}, {600, 888888}} {
		res := tr.Lookup(want.m, want.m)
		found := false
		for _, id := range res.IDs {
			if id == want.id {
				found = true
			}
		}
		if !found {
			t.Fatalf("insert (m=%v id=%d) parked during reorg is invisible to Lookup", want.m, want.id)
		}
	}

	// After the reorg completes the parked writes are replayed and must
	// stay visible through the ordinary structures.
	close(blk.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	res := tr.Lookup(500, 500)
	found := false
	for _, id := range res.IDs {
		if id == 777777 {
			found = true
		}
	}
	if !found {
		t.Fatal("off-model insert lost after side-buffer replay")
	}
	// The on-model insert may be model-covered after replay: it must be
	// reachable either as an exact id or through a predicted range
	// covering its host value.
	res = tr.Lookup(600, 600)
	ok := false
	for _, id := range res.IDs {
		if id == 888888 {
			ok = true
		}
	}
	for _, r := range res.Ranges {
		if 600 >= r.Lo && 600 <= r.Hi {
			ok = true
		}
	}
	if !ok {
		t.Fatal("on-model insert unreachable after side-buffer replay")
	}
}

// The outlier buffer's capacity — which Stats().SizeBytes counts — follows
// the entries it holds through growth and shrinkage: never more than an
// eighth (or outlierStep) above them after an add, never more than twice
// them after a remove, nothing at all when empty.
func TestOutlierBufferFollowsEntries(t *testing.T) {
	l := &leaf{}
	const peak = 5000
	for i := 0; i < peak; i++ {
		l.addOutlier(float64(i), uint64(i))
		if room := cap(l.outliers); room > len(l.outliers)+max(outlierStep, len(l.outliers)/8) {
			t.Fatalf("growth: %d entries in an array of %d", len(l.outliers), room)
		}
	}
	for i := 0; i < peak; i++ {
		if !l.removeOutlier(float64(i), uint64(i)) {
			t.Fatalf("entry %d not found", i)
		}
		if held, room := len(l.outliers), cap(l.outliers); held > 0 && room >= 2*held+2 {
			t.Fatalf("shrinkage: %d entries in an array of %d", held, room)
		}
	}
	if l.outliers != nil {
		t.Fatalf("an empty buffer keeps an array of %d", cap(l.outliers))
	}
	// An as-built buffer (exact capacity) stays exact until it is written.
	l.outliers = make([]outlierEntry, 100)
	l.addOutlier(1, 1)
	if cap(l.outliers) != 112 {
		t.Fatalf("first add to a full buffer of 100: capacity %d", cap(l.outliers))
	}
}

// A leaf's 32-bit count saturates: an insert into a leaf whose count is at
// the limit leaves it there, where a wrap to 0 would stop the leaf's model
// from answering (a lookup skips the model of a leaf that counts no tuple),
// and a delete takes it one below.
func TestLeafCountersSaturate(t *testing.T) {
	tr := mustBuild(t, genLinear(1000, 100, 0, 6), DefaultParams())
	slot, _ := tr.traverse(50)
	l := &tr.leaves[slot]
	l.count = math.MaxUint32
	tr.Insert(50, 200, 1)
	if l.count != math.MaxUint32 {
		t.Fatalf("an insert at the limit left count %d", l.count)
	}
	tr.Delete(50, 200, 1)
	if l.count != math.MaxUint32-1 {
		t.Fatalf("a delete at the limit left count %d", l.count)
	}
}
