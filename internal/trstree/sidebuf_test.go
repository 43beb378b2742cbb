package trstree

import (
	"math"
	"slices"
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
	checkStats(t, tr, len(src.pairs)+2) // the parked inserts are in no scan
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

// A subtree's 32-bit count saturates: an insert into a subtree whose count
// is at the limit leaves it there, where a wrap to 0 would tell a reader of
// the counts that the subtree holds no tuple, and a delete takes it one
// below.
func TestLeafCountersSaturate(t *testing.T) {
	tr := mustBuild(t, genLinear(1000, 100, 0, 6), DefaultParams())
	_, _, top := tr.traverse(50)
	c := &tr.gauge[top]
	*c = math.MaxUint32
	tr.Insert(50, 200, 1)
	if *c != math.MaxUint32 {
		t.Fatalf("an insert at the limit left count %d", *c)
	}
	tr.Delete(50, 200, 1)
	if *c != math.MaxUint32-1 {
		t.Fatalf("a delete at the limit left count %d", *c)
	}
}

// deletingSource is a DataSource whose scan first deletes every pair but
// the first through the tree being rebuilt — the deletes park in the side
// buffer — and then reports the survivor alone.
type deletingSource struct {
	tr    *Tree
	pairs []Pair
}

func (s *deletingSource) ScanMRange(lo, hi float64, fn func(m, n float64, id uint64) bool) error {
	for _, p := range s.pairs[1:] {
		s.tr.Delete(p.M, p.N, p.ID)
	}
	p := s.pairs[0]
	fn(p.M, p.N, p.ID)
	return nil
}

// TestReorgReplayedDeletesKeepModel: the rebuilt leaf is fitted on the
// survivor, and replaying the 99 parked deletes over it drives its live
// count to 0. The survivor is model-covered, so only the leaf's model can
// answer for it: a lookup that consulted the model only while the count was
// above 0 returned neither a range nor an id for it.
func TestReorgReplayedDeletesKeepModel(t *testing.T) {
	pairs := make([]Pair, 100)
	for i := range pairs {
		pairs[i] = Pair{M: float64(i), N: 3 * float64(i), ID: uint64(i)}
	}
	tr := mustBuild(t, pairs, DefaultParams())
	if tr.LeafCount() != 1 {
		t.Fatalf("%d leaves, want one root leaf", tr.LeafCount())
	}
	if err := tr.ReorgSubtree(0, &deletingSource{tr: tr, pairs: pairs}); err != nil {
		t.Fatal(err)
	}
	checkStats(t, tr, -1)
	res := tr.Lookup(0, 0)
	if !slices.Contains(res.IDs, 0) && !slices.ContainsFunc(res.Ranges, func(r Range) bool { return r.Lo <= 0 && 0 <= r.Hi }) {
		t.Fatalf("Lookup(0, 0) = %+v: no range or id for the live pair (0, 0)", res)
	}
}
