package engine

import (
	"cmp"
	"slices"
	"sync"

	"hermit/internal/storage"
)

// This file is the one read of a logical table (tables.go), the database's
// scatter-gather: a query runs as one leg per partition that can hold a
// match — the key's owner alone for a primary-key point predicate, every
// partition otherwise — all at one snapshot, and the legs' rows are k-way
// merged into (predicate column, partition, RID) order, the order one
// index scan over the whole table would give. A plain table is its own one
// leg and answers in the same order. The legs run through Parallel: the
// caller plus at most workers-1 goroutines, so with workers 1 a read runs
// wholly on the caller, one leg after another.

// PartRID identifies a row version of a logical table: the partition that
// holds it and its RID there, good while a snapshot that sees it is held.
type PartRID struct {
	// Part is the partition index (0 for a plain table).
	Part int
	// RID is the row's identifier inside the partition.
	RID storage.RID
}

// GatherStats describes one read of a logical table.
type GatherStats struct {
	// FanOut is the number of partitions the query executed on.
	FanOut int
	// Routed reports whether the query was routed to a single partition by
	// the primary-key hash (no scatter, no merge).
	Routed bool
	// Rows is the number of qualifying tuples after the merge.
	Rows int
	// Candidates sums the per-partition candidate counts.
	Candidates int
}

// Exec answers q on the named table with whole rows: it appends every
// matching row, back to back, to dst, ordered by the predicate column (ties
// broken by partition then RID, so results are deterministic). Every leg
// reads q.Snap — or one snapshot Exec holds for the whole call — so a query
// never observes a concurrent atomic batch partially, even across
// partitions. workers bounds this one read's goroutines: the caller plus at
// most workers-1 (<= 0 selects GOMAXPROCS).
func (db *DB) Exec(table string, q Query, workers int, dst []float64) ([]float64, GatherStats, error) {
	l, err := db.named(table)
	if err != nil {
		return dst, GatherStats{}, err
	}
	sc := gatherPool.Get().(*gatherScratch)
	defer sc.put()
	st, err := l.gather(q, workers, sc)
	if err != nil {
		return dst, st, err
	}
	w := len(l.phys[0].cols)
	dst = slices.Grow(dst, len(sc.merged)*w)
	for _, e := range sc.merged {
		dst = append(dst, sc.legs[e.rid.Part].ans.Rows[e.pos*w:(e.pos+1)*w]...)
	}
	return dst, st, nil
}

// Lookup is Exec keeping the rows' partitioned RIDs instead of the rows,
// in the same order, appended to dst[:0]. With a nil q.Snap the RIDs are
// good only until the next commit to the table.
func (db *DB) Lookup(table string, q Query, workers int, dst []PartRID) ([]PartRID, GatherStats, error) {
	l, err := db.named(table)
	if err != nil {
		return nil, GatherStats{}, err
	}
	sc := gatherPool.Get().(*gatherScratch)
	defer sc.put()
	st, err := l.gather(q, workers, sc)
	if err != nil {
		return nil, st, err
	}
	dst = dst[:0]
	for _, e := range sc.merged {
		dst = append(dst, e.rid)
	}
	return dst, st, nil
}

// entry is one merge candidate: the ordering key, the row's partitioned
// RID, and the row's position in its leg's answer.
type entry struct {
	key float64
	rid PartRID
	pos int
}

// gatherLeg is one partition's part of a gather: the engine table and the
// query it runs, and what it leaves — the pass's answer, its merge entries
// in (key, RID) order, its stats or its error.
type gatherLeg struct {
	tb   *Table
	part int
	q    Query
	ans  answer
	list []entry
	st   QueryStats
	err  error
}

// run answers the leg's query and orders its rows by the predicate column,
// read from the copied rows. Its result is empty so that Parallel's result
// slice costs no allocation.
func (g *gatherLeg) run() struct{} {
	sc := getScratch()
	defer putScratch(sc)
	if g.st, g.err = g.tb.run(g.q, &g.ans, sc); g.err != nil {
		return struct{}{}
	}
	w := len(g.tb.cols)
	for j, rid := range g.ans.RIDs {
		g.list = append(g.list, entry{key: g.ans.Rows[j*w+g.q.Col], rid: PartRID{g.part, rid}, pos: j})
	}
	slices.SortFunc(g.list, cmpEntry)
	return struct{}{}
}

// cmpEntry orders one leg's merge entries by (key, RID); within a leg the
// partition is constant.
func cmpEntry(a, b entry) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	return cmp.Compare(a.rid.RID, b.rid.RID)
}

// gatherScratch holds one gather's buffers — one leg per partition, the
// legs that run, the merge heap and the merged entries — pooled so a
// steady-state read stops allocating O(partitions + rows) per call.
// Lookup's RIDs escape to the caller and are always fresh; nothing handed
// out aliases scratch memory.
type gatherScratch struct {
	legs   []gatherLeg
	run    []*gatherLeg
	heads  []mergeHead
	merged []entry
}

var gatherPool = sync.Pool{New: func() any { return &gatherScratch{} }}

// put empties sc, dropping the buffers that outgrew maxScratchEntries and
// the tables and snapshot the legs named, and returns it to the pool.
func (sc *gatherScratch) put() {
	for i := range sc.legs {
		g := &sc.legs[i]
		*g = gatherLeg{ans: answer{RIDs: trimmed(g.ans.RIDs), Rows: trimmed(g.ans.Rows)}, list: trimmed(g.list)}
	}
	sc.run, sc.merged = sc.run[:0], trimmed(sc.merged)
	gatherPool.Put(sc)
}

// gather runs q's legs at one snapshot, through Parallel on workers, and
// k-way merges their entries into sc.merged.
func (l *logical) gather(q Query, workers int, sc *gatherScratch) (GatherStats, error) {
	if q.Snap == nil {
		q.Snap = l.phys[0].clock.Snapshot()
		defer q.Snap.Recycle()
	}
	n := len(l.phys)
	sc.legs = slices.Grow(sc.legs[:0], n)[:n]
	for i, tb := range l.phys {
		sc.legs[i].tb, sc.legs[i].part, sc.legs[i].q = tb, i, q // put emptied the rest
	}
	st := GatherStats{FanOut: n}
	if q.Col == l.phys[0].pkCol && q.Lo == q.Hi {
		st.FanOut, st.Routed = 1, true
		sc.run = append(sc.run, &sc.legs[PartitionOf(q.Lo, l.parts)])
	} else {
		for i := range sc.legs {
			sc.run = append(sc.run, &sc.legs[i])
		}
	}
	Parallel(sc.run, workers, (*gatherLeg).run)
	for _, g := range sc.run {
		if g.err != nil {
			return st, g.err
		}
		st.Candidates += g.st.Candidates
	}
	sc.merged, sc.heads = mergeSorted(sc.run, sc.heads, sc.merged)
	st.Rows = len(sc.merged)
	return st, nil
}

// less orders merge entries by (key, partition, RID) — a total,
// deterministic order.
func less(a, b entry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.rid.Part != b.rid.Part {
		return a.rid.Part < b.rid.Part
	}
	return a.rid.RID < b.rid.RID
}

// mergeHead is one per-leg cursor in the k-way merge heap.
type mergeHead struct {
	leg, pos int
}

// headAt dereferences a heap cursor.
func headAt(legs []*gatherLeg, h mergeHead) entry { return legs[h.leg].list[h.pos] }

// siftDown restores the min-heap property at index i (top-level rather
// than a closure so the merge loop allocates nothing).
func siftDown(legs []*gatherLeg, heap []mergeHead, i int) {
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < len(heap) && less(headAt(legs, heap[l]), headAt(legs, heap[min])) {
			min = l
		}
		if r < len(heap) && less(headAt(legs, heap[r]), headAt(legs, heap[min])) {
			min = r
		}
		if min == i {
			return
		}
		heap[i], heap[min] = heap[min], heap[i]
		i = min
	}
}

// mergeSorted k-way merges the legs' sorted entry lists with a binary heap
// of list heads, appending the merged entries to out[:0]. The heap buffer
// is caller-supplied and returned for reuse.
func mergeSorted(legs []*gatherLeg, heap []mergeHead, out []entry) ([]entry, []mergeHead) {
	heap, out = heap[:0], out[:0]
	for i, g := range legs {
		if len(g.list) > 0 {
			heap = append(heap, mergeHead{i, 0})
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(legs, heap, i)
	}
	for len(heap) > 0 {
		h := heap[0]
		out = append(out, headAt(legs, h))
		if h.pos+1 < len(legs[h.leg].list) {
			heap[0].pos++
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(legs, heap, 0)
	}
	return out, heap
}
