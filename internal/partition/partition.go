// Package partition implements hash-partitioned tables with parallel
// scatter-gather execution: a PartitionedTable splits rows across N
// per-partition engine instances by a hash of the primary key, so each
// partition carries its own indexes, latches and planner state (Hermit's
// succinct secondary indexes keep many of them affordable per partition —
// the paper's space argument is what makes partition-parallelism cheap).
//
// Execution follows the classic scatter-gather shape:
//
//   - Mutations and primary-key point queries route to exactly one
//     partition (the hash owner), adding only a hash to the unpartitioned
//     cost.
//   - Range queries — and the range/point legs of ExecuteBatch — fan out
//     across a bounded worker pool, one task per partition, and the
//     per-partition results are merged with an ordered k-way merge, so a
//     range scan returns rows ordered by the predicate column exactly as a
//     single-partition index scan would.
//
// The same wrapper fronts the in-memory engine (New) and the durable
// engine (CreateDurable/OpenDurable), where mutations go through the
// WAL-logged DurableDB paths: each record carries its partition id, and
// checkpoint/recovery rebuild every partition (see engine.DurableDB). A
// durable table created without partitions opens as a one-partition
// table, so the serving tier fronts every table with this one type.
// Explain reports the fan-out with one costed engine plan per partition,
// and EnableAdvisor runs the self-tuning advisor over aggregated
// per-partition counters, applying its DDL uniformly to all partitions.
package partition

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"hermit/internal/correlation"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// DefaultPartitions is the partition count used when Options leaves it zero.
const DefaultPartitions = 4

// Options configures a partitioned table.
type Options struct {
	// Partitions is the hash-partition count (DefaultPartitions when zero).
	// OpenDurable ignores it: the count is fixed at creation and recovered
	// from the manifest.
	Partitions int
	// Workers bounds how many per-partition scan tasks run concurrently
	// across all scatter-gather queries on the table (GOMAXPROCS when
	// zero). Routed operations bypass the pool entirely, and so does every
	// query on a one-partition table: its one scan runs on the calling
	// goroutine.
	Workers int
}

func (o Options) sanitized() Options {
	if o.Partitions <= 0 {
		o.Partitions = DefaultPartitions
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// RID identifies a row in a partitioned table: the owning partition plus
// the row's record identifier within that partition's store.
type RID struct {
	// Part is the partition index.
	Part int
	// RID is the row's identifier inside the partition.
	RID storage.RID
}

// Stats describes one partitioned query's execution.
type Stats struct {
	// FanOut is the number of partitions the query executed on.
	FanOut int
	// Routed reports whether the query was routed to a single partition by
	// the primary-key hash (no scatter, no merge).
	Routed bool
	// Rows is the number of qualifying tuples after the merge.
	Rows int
	// Candidates sums the per-partition candidate counts.
	Candidates int
	// PerPartition holds each executed partition's engine stats, indexed
	// by partition (only the owner's entry is set for routed queries).
	PerPartition []engine.QueryStats
}

// Table is a hash-partitioned table: N per-partition engine tables behind
// one logical name, with scatter-gather query execution. It is safe for
// concurrent use — partitions inherit the engine's fine-grained latching,
// and cross-partition state (the scatter pool) is its own synchronisation.
type Table struct {
	name  string
	cols  []string
	pkCol int
	clock *engine.Clock // shared by every partition: one commit order
	parts []*engine.Table
	sem   chan struct{}
	mut   mutator
}

// mutator is the write/DDL backend: direct engine calls for in-memory
// tables, the WAL-logged DurableDB paths for durable ones.
type mutator interface {
	insert(part int, row []float64) (storage.RID, error)
	remove(part int, pk float64) (bool, error)
	update(part int, pk float64, col int, v float64) error
	createBTree(col int, markNew bool) error
	createHermit(col, host int, params trstree.Params) error
	dropIndex(col int, kind engine.IndexKind) error
	// begin starts an atomic cross-partition transaction (ExecuteBatch's
	// substrate): mutations buffer, route by primary key, and commit with
	// one clock advance, so no snapshot ever observes a partial batch.
	begin() engine.BatchTxn
}

// New creates an in-memory partitioned table: one private engine.DB per
// partition (so partitions share nothing but the commit clock — the
// shared clock is what makes cross-partition snapshots and atomic batches
// consistent), each holding one table of the given schema. Names
// containing '#' are rejected — the character is reserved for partition
// naming.
func New(scheme hermit.PointerScheme, name string, cols []string, pkCol int, opts Options) (*Table, error) {
	if strings.Contains(name, "#") {
		return nil, fmt.Errorf("partition: table name %q: '#' is reserved for partitions", name)
	}
	opts = opts.sanitized()
	clock := engine.NewClock()
	parts := make([]*engine.Table, opts.Partitions)
	for i := range parts {
		tb, err := engine.NewDBWithClock(scheme, clock).CreateTable(name, cols, pkCol)
		if err != nil {
			return nil, err
		}
		parts[i] = tb
	}
	t := &Table{
		name:  name,
		cols:  append([]string(nil), cols...),
		pkCol: pkCol,
		clock: clock,
		parts: parts,
		sem:   make(chan struct{}, opts.Workers),
	}
	t.mut = memMutator{t}
	return t, nil
}

// Snapshot registers a consistent read view across every partition: all
// fan-out legs of a query (or any sequence of queries) run against it
// observe one commit-clock instant, so a concurrently committing batch is
// seen entirely or not at all.
func (t *Table) Snapshot() *engine.Snapshot { return t.clock.Snapshot() }

// GC reclaims, in every partition, the backlog of ended row versions that a
// snapshot since released had pinned (see engine.DB.GC). Nothing depends on
// calling it: every commit reclaims what it ends and works a backlog off.
func (t *Table) GC() int {
	horizon := t.clock.OldestActive()
	n := 0
	for _, p := range t.parts {
		n += p.GCVersions(horizon)
	}
	return n
}

// Name returns the logical table name.
func (t *Table) Name() string { return t.name }

// Columns returns the column names.
func (t *Table) Columns() []string { return append([]string(nil), t.cols...) }

// PKCol returns the primary-key column index.
func (t *Table) PKCol() int { return t.pkCol }

// Partitions returns the partition count.
func (t *Table) Partitions() int { return len(t.parts) }

// Part returns partition i's engine table — the escape hatch tests and
// benchmarks use to inspect a single partition. Mutating through it
// bypasses routing (and, on durable tables, the WAL); use the Table
// methods instead.
func (t *Table) Part(i int) *engine.Table { return t.parts[i] }

// Len returns the number of live rows across all partitions.
func (t *Table) Len() int {
	n := 0
	for _, p := range t.parts {
		n += p.Len()
	}
	return n
}

// Memory returns the summed memory breakdown of all partitions.
func (t *Table) Memory() engine.MemoryStats {
	var m engine.MemoryStats
	for _, p := range t.parts {
		pm := p.Memory()
		m.TableBytes += pm.TableBytes
		m.PrimaryBytes += pm.PrimaryBytes
		m.ExistingBytes += pm.ExistingBytes
		m.NewBytes += pm.NewBytes
		m.VersionBytes += pm.VersionBytes
	}
	return m
}

// SetProfile toggles per-phase timing on every partition.
func (t *Table) SetProfile(on bool) {
	for _, p := range t.parts {
		p.SetProfile(on)
	}
}

// owner returns the partition owning primary key pk.
func (t *Table) owner(pk float64) int { return engine.PartitionOf(pk, len(t.parts)) }

// Insert routes the row to its primary key's hash partition.
func (t *Table) Insert(row []float64) (RID, error) {
	if len(row) != len(t.cols) {
		return RID{}, storage.ErrBadRow
	}
	p := t.owner(row[t.pkCol])
	rid, err := t.mut.insert(p, row)
	if err != nil {
		return RID{}, err
	}
	return RID{Part: p, RID: rid}, nil
}

// Delete removes the row with the given primary key from its partition,
// reporting whether the key existed.
func (t *Table) Delete(pk float64) (bool, error) {
	return t.mut.remove(t.owner(pk), pk)
}

// UpdateColumn changes one column of the row with the given primary key in
// its partition. The primary-key column itself cannot be changed (it would
// have to migrate partitions); delete and re-insert instead.
func (t *Table) UpdateColumn(pk float64, col int, v float64) error {
	return t.mut.update(t.owner(pk), pk, col, v)
}

// Exec answers q with whole rows, like engine.Table.Exec: it appends every
// matching row, back to back, to dst, ordered by the predicate column (ties
// broken by partition then RID, so results are deterministic). A
// primary-key point predicate (Col == PKCol, Lo == Hi) routes to the key's
// hash owner; everything else scatters across the worker pool and gathers
// with an ordered merge. Every leg reads q.Snap — or one snapshot Exec
// holds for the whole call — so a query never observes a concurrent atomic
// batch partially, even across partitions, and the rows are copied under
// the snapshot the legs found them at.
func (t *Table) Exec(q engine.Query, dst []float64) ([]float64, Stats, error) {
	if q.Snap == nil {
		q.Snap = t.Snapshot()
		defer q.Snap.Recycle()
	}
	rids, st, err := t.lookup(q)
	if err != nil {
		return dst, st, err
	}
	w := len(t.cols)
	dst = slices.Grow(dst, len(rids)*w)
	for _, r := range rids {
		n := len(dst)
		if _, err := t.parts[r.Part].Store().Get(r.RID, dst[n:n+w]); err != nil {
			return dst[:n], st, err
		}
		dst = dst[:n+w]
	}
	return dst, st, nil
}

// lookup is Exec's RID stage at q.Snap, which must be set: the routed leg
// or the gather.
func (t *Table) lookup(q engine.Query) ([]RID, Stats, error) {
	if q.Col == t.pkCol && q.Lo == q.Hi {
		return t.routed(q)
	}
	return t.gather(q)
}

// RangeQuery returns the RIDs of the rows with lo <= col <= hi, read at a
// snapshot released before it returns. It exists only for benchmark/,
// which calls it, and goes with benchmark v2.
func (t *Table) RangeQuery(col int, lo, hi float64) ([]RID, Stats, error) {
	snap := t.Snapshot()
	defer snap.Release()
	return t.lookup(engine.Query{Col: col, Lo: lo, Hi: hi, Snap: snap})
}

// PointQuery is RangeQuery with lo == hi == v. It exists only for
// benchmark/, which calls it, and goes with benchmark v2.
func (t *Table) PointQuery(col int, v float64) ([]RID, Stats, error) {
	snap := t.Snapshot()
	defer snap.Release()
	return t.lookup(engine.Query{Col: col, Lo: v, Hi: v, Snap: snap})
}

// routed executes a primary-key point predicate on its single owner.
func (t *Table) routed(q engine.Query) ([]RID, Stats, error) {
	p := t.owner(q.Lo)
	st := Stats{FanOut: 1, Routed: true, PerPartition: make([]engine.QueryStats, len(t.parts))}
	rids, qs, err := t.parts[p].Lookup(q, nil)
	if err != nil {
		return nil, st, err
	}
	st.PerPartition[p] = qs
	st.Rows, st.Candidates = qs.Rows, qs.Candidates
	out := make([]RID, len(rids))
	for i, rid := range rids {
		out[i] = RID{Part: p, RID: rid}
	}
	return out, st, nil
}

// entry is one merge candidate: the ordering key plus the global RID.
type entry struct {
	key float64
	rid RID
}

// gatherScratch holds one scatter-gather execution's fan-out buffers —
// per-partition result and merge-entry slices, the error slate, and the
// merge heap — pooled so a steady-state range query stops allocating
// O(partitions + candidate rows) per call. The returned RID list and
// Stats.PerPartition escape to the caller and are always fresh; nothing
// handed out aliases scratch memory. Per-partition slots are written by
// the fan-out goroutines at disjoint indexes and the WaitGroup barrier
// orders those writes before reuse.
type gatherScratch struct {
	lists [][]entry
	rids  [][]storage.RID
	errs  []error
	heads []mergeHead
}

// maxGatherEntries caps the per-slot buffer capacity retained in the
// pool, so one huge scan does not pin its footprint forever.
const maxGatherEntries = 1 << 16

var gatherPool = sync.Pool{New: func() any { return &gatherScratch{} }}

// slots sizes the per-partition slots for a fan-out of n, preserving the
// pooled backing buffers inside each slot.
func (sc *gatherScratch) slots(n int) {
	for cap(sc.lists) < n {
		sc.lists = append(sc.lists[:cap(sc.lists)], nil)
	}
	for cap(sc.rids) < n {
		sc.rids = append(sc.rids[:cap(sc.rids)], nil)
	}
	for cap(sc.errs) < n {
		sc.errs = append(sc.errs[:cap(sc.errs)], nil)
	}
	sc.lists, sc.rids, sc.errs = sc.lists[:n], sc.rids[:n], sc.errs[:n]
	for i := 0; i < n; i++ {
		sc.errs[i] = nil
	}
}

func putGatherScratch(sc *gatherScratch) {
	for i := range sc.lists {
		if cap(sc.lists[i]) > maxGatherEntries {
			sc.lists[i] = nil
		}
	}
	for i := range sc.rids {
		if cap(sc.rids[i]) > maxGatherEntries {
			sc.rids[i] = nil
		}
	}
	gatherPool.Put(sc)
}

// gather runs q's Lookup on every partition on the bounded pool, orders
// each partition's hits by the predicate column, and k-way merges. A
// one-partition table's single leg runs on the caller, outside the pool:
// served over the wire, a goroutine and a pool slot per read cost such a
// table about a fifth of its pipelined read throughput.
func (t *Table) gather(q engine.Query) ([]RID, Stats, error) {
	n := len(t.parts)
	sc := gatherPool.Get().(*gatherScratch)
	defer putGatherScratch(sc)
	sc.slots(n)
	stats := make([]engine.QueryStats, n) // escapes via Stats.PerPartition
	if n == 1 {
		t.leg(0, q, sc, stats)
	} else {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t.sem <- struct{}{} // bounded pool: at most Workers tasks in flight
				defer func() { <-t.sem }()
				t.leg(i, q, sc, stats)
			}(i)
		}
		wg.Wait()
	}
	st := Stats{FanOut: n, PerPartition: stats}
	for _, err := range sc.errs {
		if err != nil {
			return nil, st, err
		}
	}
	for _, qs := range stats {
		st.Candidates += qs.Candidates
	}
	var out []RID
	out, sc.heads = mergeSorted(sc.lists, sc.heads)
	st.Rows = len(out)
	return out, st, nil
}

// leg runs partition i's part of a gather into the scratch slots at i.
func (t *Table) leg(i int, q engine.Query, sc *gatherScratch, stats []engine.QueryStats) {
	rids, qs, err := t.parts[i].Lookup(q, sc.rids[i])
	sc.rids[i] = rids[:0] // keep the (possibly regrown) buffer pooled
	if err != nil {
		sc.errs[i] = err
		return
	}
	stats[i] = qs
	sc.lists[i] = t.keyedInto(i, q.Col, rids, sc.lists[i])
}

// keyedInto pairs each hit with its ordering key and sorts the
// partition's list (index paths already return key order; scan paths
// return RID order), appending into buf[:0]. Version rows are immutable,
// so the keys are exactly the values the snapshot query matched; a row
// reclaimed by a racing commit (only possible once no snapshot needs it)
// is dropped.
func (t *Table) keyedInto(part, col int, rids []storage.RID, buf []entry) []entry {
	store := t.parts[part].Store()
	out := buf[:0]
	for _, rid := range rids {
		v, err := store.Value(rid, col)
		if err != nil {
			continue
		}
		out = append(out, entry{key: v, rid: RID{Part: part, RID: rid}})
	}
	slices.SortFunc(out, cmpEntry)
	return out
}

// cmpEntry orders one partition's merge entries by (key, RID); within a
// partition the partition component is constant.
func cmpEntry(a, b entry) int {
	switch {
	case a.key != b.key:
		return cmp.Compare(a.key, b.key)
	default:
		return cmp.Compare(a.rid.RID, b.rid.RID)
	}
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

// mergeHead is one per-list cursor in the k-way merge heap.
type mergeHead struct {
	list, pos int
}

// headAt dereferences a heap cursor.
func headAt(lists [][]entry, h mergeHead) entry { return lists[h.list][h.pos] }

// siftDown restores the min-heap property at index i (top-level rather
// than a closure so the merge loop allocates nothing).
func siftDown(lists [][]entry, heap []mergeHead, i int) {
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < len(heap) && less(headAt(lists, heap[l]), headAt(lists, heap[min])) {
			min = l
		}
		if r < len(heap) && less(headAt(lists, heap[r]), headAt(lists, heap[min])) {
			min = r
		}
		if min == i {
			return
		}
		heap[i], heap[min] = heap[min], heap[i]
		i = min
	}
}

// mergeSorted k-way merges per-partition sorted lists with a binary heap
// of list heads. The heap buffer is caller-supplied and returned for
// reuse; the merged RID list is freshly allocated (it escapes to the
// query's caller).
func mergeSorted(lists [][]entry, heap []mergeHead) ([]RID, []mergeHead) {
	heap = heap[:0]
	total := 0
	for i, l := range lists {
		total += len(l)
		if len(l) > 0 {
			heap = append(heap, mergeHead{i, 0})
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(lists, heap, i)
	}
	out := make([]RID, 0, total)
	for len(heap) > 0 {
		h := heap[0]
		out = append(out, headAt(lists, h).rid)
		if h.pos+1 < len(lists[h.list]) {
			heap[0].pos++
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(lists, heap, 0)
	}
	return out, heap
}

// FetchRow reads the row behind a partitioned RID. It exists only for
// benchmark/, which calls it after RangeQuery, and goes with benchmark v2.
func (t *Table) FetchRow(rid RID) ([]float64, error) {
	if rid.Part < 0 || rid.Part >= len(t.parts) {
		return nil, fmt.Errorf("partition: RID partition %d out of range", rid.Part)
	}
	return t.parts[rid.Part].Store().Get(rid.RID, nil)
}

// CreateBTreeIndex builds a complete B+-tree index on col in every
// partition. markNew tags the indexes for the insert-cost breakdown.
func (t *Table) CreateBTreeIndex(col int, markNew bool) error {
	return t.mut.createBTree(col, markNew)
}

// CreateHermitIndex builds a Hermit index on col hosted by host in every
// partition. The zero Params value selects the paper defaults.
func (t *Table) CreateHermitIndex(col, host int, params trstree.Params) error {
	if params == (trstree.Params{}) {
		params = trstree.DefaultParams()
	}
	return t.mut.createHermit(col, host, params)
}

// DropIndex removes the index of the given kind on col from every
// partition.
func (t *Table) DropIndex(col int, kind engine.IndexKind) error {
	return t.mut.dropIndex(col, kind)
}

// CreateIndexAuto runs the paper's index-creation flow on the partitioned
// table: correlation discovery against partition 0 (hash partitioning
// makes any partition a uniform sample of the table), then the chosen
// mechanism — Hermit on the best host, else a complete B+-tree — is built
// uniformly across every partition. It returns the kind built.
func (t *Table) CreateIndexAuto(col int, disc correlation.Config) (engine.IndexKind, error) {
	p0 := t.parts[0]
	hosts := make([]int, 0, len(t.cols))
	for c := range t.cols {
		if p0.Secondary(c) != nil {
			hosts = append(hosts, c)
		}
	}
	if p0.Scheme() == hermit.PhysicalPointers {
		hosts = append(hosts, t.pkCol)
	}
	sort.Ints(hosts)
	m, ok, err := correlation.BestHost(p0.Store(), col, hosts, disc)
	if err != nil {
		return engine.KindNone, err
	}
	if ok {
		if err := t.CreateHermitIndex(col, m.Host, trstree.DefaultParams()); err != nil {
			return engine.KindNone, err
		}
		return engine.KindHermit, nil
	}
	if err := t.CreateBTreeIndex(col, true); err != nil {
		return engine.KindNone, err
	}
	return engine.KindBTree, nil
}

// memMutator applies writes and DDL directly to the in-memory partitions.
type memMutator struct{ t *Table }

func (m memMutator) insert(part int, row []float64) (storage.RID, error) {
	return m.t.parts[part].Insert(row)
}

func (m memMutator) remove(part int, pk float64) (bool, error) {
	return m.t.parts[part].Delete(pk)
}

func (m memMutator) update(part int, pk float64, col int, v float64) error {
	return m.t.parts[part].UpdateColumn(pk, col, v)
}

func (m memMutator) createBTree(col int, markNew bool) error {
	return m.ddl(col, engine.KindBTree, func(p *engine.Table) error {
		_, err := p.CreateBTreeIndex(col, markNew)
		return err
	})
}

func (m memMutator) createHermit(col, host int, params trstree.Params) error {
	return m.ddl(col, engine.KindHermit, func(p *engine.Table) error {
		_, err := p.CreateHermitIndex(col, host, engine.WithParams(params))
		return err
	})
}

// ddl applies one index build to every partition, unwinding the partitions
// already built on partial failure so index state stays uniform.
func (m memMutator) ddl(col int, kind engine.IndexKind, build func(p *engine.Table) error) error {
	for i, p := range m.t.parts {
		if err := build(p); err != nil {
			for j := 0; j < i; j++ {
				m.t.parts[j].DropIndex(col, kind)
			}
			return err
		}
	}
	return nil
}

func (m memMutator) dropIndex(col int, kind engine.IndexKind) error {
	for _, p := range m.t.parts {
		if err := p.DropIndex(col, kind); err != nil {
			// Uniform DDL means a refused drop fails on partition 0, before
			// any partition changed.
			return err
		}
	}
	return nil
}

func (m memMutator) begin() engine.BatchTxn {
	return &memTxn{t: m.t, x: engine.BeginTxn(m.t.clock)}
}

// memTxn is an atomic cross-partition transaction over the in-memory
// partitions: one engine.Txn spanning the per-partition tables, which all
// share the table's commit clock.
type memTxn struct {
	t *Table
	x *engine.Txn
}

func (x *memTxn) Snapshot() *engine.Snapshot { return x.x.Snapshot() }

// Mutate buffers op on the partition that owns its key.
func (x *memTxn) Mutate(op engine.Op) (bool, error) {
	pk := op.PK
	if op.Kind == engine.OpInsert {
		if len(op.Row) != len(x.t.cols) {
			return false, storage.ErrBadRow
		}
		pk = op.Row[x.t.pkCol]
	}
	return x.x.Mutate(x.t.parts[x.t.owner(pk)], op)
}

func (x *memTxn) Commit() error {
	_, err := x.x.Commit()
	return err
}

func (x *memTxn) Rollback() { x.x.Rollback() }
