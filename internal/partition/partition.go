// Package partition implements parallel scatter-gather execution over
// hash-partitioned tables: a table of an engine database split across N
// per-partition engine tables by a hash of the primary key, so each
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
// The partitions, the routing of writes and the index DDL are the
// database's: a Table fronts a table of an engine.DB or an
// engine.DurableDB through the methods the two share (Database), so its
// writes and DDL go straight into the engine or through the WAL first, and
// what it adds is the read side. A table created without partitions opens
// as a one-partition table, so the serving tier fronts every table with
// this one type. Explain reports the fan-out with one costed engine plan
// per partition; the database's advisor sees a partitioned table as one
// table and applies its DDL to every partition.
package partition

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"hermit/internal/advisor"
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
	// OpenDurable ignores it: the count is fixed when the table is created.
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

// Database is the table surface *engine.DB and *engine.DurableDB share, so
// a Table — or any caller, such as the scenario harness — can hold either.
// The database owns the partitions, routes writes by primary key and
// applies index DDL to every partition; the DurableDB logs both first.
type Database interface {
	CreateTable(name string, cols []string, pkCol int) (*engine.Table, error)
	CreatePartitionedTable(name string, cols []string, pkCol, parts int) error
	Partitions(name string) (int, error)
	Table(name string) (*engine.Table, error)
	Clock() *engine.Clock
	Insert(table string, row []float64) (storage.RID, error)
	Delete(table string, pk float64) (bool, error)
	UpdateColumn(table string, pk float64, col int, v float64) error
	CreateIndex(table string, def engine.IndexDef) error
	DropIndex(table string, col int, kind string) error
	BeginBatch() engine.BatchTxn
	EnableAdvisor(opts engine.AdvisorOptions) *advisor.Advisor
}

// Table is a hash-partitioned table: N per-partition engine tables behind
// one logical name, with scatter-gather query execution. It is safe for
// concurrent use — partitions inherit the engine's fine-grained latching,
// and cross-partition state (the scatter pool) is its own synchronisation.
type Table struct {
	db    Database
	name  string
	cols  []string
	pkCol int
	clock *engine.Clock // the database's: one commit order for every partition
	parts []*engine.Table
	sem   chan struct{}
}

// New creates an in-memory partitioned table: a DB of its own holding it
// (see CreateDurable).
func New(scheme hermit.PointerScheme, name string, cols []string, pkCol int, opts Options) (*Table, error) {
	return CreateDurable(engine.NewDB(scheme), name, cols, pkCol, opts)
}

// CreateDurable creates a partitioned table in db — a DurableDB, which
// WAL-logs it, or an in-memory DB — and returns its scatter-gather
// wrapper. The partition count is fixed for the life of the table.
func CreateDurable(db Database, name string, cols []string, pkCol int, opts Options) (*Table, error) {
	opts = opts.sanitized()
	if err := db.CreatePartitionedTable(name, cols, pkCol, opts.Partitions); err != nil {
		return nil, err
	}
	return OpenDurable(db, name, opts)
}

// OpenDurable wraps an existing table of db — created by CreateDurable or
// CreateTable, or recovered by engine.OpenDurable — in its scatter-gather
// wrapper. A table created without partitions is wrapped as its only
// partition: its queries gather on the caller, with no fan-out and no pool
// slot, and still return rows ordered by the predicate column.
// Options.Partitions is ignored — the table's own count wins;
// Options.Workers sizes the scatter pool of a partitioned table. A wrapper
// holds the engine tables of its partitions, which DDL changes in place,
// so it stays good for the life of the database.
func OpenDurable(db Database, name string, opts Options) (*Table, error) {
	n, err := db.Partitions(name)
	if err != nil {
		return nil, err
	}
	parts := make([]*engine.Table, max(n, 1))
	for i := range parts {
		phys := name
		if n > 0 {
			phys = engine.PartitionName(name, i)
		}
		if parts[i], err = db.Table(phys); err != nil {
			return nil, err
		}
	}
	return &Table{
		db:    db,
		name:  name,
		cols:  parts[0].Columns(),
		pkCol: parts[0].PKCol(),
		clock: db.Clock(),
		parts: parts,
		sem:   make(chan struct{}, opts.sanitized().Workers),
	}, nil
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

// Insert adds the row to its primary key's hash partition.
func (t *Table) Insert(row []float64) (RID, error) {
	if len(row) != len(t.cols) {
		return RID{}, storage.ErrBadRow
	}
	rid, err := t.db.Insert(t.name, row)
	if err != nil {
		return RID{}, err
	}
	return RID{Part: t.owner(row[t.pkCol]), RID: rid}, nil
}

// Delete removes the row with the given primary key from its partition,
// reporting whether the key existed.
func (t *Table) Delete(pk float64) (bool, error) { return t.db.Delete(t.name, pk) }

// UpdateColumn changes one column of the row with the given primary key in
// its partition. The primary-key column itself cannot be changed (it would
// have to migrate partitions); delete and re-insert instead.
func (t *Table) UpdateColumn(pk float64, col int, v float64) error {
	return t.db.UpdateColumn(t.name, pk, col, v)
}

// Exec answers q with whole rows, like engine.Table.Exec: it appends every
// matching row, back to back, to dst, ordered by the predicate column (ties
// broken by partition then RID, so results are deterministic). A
// primary-key point predicate (Col == PKCol, Lo == Hi) routes to the key's
// hash owner; everything else scatters across the worker pool and gathers
// with an ordered merge. Every leg reads q.Snap — or one snapshot Exec
// holds for the whole call — so a query never observes a concurrent atomic
// batch partially, even across partitions; each leg's rows are the copies
// its engine pass made, and the merge copies them on into dst.
func (t *Table) Exec(q engine.Query, dst []float64) ([]float64, Stats, error) {
	sc := gatherPool.Get().(*gatherScratch)
	defer putGatherScratch(sc)
	st, err := t.gather(q, sc)
	if err != nil {
		return dst, st, err
	}
	w := len(t.cols)
	dst = slices.Grow(dst, len(sc.merged)*w)
	for _, e := range sc.merged {
		dst = append(dst, sc.legs[e.rid.Part].Rows[e.pos*w:(e.pos+1)*w]...)
	}
	return dst, st, nil
}

// RangeQuery returns the RIDs of the rows with lo <= col <= hi, read at a
// snapshot released before it returns. It exists only for benchmark/,
// which calls it, and goes with benchmark v2.
func (t *Table) RangeQuery(col int, lo, hi float64) ([]RID, Stats, error) {
	return t.ridsOf(engine.Query{Col: col, Lo: lo, Hi: hi})
}

// PointQuery is RangeQuery with lo == hi == v. It exists only for
// benchmark/, which calls it, and goes with benchmark v2.
func (t *Table) PointQuery(col int, v float64) ([]RID, Stats, error) {
	return t.ridsOf(engine.Query{Col: col, Lo: v, Hi: v})
}

// ridsOf is the gather keeping the merged RIDs, for RangeQuery and
// PointQuery.
func (t *Table) ridsOf(q engine.Query) ([]RID, Stats, error) {
	sc := gatherPool.Get().(*gatherScratch)
	defer putGatherScratch(sc)
	st, err := t.gather(q, sc)
	if err != nil {
		return nil, st, err
	}
	out := make([]RID, len(sc.merged))
	for i, e := range sc.merged {
		out[i] = e.rid
	}
	return out, st, nil
}

// entry is one merge candidate: the ordering key, the global RID, and the
// row's position in its leg's answer.
type entry struct {
	key float64
	rid RID
	pos int
}

// gatherScratch holds one gather's buffers — per-partition answers and
// merge-entry slices, the error slate, the merge heap and the merged
// entries — pooled so a steady-state query stops allocating
// O(partitions + rows) per call. Stats.PerPartition, and the RID list of
// ridsOf, escape to the caller and are always fresh; nothing handed out
// aliases scratch memory. Per-partition slots are written by the fan-out
// goroutines at disjoint indexes and the WaitGroup barrier orders those
// writes before reuse.
type gatherScratch struct {
	legs   []engine.Answer
	lists  [][]entry
	errs   []error
	heads  []mergeHead
	merged []entry
}

// maxGatherEntries caps the per-slot buffer capacity retained in the
// pool, in entries and in row values, so one huge scan does not pin its
// footprint forever.
const maxGatherEntries = 1 << 16

var gatherPool = sync.Pool{New: func() any { return &gatherScratch{} }}

// slots sizes and empties the per-partition slots for a fan-out of n,
// preserving the pooled backing buffers inside each slot.
func (sc *gatherScratch) slots(n int) {
	sc.legs, sc.lists, sc.errs = grown(sc.legs, n), grown(sc.lists, n), grown(sc.errs, n)
	for i := range n {
		sc.legs[i].RIDs, sc.legs[i].Rows = sc.legs[i].RIDs[:0], sc.legs[i].Rows[:0]
		sc.lists[i], sc.errs[i] = sc.lists[i][:0], nil
	}
}

// grown returns s resliced to length n, keeping the slots beyond its length
// that an earlier, wider fan-out left.
func grown[T any](s []T, n int) []T {
	for cap(s) < n {
		s = append(s[:cap(s)], *new(T))
	}
	return s[:n]
}

func putGatherScratch(sc *gatherScratch) {
	legs, lists := sc.legs[:cap(sc.legs)], sc.lists[:cap(sc.lists)]
	for i := range legs {
		legs[i].RIDs, legs[i].Rows = capped(legs[i].RIDs), capped(legs[i].Rows)
	}
	for i := range lists {
		lists[i] = capped(lists[i])
	}
	sc.merged = capped(sc.merged)
	gatherPool.Put(sc)
}

// capped drops a pooled buffer that outgrew maxGatherEntries.
func capped[T any](s []T) []T {
	if cap(s) > maxGatherEntries {
		return nil
	}
	return s
}

// gather runs q's legs at one snapshot — the key's owner alone for a
// primary-key point predicate, every partition on the bounded pool
// otherwise — orders each leg's rows by the predicate column, and k-way
// merges them into sc.merged. A one-partition table's single leg runs on
// the caller, outside the pool: served over the wire, a goroutine and a
// pool slot per read cost such a table about a fifth of its pipelined read
// throughput.
func (t *Table) gather(q engine.Query, sc *gatherScratch) (Stats, error) {
	if q.Snap == nil {
		q.Snap = t.Snapshot()
		defer q.Snap.Recycle()
	}
	n := len(t.parts)
	sc.slots(n)
	stats := make([]engine.QueryStats, n) // escapes via Stats.PerPartition
	st := Stats{FanOut: n, PerPartition: stats}
	switch {
	case q.Col == t.pkCol && q.Lo == q.Hi:
		st.FanOut, st.Routed = 1, true
		t.leg(t.owner(q.Lo), q, sc, stats)
	case n == 1:
		t.leg(0, q, sc, stats)
	default:
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			// q goes by value: gather assigns q.Snap, and a closure would
			// capture an assigned variable by reference, moving it to the heap.
			go func(i int, q engine.Query) {
				defer wg.Done()
				t.sem <- struct{}{} // bounded pool: at most Workers tasks in flight
				defer func() { <-t.sem }()
				t.leg(i, q, sc, stats)
			}(i, q)
		}
		wg.Wait()
	}
	for _, err := range sc.errs {
		if err != nil {
			return st, err
		}
	}
	for _, qs := range stats {
		st.Candidates += qs.Candidates
	}
	sc.merged, sc.heads = mergeSorted(sc.lists, sc.heads, sc.merged[:0])
	st.Rows = len(sc.merged)
	return st, nil
}

// leg runs partition i's part of a gather into the scratch slots at i: the
// engine's pass leaves the matching RIDs and rows in the slot's answer, and
// the leg orders them by the predicate column, read from the copied rows.
func (t *Table) leg(i int, q engine.Query, sc *gatherScratch, stats []engine.QueryStats) {
	ans := &sc.legs[i]
	qs, err := t.parts[i].Run(q, ans)
	if err != nil {
		sc.errs[i] = err
		return
	}
	stats[i] = qs
	w, list := len(t.cols), sc.lists[i]
	for j, rid := range ans.RIDs {
		list = append(list, entry{key: ans.Rows[j*w+q.Col], rid: RID{Part: i, RID: rid}, pos: j})
	}
	slices.SortFunc(list, cmpEntry)
	sc.lists[i] = list
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
// of list heads, appending the merged entries to out. The heap buffer is
// caller-supplied and returned for reuse.
func mergeSorted(lists [][]entry, heap []mergeHead, out []entry) ([]entry, []mergeHead) {
	heap = heap[:0]
	for i, l := range lists {
		if len(l) > 0 {
			heap = append(heap, mergeHead{i, 0})
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(lists, heap, i)
	}
	for len(heap) > 0 {
		h := heap[0]
		out = append(out, headAt(lists, h))
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
// partition (engine.DB.CreateIndex). markNew tags the indexes for the
// insert-cost breakdown.
func (t *Table) CreateBTreeIndex(col int, markNew bool) error {
	return t.db.CreateIndex(t.name, engine.IndexDef{Kind: "btree", Col: col, MarkNew: markNew})
}

// CreateHermitIndex builds a Hermit index on col hosted by host in every
// partition. The zero Params value selects the paper defaults.
func (t *Table) CreateHermitIndex(col, host int, params trstree.Params) error {
	return t.db.CreateIndex(t.name, engine.IndexDef{Kind: "hermit", Col: col, Host: host, Params: params})
}

// DropIndex removes the index of the given kind on col from every
// partition.
func (t *Table) DropIndex(col int, kind engine.IndexKind) error {
	return t.db.DropIndex(t.name, col, kind.String())
}

// CreateIndexAuto runs the paper's index-creation flow on the partitioned
// table: correlation discovery against partition 0 (hash partitioning
// makes any partition a uniform sample of the table), then the chosen
// mechanism — Hermit on the best host, else a complete B+-tree — is built
// uniformly across every partition. It returns the kind built.
func (t *Table) CreateIndexAuto(col int, disc correlation.Config) (engine.IndexKind, error) {
	p0 := t.parts[0]
	m, ok, err := correlation.BestHost(p0.Store(), col, p0.HostCols(), disc)
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
