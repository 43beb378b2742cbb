// Package partition fronts the hash-partitioned tables of an engine
// database: a table split across N per-partition engine tables by a hash
// of the primary key, so each partition carries its own indexes, latches
// and planner state (Hermit's succinct secondary indexes keep many of them
// affordable per partition — the paper's space argument is what makes
// partition-parallelism cheap).
//
// The partitions, the routing of writes, the index DDL and the
// scatter-gather read are the database's: a Table fronts a table of an
// engine.DB, in memory or durable. Its writes and DDL are the database's
// (a durable one logs them), and its queries are the database's one read
// (DB.Exec): a
// primary-key point routes to the key's owner, anything else runs one leg
// per partition on at most Options.Workers goroutines and merges the legs
// into predicate-column order. A table created without partitions opens
// as a one-partition table. What the package adds is the handle, the
// benchmark's RID reads and Explain, which reports the fan-out with one
// costed engine plan per partition; the database's advisor sees a
// partitioned table as one table and applies its DDL to every partition.
package partition

import (
	"fmt"

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
	// Open ignores it: the count is fixed when the table is created.
	Partitions int
	// Workers bounds the goroutines of one read of the table: the caller
	// plus at most Workers-1 run its per-partition legs (GOMAXPROCS when
	// zero; 1 runs them one after another on the caller). It bounds each
	// read on its own, not the legs in flight across concurrent reads. A
	// routed read, and every read of a one-partition table, has one leg
	// and runs on the caller.
	Workers int
}

// RID identifies a row in a partitioned table: the owning partition plus
// the row's record identifier within that partition's store.
type RID = engine.PartRID

// Table is a hash-partitioned table: N per-partition engine tables behind
// one logical name, read through the database's scatter-gather. It is safe
// for concurrent use — partitions inherit the engine's fine-grained
// latching.
type Table struct {
	db      *engine.DB
	name    string
	cols    []string
	pkCol   int
	parts   []*engine.Table
	workers int
}

// New creates an in-memory partitioned table: a DB of its own holding it
// (see Create).
func New(scheme hermit.PointerScheme, name string, cols []string, pkCol int, opts Options) (*Table, error) {
	return Create(engine.NewDB(scheme), name, cols, pkCol, opts)
}

// Create creates a partitioned table in db — a durable one logs it — and
// returns its scatter-gather wrapper. The partition count is fixed for the
// life of the table.
func Create(db *engine.DB, name string, cols []string, pkCol int, opts Options) (*Table, error) {
	if opts.Partitions <= 0 {
		opts.Partitions = DefaultPartitions
	}
	if err := db.CreatePartitionedTable(name, cols, pkCol, opts.Partitions); err != nil {
		return nil, err
	}
	return Open(db, name, opts)
}

// Open wraps an existing table of db — created by Create or CreateTable, or
// recovered by engine.OpenDurable — in its scatter-gather
// wrapper. A table created without partitions is wrapped as its only
// partition: its queries run on the caller, with no fan-out, and still
// return rows ordered by the predicate column. Options.Partitions is
// ignored — the table's own count wins; Options.Workers bounds each read's
// goroutines. A wrapper holds the engine tables of its partitions, which
// DDL changes in place, so it stays good for the life of the database.
func Open(db *engine.DB, name string, opts Options) (*Table, error) {
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
		db:      db,
		name:    name,
		cols:    parts[0].Columns(),
		pkCol:   parts[0].PKCol(),
		parts:   parts,
		workers: opts.Workers,
	}, nil
}

// Snapshot registers a consistent read view across every partition: all
// fan-out legs of a query (or any sequence of queries) run against it
// observe one commit-clock instant, so a concurrently committing batch is
// seen entirely or not at all.
func (t *Table) Snapshot() *engine.Snapshot { return t.db.Snapshot() }

// GC reclaims, in every partition, the backlog of ended row versions that a
// snapshot since released had pinned (see engine.DB.GC). Nothing depends on
// calling it: every commit reclaims what it ends and works a backlog off.
func (t *Table) GC() int {
	horizon := t.db.Clock().OldestActive()
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
// broken by partition then RID). It is the database's read of the table
// (engine.DB.Exec) on at most Options.Workers goroutines.
func (t *Table) Exec(q engine.Query, dst []float64) ([]float64, engine.GatherStats, error) {
	return t.db.Exec(t.name, q, t.workers, dst)
}

// RangeQuery returns the RIDs of the rows with lo <= col <= hi in Exec's
// order (engine.DB.Lookup), read at a snapshot released before it returns. It exists only for benchmark/,
// which calls it, and goes with benchmark v2.
func (t *Table) RangeQuery(col int, lo, hi float64) ([]RID, engine.GatherStats, error) {
	return t.db.Lookup(t.name, engine.Query{Col: col, Lo: lo, Hi: hi}, t.workers, nil)
}

// PointQuery is RangeQuery with lo == hi == v. It exists only for
// benchmark/, which calls it, and goes with benchmark v2.
func (t *Table) PointQuery(col int, v float64) ([]RID, engine.GatherStats, error) {
	return t.RangeQuery(col, v, v)
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
