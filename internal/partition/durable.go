package partition

import (
	"hermit/internal/engine"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// This file is the durable face of partitioned tables. The engine owns the
// persistence protocol — DurableDB routes logged mutations by primary-key
// hash, stamps every WAL record with its partition id, flushes one delta
// block stream per partition at checkpoints, and recovers each partition
// from its block stack plus the routed WAL tail — so the wrapper here only
// has to send writes and DDL through the logged DurableDB paths and run
// queries against the recovered per-partition handles.

// CreateDurable creates a WAL-logged partitioned table in d and returns
// its scatter-gather wrapper. The partition count is fixed for the life of
// the table (it is recorded in the checkpoint manifest and implied by
// every logged record's routing).
func CreateDurable(d *engine.DurableDB, name string, cols []string, pkCol int, opts Options) (*Table, error) {
	opts = opts.sanitized()
	if err := d.CreatePartitionedTable(name, cols, pkCol, opts.Partitions); err != nil {
		return nil, err
	}
	return OpenDurable(d, name, opts)
}

// OpenDurable wraps an existing durable table (created by CreateDurable or
// DurableDB.CreateTable, or recovered by engine.OpenDurable) in its
// scatter-gather wrapper. A table created without partitions is wrapped as
// its only partition: its queries gather on the caller, with no fan-out
// and no pool slot, and still return rows ordered by the predicate
// column. Options.Partitions is ignored — the recovered count wins;
// Options.Workers sizes the scatter pool of a partitioned table.
func OpenDurable(d *engine.DurableDB, name string, opts Options) (*Table, error) {
	n, err := d.Partitions(name)
	if err != nil {
		return nil, err
	}
	opts = opts.sanitized()
	parts := make([]*engine.Table, max(n, 1))
	for i := range parts {
		phys := name
		if n > 0 {
			phys = engine.PartitionName(name, i)
		}
		tb, err := d.Table(phys)
		if err != nil {
			return nil, err
		}
		parts[i] = tb
	}
	t := &Table{
		name:  name,
		cols:  parts[0].Columns(),
		pkCol: parts[0].PKCol(),
		clock: d.Clock(), // one clock for the whole DurableDB
		parts: parts,
		sem:   make(chan struct{}, opts.Workers),
	}
	t.mut = durMutator{d: d, name: name}
	return t, nil
}

// durMutator sends writes and DDL through the WAL-logged DurableDB paths;
// the engine re-derives the partition from the primary key, so the part
// argument is only the caller's routing decision, never trusted state.
type durMutator struct {
	d    *engine.DurableDB
	name string
}

func (m durMutator) insert(_ int, row []float64) (storage.RID, error) {
	return m.d.Insert(m.name, row)
}

func (m durMutator) remove(_ int, pk float64) (bool, error) {
	return m.d.Delete(m.name, pk)
}

func (m durMutator) update(_ int, pk float64, col int, v float64) error {
	return m.d.UpdateColumn(m.name, pk, col, v)
}

func (m durMutator) createBTree(col int, markNew bool) error {
	return m.d.CreateIndex(m.name, engine.IndexDef{Kind: "btree", Col: col, MarkNew: markNew})
}

func (m durMutator) createHermit(col, host int, params trstree.Params) error {
	return m.d.CreateIndex(m.name, engine.IndexDef{Kind: "hermit", Col: col, Host: host, Params: params})
}

func (m durMutator) dropIndex(col int, kind engine.IndexKind) error {
	return m.d.DropIndex(m.name, col, kind.String())
}

func (m durMutator) begin() engine.BatchTxn {
	return durTxn{DurableTxn: m.d.Begin(), name: m.name}
}

// durTxn is an atomic cross-partition transaction over a durable
// partitioned table: a DurableTxn addressed by the logical name (a batch's
// Op.Table is ignored), which routes each mutation to its hash partition
// and WAL-logs the whole group under one transaction id.
type durTxn struct {
	*engine.DurableTxn
	name string
}

func (x durTxn) Mutate(op engine.Op) (bool, error) {
	op.Table = x.name
	return x.DurableTxn.Mutate(op)
}
