package engine

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"hermit/internal/storage"
)

// This file is the batch executor, and ExecBatch is the one place the
// batch contract is written:
//
//   - queries read the batch-start snapshot;
//   - mutations are all-or-nothing: they buffer in one transaction and
//     commit together;
//   - the failing mutation keeps its own error, and every sibling mutation
//     reports ErrTxnAborted (a failed commit reports its error on every
//     mutation);
//   - queries after the failure are still answered.
//
// A batch without mutations drains across a pool of goroutines (Parallel)
// reading that one snapshot. What a batch runs in is a BatchTxn — a Txn for
// DB and Table batches, a DurableTxn for DurableDB ones — and what it
// returns is the caller's result type, so partition.Table and the serving
// tier answer from the same loop.

// ErrTxnAborted marks the other mutations of an atomic batch whose
// transaction aborted because one mutation failed (that op carries the
// specific error) or because the commit hit a write-write conflict.
var ErrTxnAborted = errors.New("engine: atomic batch aborted; no mutation was applied")

// OpKind selects what an Op does.
type OpKind int

const (
	// OpQuery answers Op.Query (Exec).
	OpQuery OpKind = iota
	// OpInsert appends Row to the table.
	OpInsert
	// OpDelete removes the row with primary key PK.
	OpDelete
	// OpUpdate sets column Col of the row with primary key PK to Value.
	OpUpdate
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpQuery:
		return "query"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return "update"
	}
}

// Op is one operation in a batch.
type Op struct {
	// Table names the target table (DB.ExecuteBatch only; Table-level
	// batches ignore it).
	Table string
	Kind  OpKind

	// Query is an OpQuery's read. The batch reads at its own snapshot, so
	// Query.Snap is ignored.
	Query Query

	// Write operands.
	Row   []float64 // OpInsert
	PK    float64   // OpDelete, OpUpdate
	Col   int       // OpUpdate
	Value float64   // OpUpdate
}

// OpResult is the outcome of one Op, at the batch position of its Op.
type OpResult struct {
	// Rows holds a query's matching rows, whole and back to back (Exec's
	// layout; SplitRows views them one slice per row).
	Rows []float64
	// Stats describes a query's execution.
	Stats QueryStats
	// Found reports whether an OpDelete removed a row.
	Found bool
	// Err is the per-operation failure, if any. In a batch with mutations
	// a failing mutation aborts the whole transaction: the failing op
	// carries its error and every other mutation carries ErrTxnAborted.
	Err error

	// rid is where an auto-commit insert's row landed (DurableDB.Insert).
	rid storage.RID
}

// BatchTxn is the transaction a batch runs in (ExecBatch).
type BatchTxn interface {
	// Snapshot is the batch-start snapshot every query of the batch reads.
	Snapshot() *Snapshot
	// Mutate buffers one mutation (OpInsert, OpDelete or OpUpdate),
	// reporting whether a delete found its key.
	Mutate(op Op) (found bool, err error)
	// Commit applies every buffered mutation, or none of them.
	Commit() error
	// Rollback discards the transaction; after Commit it does nothing.
	Rollback()
}

// ExecBatch runs ops in x under the batch contract (file comment). query
// answers one OpQuery — its Query.Snap set to the batch snapshot, so query
// is an Exec over the table op.Table names; mutated turns one mutation's
// outcome into its result. A batch without mutations drains through
// Parallel on workers goroutines, so query must be safe for concurrent use
// there; a batch with mutations runs on the caller alone. x is finished —
// committed or rolled back — when ExecBatch returns. Results align with
// ops.
func ExecBatch[R any](x BatchTxn, ops []Op, workers int, query func(Op) R, mutated func(op Op, found bool, err error) R) []R {
	defer x.Rollback()
	snap := x.Snapshot()
	read := func(op Op) R {
		op.Query.Snap = snap
		return query(op)
	}
	if !slices.ContainsFunc(ops, func(op Op) bool { return op.Kind != OpQuery }) {
		return Parallel(ops, workers, read)
	}
	results := make([]R, len(ops))
	found := make([]bool, len(ops))
	failed := -1
	var err error
	for i, op := range ops {
		if op.Kind == OpQuery {
			results[i] = read(op)
		} else if found[i], err = x.Mutate(op); err != nil {
			failed = i
			break
		}
	}
	if failed < 0 {
		err = x.Commit()
	}
	for i, op := range ops {
		switch {
		case op.Kind == OpQuery:
			if failed >= 0 && i > failed {
				results[i] = read(op)
			}
		case failed >= 0 && i != failed:
			results[i] = mutated(op, found[i], ErrTxnAborted)
		default:
			results[i] = mutated(op, found[i], err)
		}
	}
	return results
}

// Parallel runs fn over items on min(workers, len(items)) goroutines, the
// caller's among them (workers <= 0 selects GOMAXPROCS), and returns fn's
// results in item order: the read pool of a batch without mutations, and
// the per-partition fan-out of durable recovery and index builds.
func Parallel[T, R any](items []T, workers int, fn func(T) R) []R {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]R, len(items))
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(items); i = int(next.Add(1)) - 1 {
			results[i] = fn(items[i])
		}
	}
	var wg sync.WaitGroup
	for w := min(workers, len(items)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return results
}

// tableTxn is the BatchTxn of a batch over the engine's own tables, which
// also finds the table an op names.
type tableTxn interface {
	BatchTxn
	table(op Op) (*Table, error)
}

// execute is ExecuteBatch over the engine's own tables.
func execute(x tableTxn, ops []Op, workers int) []OpResult {
	query := func(op Op) OpResult {
		tb, err := x.table(op)
		if err != nil {
			return OpResult{Err: err}
		}
		var r OpResult
		r.Rows, r.Stats, r.Err = tb.Exec(op.Query, nil)
		return r
	}
	return ExecBatch(x, ops, workers, query, func(_ Op, found bool, err error) OpResult {
		return OpResult{Found: found, Err: err}
	})
}

// dbTxn is the DB's by-name batch transaction: one Txn, each mutation on
// the partition of the table its Op.Table names that owns its key, each
// query on the engine table its name denotes.
type dbTxn struct {
	*Txn
	db *DB
}

func (b dbTxn) Mutate(op Op) (bool, error) {
	tb, _, _, err := b.db.target(&op)
	if err != nil {
		return false, err
	}
	return b.Txn.Mutate(tb, op)
}

func (b dbTxn) Commit() error {
	_, err := b.Txn.Commit()
	return err
}

func (b dbTxn) table(op Op) (*Table, error) { return b.db.Table(op.Table) }

// BeginBatch starts the transaction a by-name batch runs in (ExecBatch).
func (db *DB) BeginBatch() BatchTxn { return dbTxn{beginTxn(db.clock), db} }

// ExecuteBatch runs a batch of operations across tables under the batch
// contract (see ExecBatch): a batch with any mutation is one atomic
// snapshot-isolation transaction — a failed mutation or a write-write
// conflict aborts every mutation, see OpResult.Err — and a read-only batch
// drains across workers goroutines (<= 0 selects GOMAXPROCS) sharing one
// snapshot. Results are positionally aligned with ops.
func (db *DB) ExecuteBatch(ops []Op, workers int) []OpResult {
	return execute(dbTxn{beginTxn(db.clock), db}, ops, workers)
}

// tableBatch is the transaction of a Table batch: every op is on t.
type tableBatch struct {
	*Txn
	t *Table
}

func (b tableBatch) Mutate(op Op) (bool, error) { return b.Txn.Mutate(b.t, op) }

func (b tableBatch) Commit() error {
	_, err := b.Txn.Commit()
	return err
}

func (b tableBatch) table(Op) (*Table, error) { return b.t, nil }

// ExecuteBatch runs a batch of operations against this table; Op.Table is
// ignored. See DB.ExecuteBatch for the atomicity contract.
func (t *Table) ExecuteBatch(ops []Op, workers int) []OpResult {
	return execute(tableBatch{beginTxn(t.clock), t}, ops, workers)
}
