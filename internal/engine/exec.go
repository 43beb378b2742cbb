package engine

import (
	"errors"
	"fmt"
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
// DB and Table batches, a DurableTxn for DurableDB ones, the partitioned
// table's transactions for partition.Table ones — and what it returns is
// the caller's result type, so the serving tier answers wire responses
// from the same loop.

// ErrTxnAborted marks the other mutations of an atomic batch whose
// transaction aborted because one mutation failed (that op carries the
// specific error) or because the commit hit a write-write conflict.
var ErrTxnAborted = errors.New("engine: atomic batch aborted; no mutation was applied")

// OpKind selects what an Op does.
type OpKind int

const (
	// OpRange is a single-column range query (Col, Lo, Hi).
	OpRange OpKind = iota
	// OpPoint is a single-column equality query (Col, Lo).
	OpPoint
	// OpRange2 is a conjunctive two-column range query
	// (Col, Lo, Hi) AND (BCol, BLo, BHi).
	OpRange2
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
	case OpRange:
		return "range"
	case OpPoint:
		return "point"
	case OpRange2:
		return "range2"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return "update"
	}
}

// isMutation reports whether the op kind writes (unknown kinds count as
// mutations so a malformed batch aborts rather than half-applies).
func (k OpKind) isMutation() bool {
	switch k {
	case OpRange, OpPoint, OpRange2:
		return false
	default:
		return true
	}
}

// Op is one operation in a batch.
type Op struct {
	// Table names the target table (DB.ExecuteBatch only; Table-level
	// batches ignore it).
	Table string
	Kind  OpKind

	// Query operands.
	Col    int
	Lo, Hi float64
	// Second predicate for OpRange2.
	BCol     int
	BLo, BHi float64

	// Write operands.
	Row   []float64 // OpInsert
	PK    float64   // OpDelete, OpUpdate
	Value float64   // OpUpdate
}

// OpResult is the outcome of one Op, at the batch position of its Op.
type OpResult struct {
	// RIDs holds the matching tuples of a query.
	RIDs []storage.RID
	// Stats describes a query's execution.
	Stats QueryStats
	// RID is the location of an inserted row's committed version.
	RID storage.RID
	// Found reports whether an OpDelete removed a row.
	Found bool
	// Err is the per-operation failure, if any. In a batch with mutations
	// a failing mutation aborts the whole transaction: the failing op
	// carries its error and every other mutation carries ErrTxnAborted.
	Err error
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
// answers one read op at the batch snapshot; mutated turns one mutation's
// outcome into its result. A batch without mutations drains through
// Parallel on workers goroutines, so query must be safe for concurrent use
// there; a batch with mutations runs on the caller alone. x is finished —
// committed or rolled back — when ExecBatch returns. Results align with
// ops.
func ExecBatch[R any](x BatchTxn, ops []Op, workers int, query func(*Snapshot, Op) R, mutated func(op Op, found bool, err error) R) []R {
	defer x.Rollback()
	snap := x.Snapshot()
	read := func(op Op) R { return query(snap, op) }
	if !slices.ContainsFunc(ops, func(op Op) bool { return op.Kind.isMutation() }) {
		return Parallel(ops, workers, read)
	}
	results := make([]R, len(ops))
	found := make([]bool, len(ops))
	failed := -1
	var err error
	for i, op := range ops {
		if !op.Kind.isMutation() {
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
		case !op.Kind.isMutation():
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

// queryOpAt executes one read-only op against the snapshot.
func (t *Table) queryOpAt(snap *Snapshot, op Op) OpResult {
	var r OpResult
	switch op.Kind {
	case OpRange:
		r.RIDs, r.Stats, r.Err = t.RangeQueryAt(snap, op.Col, op.Lo, op.Hi)
	case OpPoint:
		r.RIDs, r.Stats, r.Err = t.PointQueryAt(snap, op.Col, op.Lo)
	case OpRange2:
		r.RIDs, r.Stats, r.Err = t.RangeQuery2At(snap, op.Col, op.Lo, op.Hi, op.BCol, op.BLo, op.BHi)
	default:
		r.Err = fmt.Errorf("engine: op kind %d is not a query", op.Kind)
	}
	return r
}

// tableTxn is the BatchTxn of a batch over the engine's own tables, which
// also finds the table an op names and, after Commit, where a committed
// insert's row landed.
type tableTxn interface {
	BatchTxn
	table(op Op) (*Table, error)
	inserted(op Op) storage.RID
}

// execute is ExecuteBatch over the engine's own tables.
func execute(x tableTxn, ops []Op, workers int) []OpResult {
	query := func(snap *Snapshot, op Op) OpResult {
		tb, err := x.table(op)
		if err != nil {
			return OpResult{Err: err}
		}
		return tb.queryOpAt(snap, op)
	}
	return ExecBatch(x, ops, workers, query, func(op Op, found bool, err error) OpResult {
		r := OpResult{Found: found, Err: err}
		if err == nil && op.Kind == OpInsert {
			r.RID = x.inserted(op)
		}
		return r
	})
}

// txnBatch is the tableTxn of a DB or Table batch: one Txn, each op's table
// found by resolve.
type txnBatch struct {
	x       *Txn
	resolve func(Op) (*Table, error)
	res     CommitResult
}

func (b *txnBatch) Snapshot() *Snapshot { return b.x.Snapshot() }

func (b *txnBatch) Mutate(op Op) (bool, error) {
	tb, err := b.resolve(op)
	if err != nil {
		return false, err
	}
	return b.x.Mutate(tb, op)
}

func (b *txnBatch) Commit() (err error) {
	b.res, err = b.x.Commit()
	return err
}

func (b *txnBatch) Rollback() { b.x.Rollback() }

func (b *txnBatch) table(op Op) (*Table, error) { return b.resolve(op) }

func (b *txnBatch) inserted(op Op) storage.RID {
	tb, _ := b.resolve(op)
	return b.res.RIDs[tb][op.Row[tb.pkCol]]
}

// ExecuteBatch runs a batch of operations across tables under the batch
// contract (see ExecBatch): a batch with any mutation is one atomic
// snapshot-isolation transaction — a failed mutation or a write-write
// conflict aborts every mutation, see OpResult.Err — and a read-only batch
// drains across workers goroutines (<= 0 selects GOMAXPROCS) sharing one
// snapshot. Results are positionally aligned with ops.
func (db *DB) ExecuteBatch(ops []Op, workers int) []OpResult {
	return execute(&txnBatch{x: BeginTxn(db.clock), resolve: func(op Op) (*Table, error) { return db.Table(op.Table) }}, ops, workers)
}

// ExecuteBatch runs a batch of operations against this table; Op.Table is
// ignored. See DB.ExecuteBatch for the atomicity contract.
func (t *Table) ExecuteBatch(ops []Op, workers int) []OpResult {
	return execute(&txnBatch{x: BeginTxn(t.clock), resolve: func(Op) (*Table, error) { return t, nil }}, ops, workers)
}
