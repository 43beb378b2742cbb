package engine

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"hermit/internal/storage"
)

// This file is the batch executor, and Txn.execBatch is the one place the
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
// A batch runs in one transaction of the database (Txn), logged on a
// durable one: every query is the database's read of the table its op names
// (DB.Exec, gather.go), plain or partitioned, every mutation is the
// transaction's Mutate on that table, and a batch without mutations drains
// across a pool of goroutines (Parallel) reading that one snapshot. The
// serving tier maps the results onto its responses.

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
	// Table names the target table, plain or partitioned.
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
	// Stats describes a query's execution (DB.Exec).
	Stats GatherStats
	// Found reports whether an OpDelete removed a row.
	Found bool
	// Err is the per-operation failure, if any. In a batch with mutations
	// a failing mutation aborts the whole transaction: the failing op
	// carries its error and every other mutation carries ErrTxnAborted.
	Err error

	// rid is where an auto-commit insert's row landed (DB.Insert).
	rid storage.RID
}

// execBatch runs ops in x under the batch contract (file comment): each
// query is the database's read (Exec) at the batch snapshot, its legs
// bounded by workers. A batch without mutations drains through Parallel on
// workers goroutines; a batch with mutations runs on the caller alone. x
// is finished — committed or rolled back — when execBatch returns. Results
// align with ops.
func (x *Txn) execBatch(ops []Op, workers int) []OpResult {
	defer x.Rollback()
	read := func(op Op) (r OpResult) {
		op.Query.Snap = x.snap
		r.Rows, r.Stats, r.Err = x.db.Exec(op.Table, op.Query, workers, nil)
		return r
	}
	if !slices.ContainsFunc(ops, func(op Op) bool { return op.Kind != OpQuery }) {
		return Parallel(ops, workers, read)
	}
	results := make([]OpResult, len(ops))
	failed := -1
	var err error
	for i, op := range ops {
		if op.Kind == OpQuery {
			results[i] = read(op)
		} else if results[i].Found, err = x.Mutate(op); err != nil {
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
			results[i].Err = ErrTxnAborted
		default:
			results[i].Err = err
		}
	}
	return results
}

// Parallel runs fn over items on min(workers, len(items)) goroutines, the
// caller's among them (workers <= 0 selects GOMAXPROCS), and returns fn's
// results in item order: the read pool of a batch without mutations, the
// legs of a gather, and the per-partition fan-out of durable recovery and
// index builds. With one worker or one item it runs fn on the caller alone
// and allocates nothing of its own beyond the results.
func Parallel[T, R any](items []T, workers int, fn func(T) R) []R {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]R, len(items))
	if workers == 1 || len(items) <= 1 {
		for i, it := range items {
			results[i] = fn(it)
		}
		return results
	}
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

// ExecuteBatch runs a batch of operations across tables, plain or
// partitioned, under the batch contract (see execBatch): a batch with any
// mutation is one atomic snapshot-isolation transaction — a failed
// mutation or a write-write conflict aborts every mutation, see
// OpResult.Err — and a read-only batch drains across workers goroutines
// (<= 0 selects GOMAXPROCS) sharing one snapshot; each query's own legs are
// bounded by workers too. Results are positionally aligned with ops.
func (db *DB) ExecuteBatch(ops []Op, workers int) []OpResult {
	return db.Begin().execBatch(ops, workers)
}
