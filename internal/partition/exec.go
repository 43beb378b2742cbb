package partition

import (
	"hermit/internal/engine"
)

// OpResult is the outcome of one engine.Op executed against a partitioned
// table, at the batch position of its op. It mirrors engine.OpResult with
// fan-out stats.
type OpResult struct {
	// Rows holds a query op's merged, ordered rows, whole and back to back
	// (Exec's layout).
	Rows []float64
	// Stats describes a query op's execution (fan-out, merge counts).
	Stats Stats
	// Found reports whether an OpDelete removed a row.
	Found bool
	// Err is the per-operation failure, if any. In a batch with mutations
	// a failing mutation aborts the whole transaction: the failing op
	// carries its error and every other mutation engine.ErrTxnAborted.
	Err error
}

// ExecuteBatch runs a batch of operations under the engine's batch
// contract (engine.ExecBatch), across partitions: a batch containing
// mutations executes as one cross-partition snapshot-isolation transaction
// (queries read the batch-start snapshot; mutations route to their hash
// partitions, buffer, and commit with a single commit-clock advance — so no
// concurrent reader, on any partition, can observe the batch partially; on
// durable tables the group is WAL-logged under one transaction id). A
// read-only batch drains across a pool of workers goroutines (<= 0
// selects GOMAXPROCS) sharing one snapshot; range legs still scatter
// through the table's bounded pool, so total scan parallelism stays
// capped at Options.Workers. Results align positionally with ops;
// Op.Table is ignored.
func (t *Table) ExecuteBatch(ops []engine.Op, workers int) []OpResult {
	query := func(op engine.Op) OpResult {
		var r OpResult
		r.Rows, r.Stats, r.Err = t.Exec(op.Query, nil)
		return r
	}
	return engine.ExecBatch(t.mut.begin(), ops, workers, query, func(_ engine.Op, found bool, err error) OpResult {
		return OpResult{Found: found, Err: err}
	})
}
