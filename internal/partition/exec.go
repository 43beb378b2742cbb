package partition

import (
	"fmt"

	"hermit/internal/engine"
)

// OpResult is the outcome of one engine.Op executed against a partitioned
// table, at the batch position of its op. It mirrors engine.OpResult with
// partition-qualified identifiers and fan-out stats.
type OpResult struct {
	// RIDs holds the merged, ordered matches of a query op.
	RIDs []RID
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
	return engine.ExecBatch(t.mut.begin(), ops, workers, t.QueryAt, func(_ engine.Op, found bool, err error) OpResult {
		return OpResult{Found: found, Err: err}
	})
}

// QueryAt answers one read op — OpRange, OpPoint or OpRange2 — at snap.
func (t *Table) QueryAt(snap *engine.Snapshot, op engine.Op) OpResult {
	var r OpResult
	switch op.Kind {
	case engine.OpRange:
		r.RIDs, r.Stats, r.Err = t.RangeQueryAt(snap, op.Col, op.Lo, op.Hi)
	case engine.OpPoint:
		r.RIDs, r.Stats, r.Err = t.PointQueryAt(snap, op.Col, op.Lo)
	case engine.OpRange2:
		r.RIDs, r.Stats, r.Err = t.RangeQuery2At(snap, op.Col, op.Lo, op.Hi, op.BCol, op.BLo, op.BHi)
	default:
		r.Err = fmt.Errorf("partition: op kind %d is not a query", op.Kind)
	}
	return r
}
