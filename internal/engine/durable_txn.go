package engine

import (
	"fmt"
	"sort"

	"hermit/internal/wal"
)

// DurableTxn is a snapshot-isolation transaction over a DurableDB:
// mutations buffer in an engine transaction and, at Commit, apply
// atomically and are WAL-logged as a txn-begin / mutations / txn-commit
// record group under one transaction id. Recovery replays the group only
// if the commit record reached the log, so a crash mid-commit rolls the
// whole transaction back. Mutations on partitioned tables route by
// primary-key hash exactly like the auto-commit paths, each record
// carrying its partition id. Like engine.Txn it is not safe for
// concurrent use by multiple goroutines.
type DurableTxn struct {
	d    *DurableDB
	x    *Txn
	recs []wal.Record // mutation records, in buffer order
	pks  []float64    // the d.rows stripe keys Commit must hold
	done bool
}

// Begin starts a durable snapshot-isolation transaction. Only DML is
// transactional; DDL keeps its own logged paths.
func (d *DurableDB) Begin() *DurableTxn {
	return &DurableTxn{d: d, x: beginTxn(d.db.clock)}
}

// Snapshot returns the transaction's read snapshot (see Txn.Snapshot).
func (tx *DurableTxn) Snapshot() *Snapshot { return tx.x.Snapshot() }

// Mutate buffers one mutation on op.Table — Insert, Delete or Update by
// op.Kind — routed to its key's partition, together with the WAL record
// Commit logs for it. A delete of an absent key buffers nothing: there is
// nothing to replay.
func (tx *DurableTxn) Mutate(op Op) (bool, error) {
	if tx.done {
		return false, ErrTxnDone
	}
	tb, part, pk, err := tx.d.db.target(&op)
	if err != nil {
		return false, err
	}
	found, err := tx.x.Mutate(tb, op)
	if err != nil {
		return false, err
	}
	if op.Kind == OpDelete && !found {
		return false, nil
	}
	rec := wal.Record{Table: op.Table, Part: part}
	rec.Op, rec.Payload = encodeOp(nil, &op)
	tx.recs = append(tx.recs, rec)
	tx.pks = append(tx.pks, pk)
	return found, nil
}

// Insert buffers a row insert (see Txn.Insert).
func (tx *DurableTxn) Insert(table string, row []float64) error {
	_, err := tx.Mutate(Op{Kind: OpInsert, Table: table, Row: row})
	return err
}

// Delete buffers a delete (see Txn.Delete). Deletes of absent keys are
// not logged — there is nothing to replay.
func (tx *DurableTxn) Delete(table string, pk float64) (bool, error) {
	return tx.Mutate(Op{Kind: OpDelete, Table: table, PK: pk})
}

// Update buffers a single-column update (see Txn.Update).
func (tx *DurableTxn) Update(table string, pk float64, col int, v float64) error {
	_, err := tx.Mutate(Op{Kind: OpUpdate, Table: table, PK: pk, Col: col, Value: v})
	return err
}

// Rollback discards the transaction; nothing was applied or logged.
func (tx *DurableTxn) Rollback() {
	if tx.done {
		return
	}
	tx.done = true
	tx.x.Rollback()
}

// Commit applies the buffered writes atomically in memory (first committer
// wins — ErrWriteConflict aborts with nothing applied or logged), then
// logs the whole group under a fresh transaction id and returns once the
// commit record is acknowledged under the sync policy.
func (tx *DurableTxn) Commit() error {
	tk, err := tx.submitCommit()
	if err != nil {
		return err
	}
	if _, err := tk.Wait(); err != nil {
		return fmt.Errorf("engine: wal append after txn apply (in-memory state ahead of log until next checkpoint): %w", err)
	}
	return nil
}

// submitCommit is Commit up to the wait: apply, then submit the group's
// frames. The write keys' durable stripes are held from the in-memory
// commit through the log submits, so per-key log order equals apply order
// exactly as on the auto-commit paths. The group is one run in one log —
// the shared latch keeps a rotation out — so the returned ticket, the
// commit record's, covers the begin and mutation frames before it; if a
// submit fails midway, the frames already pending reach the file with the
// log's next wait, barrier or close, as an uncommitted tail.
func (tx *DurableTxn) submitCommit() (wal.Ticket, error) {
	if tx.done {
		return wal.Ticket{}, ErrTxnDone
	}
	tx.done = true
	d := tx.d
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(tx.recs) == 0 {
		_, err := tx.x.Commit()
		return wal.Ticket{}, err
	}
	stripes := make([]uint64, 0, len(tx.pks))
	seen := make(map[uint64]bool, len(tx.pks))
	for _, pk := range tx.pks {
		if s := stripeOf(pk); !seen[s] {
			seen[s] = true
			stripes = append(stripes, s)
		}
	}
	sort.Slice(stripes, func(a, b int) bool { return stripes[a] < stripes[b] })
	for _, s := range stripes {
		d.rows.stripes[s].Lock()
	}
	defer func() {
		for i := len(stripes) - 1; i >= 0; i-- {
			d.rows.stripes[stripes[i]].Unlock()
		}
	}()
	if _, err := tx.x.Commit(); err != nil {
		return wal.Ticket{}, err
	}
	id := d.txnSeq.Add(1)
	var (
		tk  wal.Ticket
		err error
	)
	submit := func(rec wal.Record) {
		if err == nil {
			rec.Txn = id
			tk, err = d.log.Submit(rec)
		}
	}
	submit(wal.Record{Op: wal.OpTxnBegin})
	for _, rec := range tx.recs {
		submit(rec)
	}
	submit(wal.Record{Op: wal.OpTxnCommit})
	if err != nil {
		return wal.Ticket{}, fmt.Errorf("engine: wal submit after txn apply (in-memory state ahead of log until next checkpoint): %w", err)
	}
	return tk, nil
}

// ExecuteBatch runs a batch of operations with the same atomicity contract
// as DB.ExecuteBatch, durably: a batch containing mutations executes as
// one DurableTxn (queries read the batch-start snapshot; mutations apply
// and are WAL-logged all-or-nothing under one transaction id), while a
// read-only batch drains across a pool of workers goroutines sharing one
// snapshot. Every query is the database's read (DB.Exec).
func (d *DurableDB) ExecuteBatch(ops []Op, workers int) []OpResult {
	return d.db.execBatch(d.Begin(), ops, workers)
}

// Exec is the database's read of the named table (DB.Exec).
func (d *DurableDB) Exec(table string, q Query, workers int, dst []float64) ([]float64, GatherStats, error) {
	return d.db.Exec(table, q, workers, dst)
}

// Lookup is Exec keeping the rows' partitioned RIDs (DB.Lookup).
func (d *DurableDB) Lookup(table string, q Query, workers int, dst []PartRID) ([]PartRID, GatherStats, error) {
	return d.db.Lookup(table, q, workers, dst)
}
