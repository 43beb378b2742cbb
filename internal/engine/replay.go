package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"hermit/internal/storage"
	"hermit/internal/wal"
)

// This file is the one path by which a WAL reaches the engine: recovery
// replays its own log through it (replayTail), a replication follower the
// leader's (ReplApply). Each piece is written once:
//
//   - the mutation codec: encodeOp writes an Op into a record payload — an
//     insert's row, a delete's key, an update's key, column and value, as
//     little-endian float64 bits — and decodeOp reads it back;
//   - the group state machine (fold): records in LSN order, a transaction's
//     frames buffered by id until its commit arrives, txnSeq raised to every
//     id seen;
//   - the group applier (applyGroup): a DDL or auto-commit record applies on
//     its own, a transaction's mutations through one Txn — all of them at one
//     commit timestamp, or none.
//
// Anomalies follow one rule: a frame the state machine cannot place (a
// mutation or commit of a transaction with no open begin) and a group that
// fails to apply — a malformed payload, an unknown table, a duplicate key,
// the delete of an absent key (a leader logs deletes of present keys only)
// — are dropped whole, changing nothing. Recovery counts the records it
// drops in RecoverySkipped and goes on; ReplApply returns the first as its
// error.

// encodeOp is the codec's encoder: it appends the payload of mutation op to
// dst — a caller's buffer, so submit encodes on its stack — and returns it
// with the record's op code.
func encodeOp(dst []byte, op *Op) (wal.Op, []byte) {
	switch op.Kind {
	case OpInsert:
		return wal.OpInsert, appendFloats(dst, op.Row...)
	case OpDelete:
		return wal.OpDelete, appendFloats(dst, op.PK)
	}
	return wal.OpUpdate, appendFloats(dst, op.PK, float64(op.Col), op.Value)
}

// appendFloats appends the little-endian bits of vals to dst.
func appendFloats(dst []byte, vals ...float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeOp is the codec's decoder: the Op a mutation record logged, its
// payload length checked against the op code.
func decodeOp(rec wal.Record) (Op, error) {
	p := rec.Payload
	at := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:])) }
	op := Op{Table: rec.Table}
	switch {
	case rec.Op == wal.OpInsert && len(p)%8 == 0:
		op.Kind, op.Row = OpInsert, make([]float64, len(p)/8)
		for i := range op.Row {
			op.Row[i] = at(i)
		}
	case rec.Op == wal.OpDelete && len(p) == 8:
		op.Kind, op.PK = OpDelete, at(0)
	case rec.Op == wal.OpUpdate && len(p) == 24:
		op.Kind, op.PK, op.Col, op.Value = OpUpdate, at(0), int(at(1)), at(2)
	default:
		return op, fmt.Errorf("engine: malformed mutation record (op %d, %d payload bytes)", rec.Op, len(p))
	}
	return op, nil
}

// mutate applies auto-commit mutation op to tb — the one switch submit and
// replay share — reporting an insert's RID and whether a delete found its
// key.
func mutate(tb *Table, op *Op) (rid storage.RID, found bool, err error) {
	switch op.Kind {
	case OpInsert:
		rid, err = tb.Insert(op.Row)
	case OpDelete:
		found, err = tb.Delete(op.PK)
	case OpUpdate:
		err = tb.UpdateColumn(op.PK, op.Col, op.Value)
	default:
		err = fmt.Errorf("engine: %v is not a mutation", op.Kind)
	}
	return rid, found, err
}

// fold feeds one record, in LSN order, through the group state machine and
// returns the group the record completes (ok): the record itself when it is
// DDL or an auto-commit mutation, a transaction's buffered mutations when it
// is the commit. A begin or a mutation frame leaves its transaction open.
// scratch says rec.Payload is replay's reused buffer, so a buffered frame
// copies it. Caller owns d alone (recovery) or holds d.replMu.
func (d *durable) fold(rec wal.Record, scratch bool) (group []wal.Record, ok bool, err error) {
	// A transaction begun here later — a promoted follower's — must not
	// reuse an id the log holds, an orphaned open one included.
	for cur := d.txnSeq.Load(); rec.Txn > cur && !d.txnSeq.CompareAndSwap(cur, rec.Txn); cur = d.txnSeq.Load() {
	}
	frames, open := d.open[rec.Txn]
	switch {
	case rec.Op == wal.OpTxnBegin:
		if !open {
			d.open[rec.Txn] = nil
		}
		return nil, false, nil
	case rec.Txn == 0:
		return []wal.Record{rec}, true, nil
	case !open:
		return nil, false, fmt.Errorf("engine: op %d at LSN %d belongs to txn %d, which is not open", rec.Op, rec.LSN, rec.Txn)
	case rec.Op == wal.OpTxnCommit:
		delete(d.open, rec.Txn)
		return frames, true, nil
	}
	if scratch {
		rec.Payload = bytes.Clone(rec.Payload)
	}
	d.open[rec.Txn] = append(frames, rec)
	return nil, false, nil
}

// applyGroup applies a group fold completed. It takes no latch: recovery
// owns d alone, ReplApply holds d.mu. A DDL or auto-commit record applies
// on its own; a transaction's mutations apply through one Txn, so they
// commit at one timestamp or, when one fails, not at all. The Txn commits
// in memory only (commit, not Commit): replaying a group never logs it
// again.
func (d *durable) applyGroup(group []wal.Record) error {
	if len(group) == 1 && group[0].Txn == 0 {
		return d.applyRecord(group[0])
	}
	tx := d.db.Begin()
	defer tx.Rollback()
	for _, rec := range group {
		tb, op, err := d.replayed(rec)
		if err == nil {
			var found bool
			found, err = tx.stage(tb, &op)
			err = absent(&op, found, err)
		}
		if err != nil {
			return err
		}
	}
	return tx.commit()
}

// applyRecord applies one DDL or auto-commit record. Live DDL runs through
// it too (durable.ddl).
func (d *durable) applyRecord(rec wal.Record) error {
	if !isDDLOp(rec.Op) {
		tb, op, err := d.replayed(rec)
		if err == nil {
			var found bool
			_, found, err = mutate(tb, &op)
			err = absent(&op, found, err)
		}
		return err
	}
	var s ddlStmt
	if err := json.Unmarshal(rec.Payload, &s); err != nil {
		return err
	}
	return d.db.applyDDL(rec.Op, rec.Table, &s)
}

// replayed decodes a mutation record and resolves the engine table it
// applies to by the record's partition id.
func (d *durable) replayed(rec wal.Record) (*Table, Op, error) {
	op, err := decodeOp(rec)
	if err != nil {
		return nil, op, err
	}
	l, err := d.db.named(rec.Table)
	switch {
	case err != nil:
		return nil, op, err
	case int(rec.Part) >= len(l.phys):
		return nil, op, fmt.Errorf("engine: record partition %d out of range for %q (%d partitions)",
			rec.Part, rec.Table, len(l.phys))
	}
	return l.phys[rec.Part], op, nil
}

// absent is err, or — for a replayed delete that found no key — the
// divergence that means: a log holds deletes of present keys only.
func absent(op *Op, found bool, err error) error {
	if err == nil && op.Kind == OpDelete && !found {
		return fmt.Errorf("engine: replayed delete of absent key %v in %q", op.PK, op.Table)
	}
	return err
}

// isDDLOp reports whether op changes the catalog (and so applies under the
// exclusive latch, as a group of its own).
func isDDLOp(op wal.Op) bool {
	switch op {
	case wal.OpCreateTable, wal.OpCreatePartitioned, wal.OpCreateIndex, wal.OpDropIndex:
		return true
	}
	return false
}

// replayTail is recovery's phase 2: it folds the WAL tail past the
// published replay start through the state machine and applies every group
// it completes. Replay stops at the first torn or corrupt frame on its own;
// an anomaly is counted in RecoverySkipped, never aborting recovery. A
// transaction still open at the end — its commit never reached the log —
// rolls back: RecoveryUncommitted counts it, and its frames stay buffered,
// the open set a follower resumes with (ReplApply).
func (d *durable) replayTail(path string) error {
	err := wal.ReplayFrom(path, d.pub.WALStart, func(rec wal.Record) error {
		group, ok, err := d.fold(rec, true)
		n := 1
		if ok {
			n, err = len(group), d.applyGroup(group)
		}
		if err != nil {
			d.skipped += n
			d.lastSkipErr = err
		}
		return nil
	})
	d.uncommitted = len(d.open)
	return err
}

// ReplApply is a follower's one entry point for leader WAL records. It
// mirrors them, with their original LSNs, into this database's log under
// one shared-latch hold — a checkpoint cannot rotate the segment mid-batch,
// and the log stays byte for byte a prefix of the leader's — then folds
// them through recovery's state machine and applies each group they
// complete with recovery's applier, under the shared latch for mutations
// and the exclusive one for DDL. The log runs ahead of the state by the
// open transactions only, as after a leader crash mid-commit, and recovery
// reconciles it the same way. ReplApply returns the LSN of the last group
// it applied (0 for none) and how many transactions are still open; the
// first anomaly ends the batch as its error, the groups before it applied.
// A database without a log has nothing to mirror into: ErrNotDurable.
func (db *DB) ReplApply(recs []wal.Record) (applied uint64, open int, err error) {
	d := db.dur
	if d == nil {
		return 0, 0, ErrNotDurable
	}
	d.replMu.Lock()
	defer d.replMu.Unlock()
	d.mu.RLock()
	var last wal.Ticket
	for _, rec := range recs {
		tk, serr := d.log.SubmitRaw(rec)
		if serr != nil {
			err = serr
			break
		}
		last = tk
	}
	d.mu.RUnlock()
	// One log, one hold: the last record's acknowledgement covers the run.
	if _, werr := last.Wait(); err == nil {
		err = werr
	}
	for i := 0; err == nil && i < len(recs); i++ {
		group, ok, ferr := d.fold(recs[i], false)
		if !ok {
			err = ferr
			continue
		}
		lock, unlock := d.mu.RLock, d.mu.RUnlock
		if len(group) == 1 && isDDLOp(group[0].Op) {
			lock, unlock = d.mu.Lock, d.mu.Unlock
		}
		lock()
		err = d.applyGroup(group)
		unlock()
		if err == nil {
			applied = recs[i].LSN
		}
	}
	return applied, len(d.open), err
}
