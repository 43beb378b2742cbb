package client

import (
	"hermit/internal/server/proto"
)

// Txn is a server-side transaction bound to the connection's session:
// snapshot-isolated reads at the transaction's begin timestamp, buffered
// writes, first-committer-wins commit (Commit returns ErrConflict on a
// write-write race). The transaction holds a snapshot on the server until
// Commit or Rollback — abandoning one (or dropping the connection) is
// safe, the session teardown rolls it back — but holding it open pins the
// server's reclaim horizon: what commits end piles up until it is released.
type Txn struct {
	c    *Conn
	id   uint64
	done bool
}

// Begin opens a transaction on the session.
func (c *Conn) Begin() (*Txn, error) {
	resp, err := c.roundTrip(&proto.Request{Type: proto.ReqTxnBegin})
	if err != nil {
		return nil, err
	}
	return &Txn{c: c, id: resp.Txn}, nil
}

// Point is Conn.Point at the transaction's snapshot.
func (tx *Txn) Point(table string, col int, v float64) ([][]float64, error) {
	resp, err := tx.c.roundTrip(&proto.Request{
		Type: proto.ReqPoint, Txn: tx.id, Table: table, Col: uint16(col), Lo: v,
	})
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

// Range is Conn.Range at the transaction's snapshot.
func (tx *Txn) Range(table string, col int, lo, hi float64) ([][]float64, error) {
	resp, err := tx.c.roundTrip(&proto.Request{
		Type: proto.ReqRange, Txn: tx.id, Table: table, Col: uint16(col), Lo: lo, Hi: hi,
	})
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

// Insert buffers an insert into the transaction.
func (tx *Txn) Insert(table string, row []float64) error {
	_, err := tx.c.roundTrip(&proto.Request{
		Type: proto.ReqInsert, Txn: tx.id, Table: table, Row: row,
	})
	return err
}

// Update buffers a column update into the transaction.
func (tx *Txn) Update(table string, pk float64, col int, v float64) error {
	_, err := tx.c.roundTrip(&proto.Request{
		Type: proto.ReqUpdate, Txn: tx.id, Table: table, PK: pk, Col: uint16(col), Value: v,
	})
	return err
}

// Delete buffers a delete, reporting whether the row is visible to the
// transaction's snapshot (and not already deleted by it).
func (tx *Txn) Delete(table string, pk float64) (bool, error) {
	resp, err := tx.c.roundTrip(&proto.Request{
		Type: proto.ReqDelete, Txn: tx.id, Table: table, PK: pk,
	})
	if err != nil {
		return false, err
	}
	return resp.Found, nil
}

// Commit publishes the transaction's writes atomically. ErrConflict means
// a first-committer-wins race was lost and nothing was applied. The
// transaction is finished either way.
func (tx *Txn) Commit() error {
	tx.done = true
	_, err := tx.c.roundTrip(&proto.Request{Type: proto.ReqTxnCommit, Txn: tx.id})
	return err
}

// Rollback discards the transaction. Calling it after Commit (e.g. via
// defer) is a no-op.
func (tx *Txn) Rollback() error {
	if tx.done {
		return nil
	}
	tx.done = true
	_, err := tx.c.roundTrip(&proto.Request{Type: proto.ReqTxnRollback, Txn: tx.id})
	return err
}
