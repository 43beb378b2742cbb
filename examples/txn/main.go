// Txn: snapshot-isolation transactions over the MVCC engine — atomic
// multi-row commits, first-committer-wins conflict detection, consistent
// snapshot reads under concurrent writers, and atomic batches.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	hermitdb "hermit"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays the example, writing its report to w.
func run(w io.Writer) error {
	db := hermitdb.NewDB(hermitdb.PhysicalPointers)
	tb, err := db.CreateTable("accounts", []string{"id", "balance"}, 0)
	if err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		if _, err := tb.Insert([]float64{float64(i), 100}); err != nil {
			return err
		}
	}

	// A transfer is the classic atomic pair: debit one account, credit
	// another. No reader can ever observe the debit without the credit.
	transfer := func(from, to, amount float64) error {
		x := db.Begin()
		defer x.Rollback() // no-op after a successful commit
		src, ok, err := x.Get("accounts", from)
		if err != nil || !ok {
			return fmt.Errorf("account %v: ok=%v err=%v", from, ok, err)
		}
		dst, ok, err := x.Get("accounts", to)
		if err != nil || !ok {
			return fmt.Errorf("account %v: ok=%v err=%v", to, ok, err)
		}
		if src[1] < amount {
			return fmt.Errorf("insufficient funds in %v", from)
		}
		if err := x.Update("accounts", from, 1, src[1]-amount); err != nil {
			return err
		}
		if err := x.Update("accounts", to, 1, dst[1]+amount); err != nil {
			return err
		}
		return x.Commit()
	}

	// A snapshot taken before the transfer keeps seeing the old balances;
	// a fresh read sees the new ones — atomically.
	before := db.Snapshot()
	defer before.Release()
	if err := transfer(0, 1, 30); err != nil {
		return err
	}
	// A query names the snapshot it reads at; its rows are copied out
	// under that snapshot.
	balance := func(snap *hermitdb.Snapshot, id float64) (float64, error) {
		row, st, err := tb.Exec(hermitdb.Query{Col: 0, Lo: id, Hi: id, Snap: snap}, nil)
		if err != nil || st.Rows != 1 {
			return 0, fmt.Errorf("account %v: %d rows, %v", id, st.Rows, err)
		}
		return row[1], nil
	}
	err = hermitdb.WithSnapshot(db, func(now *hermitdb.Snapshot) error {
		for _, id := range []float64{0, 1} {
			was, err := balance(before, id)
			if err != nil {
				return err
			}
			is, err := balance(now, id)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "account %v: %3.0f before, %3.0f after\n", id, was, is)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// First committer wins: a stale transaction loses and applies nothing.
	x1, x2 := db.Begin(), db.Begin()
	if err := x1.Update("accounts", 2, 1, 150); err != nil {
		return err
	}
	if err := x2.Update("accounts", 2, 1, 90); err != nil {
		return err
	}
	if err := x1.Commit(); err != nil {
		return err
	}
	if err := x2.Commit(); errors.Is(err, hermitdb.ErrWriteConflict) {
		fmt.Fprintln(w, "second writer aborted:", err)
	} else {
		return fmt.Errorf("expected a write conflict, got %v", err)
	}

	// Batches with mutations are one atomic transaction: the duplicate
	// insert below aborts the whole batch, so account 99 never appears.
	res := db.ExecuteBatch([]hermitdb.Op{
		{Table: "accounts", Kind: hermitdb.OpInsert, Row: []float64{99, 1000}},
		{Table: "accounts", Kind: hermitdb.OpInsert, Row: []float64{3, 0}}, // duplicate id
	}, 2)
	fmt.Fprintf(w, "atomic batch: op0 err=%v\n", res[0].Err)
	if _, st, _ := tb.Exec(hermitdb.Query{Col: 0, Lo: 99, Hi: 99}, nil); st.Rows == 0 {
		fmt.Fprintln(w, "account 99 was rolled back with the failing batch")
	}
	return nil
}
