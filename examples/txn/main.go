// Txn: snapshot-isolation transactions over the MVCC engine — atomic
// multi-row commits, first-committer-wins conflict detection, consistent
// snapshot reads under concurrent writers, and atomic batches.
package main

import (
	"errors"
	"fmt"
	"log"

	hermitdb "hermit"
)

func main() {
	db := hermitdb.NewDB(hermitdb.PhysicalPointers)
	tb, err := db.CreateTable("accounts", []string{"id", "balance"}, 0)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := tb.Insert([]float64{float64(i), 100}); err != nil {
			log.Fatal(err)
		}
	}

	// A transfer is the classic atomic pair: debit one account, credit
	// another. No reader can ever observe the debit without the credit.
	transfer := func(from, to, amount float64) error {
		x := db.Begin()
		defer x.Rollback() // no-op after a successful commit
		src, ok, err := x.Get(tb, from)
		if err != nil || !ok {
			return fmt.Errorf("account %v: ok=%v err=%v", from, ok, err)
		}
		dst, ok, err := x.Get(tb, to)
		if err != nil || !ok {
			return fmt.Errorf("account %v: ok=%v err=%v", to, ok, err)
		}
		if src[1] < amount {
			return fmt.Errorf("insufficient funds in %v", from)
		}
		if err := x.Update(tb, from, 1, src[1]-amount); err != nil {
			return err
		}
		if err := x.Update(tb, to, 1, dst[1]+amount); err != nil {
			return err
		}
		_, err = x.Commit()
		return err
	}

	// A snapshot taken before the transfer keeps seeing the old balances;
	// a fresh read sees the new ones — atomically.
	before := db.Snapshot()
	defer before.Release()
	if err := transfer(0, 1, 30); err != nil {
		log.Fatal(err)
	}
	// A RID is dereferenced under the snapshot its query ran at: the commit
	// that supersedes a version reclaims it, and the slot goes to the next
	// row written, unless a snapshot that sees the version is still open.
	balance := func(snap *hermitdb.Snapshot, id float64) float64 {
		rids, _, err := tb.PointQueryAt(snap, 0, id)
		if err != nil || len(rids) != 1 {
			log.Fatalf("account %v: %v", id, err)
		}
		rows, err := tb.FetchRows(rids, nil)
		if err != nil {
			log.Fatalf("account %v: %v", id, err)
		}
		return rows[0][1]
	}
	err = hermitdb.WithSnapshot(db, func(now *hermitdb.Snapshot) error {
		fmt.Printf("account 0: %3.0f before, %3.0f after\n", balance(before, 0), balance(now, 0))
		fmt.Printf("account 1: %3.0f before, %3.0f after\n", balance(before, 1), balance(now, 1))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// First committer wins: a stale transaction loses and applies nothing.
	x1, x2 := db.Begin(), db.Begin()
	if err := x1.Update(tb, 2, 1, 150); err != nil {
		log.Fatal(err)
	}
	if err := x2.Update(tb, 2, 1, 90); err != nil {
		log.Fatal(err)
	}
	if _, err := x1.Commit(); err != nil {
		log.Fatal(err)
	}
	if _, err := x2.Commit(); errors.Is(err, hermitdb.ErrWriteConflict) {
		fmt.Println("second writer aborted:", err)
	} else {
		log.Fatalf("expected a write conflict, got %v", err)
	}

	// Batches with mutations are one atomic transaction: the duplicate
	// insert below aborts the whole batch, so account 99 never appears.
	res := tb.ExecuteBatch([]hermitdb.Op{
		{Kind: hermitdb.OpInsert, Row: []float64{99, 1000}},
		{Kind: hermitdb.OpInsert, Row: []float64{3, 0}}, // duplicate id
	}, 2)
	fmt.Printf("atomic batch: op0 err=%v\n", res[0].Err)
	if rids, _, _ := tb.PointQuery(0, 99); len(rids) == 0 {
		fmt.Println("account 99 was rolled back with the failing batch")
	}
}
