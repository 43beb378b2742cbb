// Server: the network serving tier end to end, in one process — start an
// embedded hermitd Server over a durable database, dial it with the
// client package, and exercise the full wire surface: DDL, point/range
// queries, mutations, a pipelined read burst the server coalesces into
// batch executions, an atomic batch, and a snapshot-isolated transaction.
//
// In production the server side is the hermitd daemon (cmd/hermitd) and
// only the client half of this file runs in your process.
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
	dir, err := os.MkdirTemp("", "hermit-server-example")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Server side: open a durable database and serve it on a loopback
	// port. cmd/hermitd does exactly this behind flags.
	db, err := hermitdb.OpenDurable(dir, hermitdb.PhysicalPointers)
	if err != nil {
		return err
	}
	defer db.Close()
	srv := hermitdb.NewServer(db, hermitdb.ServerOptions{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(w, "serving on %s\n", srv.Addr())

	// Client side: one session, bound to the "demo" tenant namespace.
	conn, err := hermitdb.Dial(srv.Addr().String(), hermitdb.ClientOptions{Tenant: "demo"})
	if err != nil {
		return err
	}
	defer conn.Close()

	// DDL and data over the wire: a 4-way hash-partitioned table with a
	// B+-tree on the "price" column.
	if err := conn.CreateTable("trades", []string{"id", "price", "qty"}, 0, 4); err != nil {
		return err
	}
	for i := 0; i < 1000; i++ {
		row := []float64{float64(i), float64(100 + i%50), float64(1 + i%9)}
		if err := conn.Insert("trades", row); err != nil {
			return err
		}
	}

	rows, err := conn.Range("trades", 1, 100, 104)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "range price in [100,104]: %d rows\n", len(rows))

	// Pipelining: 100 point queries written in one burst. The server
	// coalesces adjacent reads into engine batch executions instead of
	// 100 lockstep round trips.
	p := conn.Pipeline()
	for i := 0; i < 100; i++ {
		p.Point("trades", 0, float64(i*7%1000))
	}
	results, err := p.Flush()
	if err != nil {
		return err
	}
	hits := 0
	for _, r := range results {
		hits += len(r.Rows)
	}
	fmt.Fprintf(w, "pipelined 100 point queries: %d hits, %d coalesced server-side\n",
		hits, srv.Stats().Coalesced)

	// An atomic batch: both mutations commit together or not at all.
	batch, err := conn.Batch([]hermitdb.ClientOp{
		{Kind: hermitdb.ClientOpInsert, Table: "trades", Row: []float64{5000, 120, 1}},
		{Kind: hermitdb.ClientOpDelete, Table: "trades", PK: 0},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "atomic batch: insert err=%v, delete found=%v\n", batch[0].Err, batch[1].Found)

	// A snapshot-isolated transaction over the wire, with the classic
	// conflict: a second session updates the same row first.
	tx, err := conn.Begin()
	if err != nil {
		return err
	}
	if err := tx.Update("trades", 1, 2, 99); err != nil {
		return err
	}
	rival, err := hermitdb.Dial(srv.Addr().String(), hermitdb.ClientOptions{Tenant: "demo"})
	if err != nil {
		return err
	}
	defer rival.Close()
	if err := rival.Update("trades", 1, 2, 42); err != nil {
		return err
	}
	err = tx.Commit()
	fmt.Fprintf(w, "conflicting commit rejected: %v\n", errors.Is(err, hermitdb.ErrConflict))

	st := srv.Stats()
	fmt.Fprintf(w, "server stats: %d requests over %d connections\n", st.Requests, st.Conns)
	return nil
}
