// Quickstart: build a table, create a Hermit index on a correlated column,
// and compare its footprint and answers against a complete B+-tree index.
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
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
	tb, err := db.CreateTable("trades", []string{"id", "price", "fee"}, 0)
	if err != nil {
		return err
	}

	// The exchange charges ~0.3% of price, so "fee" is strongly correlated
	// with "price" — exactly the situation Hermit exploits.
	rng := rand.New(rand.NewSource(42))
	const rows = 200_000
	for i := 0; i < rows; i++ {
		price := 10 + rng.Float64()*990
		fee := price * 0.003
		if rng.Float64() < 0.01 { // promo days: fee waived — an outlier
			fee = 0
		}
		if _, err := tb.Insert([]float64{float64(i), price, fee}); err != nil {
			return err
		}
	}

	// A complete index already exists on price (the host column).
	if _, err := tb.CreateBTreeIndex(1, false); err != nil {
		return err
	}

	// Ask for an index on fee: the engine discovers the correlation and
	// builds a Hermit index instead of a second complete B+-tree.
	kind, err := tb.CreateIndexAuto(2, hermitdb.DefaultDiscovery())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "index on fee built as: %s\n", kind)

	// Query through it: fees between 1.50 and 1.53. The answer is the
	// matching rows themselves, three values each, back to back.
	hits, stats, err := tb.Exec(hermitdb.Query{Col: 2, Lo: 1.50, Hi: 1.53}, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "query fee in [1.50, 1.53]: %d rows (%d candidates fetched, %.1f%% false positives)\n",
		stats.Rows, stats.Candidates, stats.FalsePositiveRatio()*100)

	// Show a couple of matching rows.
	for i := 0; i < min(3, stats.Rows); i++ {
		r := hits[3*i : 3*i+3]
		fmt.Fprintf(w, "  id=%.0f price=%.2f fee=%.4f\n", r[0], r[1], r[2])
	}

	// The space story (paper Figs. 19–20): the Hermit index is a tiny
	// fraction of what a complete index on fee would cost.
	m := tb.Memory()
	fmt.Fprintf(w, "memory: table=%.1f MB, host index=%.1f MB, hermit index on fee=%.3f MB\n",
		mb(m.TableBytes), mb(m.ExistingBytes), mb(m.NewBytes))
	return nil
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }
