// Stock: the paper's running example (§3, Fig. 1). A STOCK_HISTORY-style
// wide table records daily low/high prices per ticker; an index exists on
// each low column, and queries like "during which periods did ticker X's
// high fall between Y and Z?" arrive on the unindexed high columns. Hermit
// answers them through the low-column indexes via TRS-Trees, buffering
// crash days (PG&E-style >50% moves) as outliers.
package main

import (
	"fmt"
	"log"

	hermitdb "hermit"
)

func main() {
	spec := hermitdb.StockSpec{Stocks: 20, Days: 15000, Seed: 7, CrashProb: 0.002}
	db := hermitdb.NewDB(hermitdb.LogicalPointers) // MySQL-style identifiers
	tb, err := db.CreateTable("stock_history", spec.Columns(), spec.PKCol())
	if err != nil {
		log.Fatal(err)
	}
	if err := spec.Generate(func(row []float64) error {
		_, err := tb.Insert(row)
		return err
	}); err != nil {
		log.Fatal(err)
	}

	// Pre-existing indexes on every low-price column.
	for i := 0; i < spec.Stocks; i++ {
		if _, err := tb.CreateBTreeIndex(spec.LowCol(i), false); err != nil {
			log.Fatal(err)
		}
	}
	// Hermit indexes on every high-price column, hosted on the lows.
	for i := 0; i < spec.Stocks; i++ {
		if _, err := tb.CreateHermitIndex(spec.HighCol(i), spec.LowCol(i)); err != nil {
			log.Fatal(err)
		}
	}

	// The paper's query: when did ticker 3's high sit between Y and Z?
	const ticker = 3
	lo, hi, _ := tb.Store().ColumnBounds(spec.HighCol(ticker))
	y := lo + (hi-lo)*0.40
	z := lo + (hi-lo)*0.45
	rows, stats, err := tb.Exec(hermitdb.Query{Col: spec.HighCol(ticker), Lo: y, Hi: z}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ticker %d high in [%.2f, %.2f]: %d trading days (fp ratio %.1f%%)\n",
		ticker, y, z, stats.Rows, stats.FalsePositiveRatio()*100)
	if stats.Rows > 0 {
		fmt.Printf("  first match: day=%.0f low=%.2f high=%.2f\n",
			rows[0], rows[spec.LowCol(ticker)], rows[spec.HighCol(ticker)])
	}

	// Crash days live in the outlier buffers.
	hx := tb.Hermit(spec.HighCol(ticker))
	st := hx.Tree().Stats()
	fmt.Printf("TRS-Tree for ticker %d: %d leaves, %d outliers (crash days), %.1f KB\n",
		ticker, st.Leaves, st.Outliers, float64(st.SizeBytes)/1024)

	// Fig. 5's space story across all 20 new indexes.
	m := tb.Memory()
	fmt.Printf("memory: table %.1f MB | existing (low) indexes %.1f MB | new (high) hermit indexes %.2f MB\n",
		mbf(m.TableBytes), mbf(m.ExistingBytes), mbf(m.NewBytes))
}

func mbf(b uint64) float64 { return float64(b) / (1 << 20) }
