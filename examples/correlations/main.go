// Correlations: the Appendix D.1 gallery (Fig. 25). Generates linear,
// sigmoid (monotonic) and sine (non-monotonic) column pairs, shows how
// Pearson and Spearman classify each, and demonstrates that the engine's
// auto index creation builds a Hermit index only where the correlation is
// usable — falling back to a complete B+-tree for the sine pair.
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
	// Table: pk, host (uniform driver), then one column per shape.
	cols := []string{"pk", "host", "linear", "sigmoid", "sine"}
	tb, err := db.CreateTable("gallery", cols, 0)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 100_000; i++ {
		x := rng.Float64() * 1000
		row := []float64{
			float64(i),
			x,
			hermitdb.Linear.Eval(x),
			hermitdb.Sigmoid.Eval(x),
			hermitdb.Sin.Eval(x),
		}
		if _, err := tb.Insert(row); err != nil {
			return err
		}
	}
	if _, err := tb.CreateBTreeIndex(1, false); err != nil {
		return err
	}

	fmt.Fprintln(w, "auto index creation per correlation shape (paper App. D.1):")
	for col := 2; col <= 4; col++ {
		kind, err := tb.CreateIndexAuto(col, hermitdb.DefaultDiscovery())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-8s -> %s index\n", cols[col], kind)
	}

	// All three are still exact, whatever mechanism was chosen.
	for col := 2; col <= 4; col++ {
		lo, hi, _ := tb.Store().ColumnBounds(col)
		mid := lo + (hi-lo)/2
		width := (hi - lo) * 0.02
		_, stats, err := tb.Exec(hermitdb.Query{Col: col, Lo: mid, Hi: mid + width}, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-8s range query: %d rows via %s (fp %.1f%%)\n",
			cols[col], stats.Rows, stats.Kind, stats.FalsePositiveRatio()*100)
	}
	return nil
}
