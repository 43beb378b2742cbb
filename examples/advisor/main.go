// Advisor: the paper's workflow made autonomous, on the Stock dataset.
// The table starts with complete indexes on the low-price columns only.
// Range queries arrive on a high-price column and are served by scans; the
// background advisor observes the query mix, discovers from samples that
// high correlates with low (daily bars), and auto-creates a succinct
// Hermit index — after which the cost-based planner routes the same
// queries through it. Explain shows the planner's costed decision at each
// stage.
package main

import (
	"fmt"
	"log"
	"time"

	hermitdb "hermit"
)

func main() {
	spec := hermitdb.StockSpec{Stocks: 8, Days: 20000, Seed: 7, CrashProb: 0.002}
	db := hermitdb.NewDB(hermitdb.PhysicalPointers)
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
	// Pre-existing indexes on the low columns; the highs are bare.
	for i := 0; i < spec.Stocks; i++ {
		if _, err := tb.CreateBTreeIndex(spec.LowCol(i), false); err != nil {
			log.Fatal(err)
		}
	}

	const ticker = 3
	high := spec.HighCol(ticker)
	lo, hi, _ := tb.Store().ColumnBounds(high)
	y := lo + (hi-lo)*0.40
	z := lo + (hi-lo)*0.45

	// Before: the planner has nothing better than a scan for this column.
	plan, err := tb.Explain(high, y, z)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before: planner serves %q queries via %s (est. cost %.0f units)\n",
		plan.Column, plan.Chosen, plan.Candidates[0].Cost)

	// Enable the advisor and keep querying; it needs to see real traffic
	// before it spends memory on an index.
	adv := db.EnableAdvisor(hermitdb.AdvisorOptions{
		Interval:   20 * time.Millisecond,
		MinQueries: 64,
	})
	defer adv.Stop()

	queries := 0
	start := time.Now()
	for len(adv.Actions()) == 0 {
		if time.Since(start) > 30*time.Second {
			log.Fatal("advisor did not act — is the dataset correlated?")
		}
		if _, _, err := tb.Exec(hermitdb.Query{Col: high, Lo: y, Hi: z}, nil); err != nil {
			log.Fatal(err)
		}
		queries++
	}
	act := adv.Actions()[0]
	host := "(none)" // Host is -1 for every action kind but create-hermit
	if act.Host >= 0 {
		host = spec.Columns()[act.Host]
	}
	fmt.Printf("advisor acted after %d queries (%.0f ms): %s on %q hosted by %q\n",
		queries, float64(time.Since(start).Microseconds())/1000,
		act.Kind, spec.Columns()[act.Col], host)
	fmt.Printf("  reason: %s\n", act.Reason)

	// After: the planner routes through the auto-created index; Explain
	// itemises every candidate path it beat.
	plan, err = tb.Explain(high, y, z)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after: planner serves %q via %s\n", plan.Column, plan.Chosen)
	for _, c := range plan.Candidates {
		if !c.Available {
			continue
		}
		fmt.Printf("  %-10s cost %8.0f units  est rows %5d  est candidates %5d\n",
			c.Path, c.Cost, c.EstRows, c.EstCandidates)
	}
	rows, stats, err := tb.Exec(hermitdb.Query{Col: high, Lo: y, Hi: z}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %d trading days matched via %s (fp ratio %.1f%%), %d values returned\n",
		stats.Rows, stats.Path, stats.FalsePositiveRatio()*100, len(rows))

	m := tb.Memory()
	fmt.Printf("memory: new (auto-created) indexes %.2f KB vs table %.1f MB\n",
		float64(m.NewBytes)/(1<<10), float64(m.TableBytes)/(1<<20))
}
