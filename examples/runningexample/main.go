// Running example: the paper's §3 walkthrough, end to end. A STOCK_HISTORY
// table has columns (TIME, DJ, SP, VOL) and a composite index on (TIME, DJ).
// The DBA asks for an index on (TIME, SP); the engine detects that SP is
// highly correlated with DJ, builds a TRS-Tree mapping SP -> DJ instead of
// a second complete composite index, and answers
//
//	SELECT * FROM STOCK_HISTORY
//	WHERE (TIME BETWEEN ? AND ?) AND (SP BETWEEN ? AND ?)
//
// through the (TIME, DJ) host index. The demo finishes with the §6
// fault-tolerance flow: WAL + checkpoint, crash, recovery.
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"

	hermitdb "hermit"
	"hermit/internal/engine"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays the walkthrough in a temporary directory, writing its report
// to w. Its output is the same from run to run.
func run(w io.Writer) error {
	dir, err := os.MkdirTemp("", "hermit-running-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	db, err := engine.OpenDurable(dir, hermitdb.PhysicalPointers)
	if err != nil {
		return err
	}
	if _, err := db.CreateTable("STOCK_HISTORY", []string{"TIME", "DJ", "SP", "VOL"}, 0); err != nil {
		return err
	}

	// 60 years of daily Dow-Jones and S&P-500 style indices: correlated in
	// most years, with occasional decoupled regime-shift days (Fig. 26).
	rng := rand.New(rand.NewSource(26))
	dj := 2500.0
	const days = 15000
	for day := 0; day < days; day++ {
		dj *= 1 + rng.NormFloat64()*0.01
		sp := dj/8 + rng.NormFloat64()*0.01
		if rng.Float64() < 0.002 {
			sp = rng.Float64() * dj / 4 // decoupled day
		}
		if _, err := db.Insert("STOCK_HISTORY", []float64{float64(day), dj, sp, rng.Float64() * 1e6}); err != nil {
			return err
		}
	}

	// The DBA has already created the composite index on (TIME, DJ).
	if err := db.CreateIndex("STOCK_HISTORY", engine.IndexDef{
		Kind: "composite-btree", ACol: 0, Col: 1,
	}); err != nil {
		return err
	}
	// Index request on (TIME, SP): served by a composite Hermit index that
	// models SP -> DJ and rides the existing (TIME, DJ) index.
	if err := db.CreateIndex("STOCK_HISTORY", engine.IndexDef{
		Kind: "composite-hermit", ACol: 0, Col: 2, Host: 1,
		Params: trstree.DefaultParams(),
	}); err != nil {
		return err
	}

	tb, _ := db.Table("STOCK_HISTORY")
	// Query window taken from the data *within the TIME window* so the demo
	// always has matches.
	spLo, spHi := math.Inf(1), math.Inf(-1)
	tb.Store().Scan(func(_ storage.RID, row []float64) bool {
		if row[0] >= 5000 && row[0] <= 8000 {
			spLo = math.Min(spLo, row[2])
			spHi = math.Max(spHi, row[2])
		}
		return true
	})
	qLo := spLo + (spHi-spLo)*0.40
	qHi := spLo + (spHi-spLo)*0.45
	query := func(label string) error {
		q := hermitdb.Query{Col: 0, Lo: 5000, Hi: 8000, And: &hermitdb.Pred{Col: 2, Lo: qLo, Hi: qHi}}
		_, stats, err := tb.Exec(q, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: TIME in [5000,8000] AND SP in [%.0f,%.0f] -> %d days (%d candidates, fp %.1f%%)\n",
			label, qLo, qHi, stats.Rows, stats.Candidates, stats.FalsePositiveRatio()*100)
		return nil
	}
	if err := query("before crash"); err != nil {
		return err
	}

	hx := tb.CompositeHermit(0, 2)
	st := hx.Tree().Stats()
	m := tb.Memory()
	fmt.Fprintf(w, "TRS-Tree on SP->DJ: %d leaves, %d outliers, %.1f KB (vs %.2f MB for the (TIME,DJ) host index)\n",
		st.Leaves, st.Outliers, float64(st.SizeBytes)/1024, float64(m.ExistingBytes)/(1<<20))

	// Fault tolerance (§6): checkpoint, more writes, crash, recover.
	if err := db.Checkpoint(); err != nil {
		return err
	}
	for day := days; day < days+100; day++ {
		dj *= 1 + rng.NormFloat64()*0.01
		if _, err := db.Insert("STOCK_HISTORY", []float64{float64(day), dj, dj / 8, 0}); err != nil {
			return err
		}
	}
	if err := db.Close(); err != nil { // "crash" after the WAL tail is on disk
		return err
	}

	recovered, err := engine.OpenDurable(dir, hermitdb.PhysicalPointers)
	if err != nil {
		return err
	}
	defer recovered.Close()
	tb, _ = recovered.Table("STOCK_HISTORY")
	fmt.Fprintf(w, "after recovery: %d rows (checkpoint + %d WAL-tail inserts)\n", tb.Len(), 100)
	return query("after recovery")
}
