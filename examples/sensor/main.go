// Sensor: the paper's disk-based scenario (§7.2, §7.8) on the durable
// engine. Sixteen gas-sensor channels are each nonlinearly correlated with
// the average-reading column. A checkpoint writes every row into the 2 KiB
// pages of the block tier; the host index on the average and Hermit's
// TRS-Tree are memory-only, and a range query on an otherwise unindexed
// channel is routed through the average's index. A served table keeps its
// rows in memory as well, so the query validates there; the last step reads
// one answer back from its page, which is what `hermit-bench -exp fig24`
// does for every candidate.
package main

import (
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
	dir, err := os.MkdirTemp("", "hermit-sensor-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	db, err := hermitdb.OpenDurable(dir, hermitdb.LogicalPointers)
	if err != nil {
		return err
	}
	defer db.Close()

	spec := hermitdb.DefaultSensorSpec(200_000)
	tb, err := db.CreateTable("sensor", spec.Columns(), spec.PKCol())
	if err != nil {
		return err
	}
	if err := spec.Generate(func(row []float64) error {
		_, err := db.Insert("sensor", row)
		return err
	}); err != nil {
		return err
	}

	// Host index on the average column, then a Hermit index on sensor 5:
	// both logged, so recovery rebuilds them.
	sensor5 := spec.ReadingCol(5)
	for _, def := range []hermitdb.IndexDef{
		{Kind: "btree", Col: spec.AvgCol()},
		{Kind: "hermit", Col: sensor5, Host: spec.AvgCol()},
	} {
		if err := db.CreateIndex("sensor", def); err != nil {
			return err
		}
	}
	// The checkpoint flushes the rows into pages and publishes the epoch.
	if err := db.Checkpoint(); err != nil {
		return err
	}

	// "During which period did sensor 5 read between 40 and 60?"
	tb.SetProfile(true)
	rows, stats, err := tb.Exec(hermitdb.Query{Col: sensor5, Lo: 40, Hi: 60}, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sensor 5 in [40, 60]: %d rows (%d candidates) via %s\n", stats.Rows, stats.Candidates, stats.Kind)
	fr := stats.Breakdown.Fractions()
	fmt.Fprintf(w, "time breakdown: trs-tree %.1f%% | host index %.1f%% | primary index %.1f%% | validation %.1f%%\n",
		fr[0]*100, fr[1]*100, fr[2]*100, fr[3]*100)

	st := db.StorageStats()
	trs := tb.Hermit(sensor5).Tree()
	fmt.Fprintf(w, "footprint: %d blocks, %.1f MB on disk (%d entries) | TRS-Tree %.1f KB in memory\n",
		st.Blocks, float64(st.BlockBytes)/(1<<20), st.BlockEntries, float64(trs.SizeBytes())/1024)
	ts := trs.Stats()
	fmt.Fprintf(w, "TRS-Tree: height=%d leaves=%d outliers=%d\n", ts.Height, ts.Leaves, ts.Outliers)

	// The same row, from memory and from the page the checkpoint wrote.
	if stats.Rows > 0 {
		hot := rows[:len(spec.Columns())]
		cold, found, pages, err := db.BlockRead("sensor", hot[spec.PKCol()])
		if err != nil || !found {
			return fmt.Errorf("block read of key %v: found=%v err=%v", hot[spec.PKCol()], found, err)
		}
		fmt.Fprintf(w, "key %.0f: sensor 5 = %.2f in memory, %.2f in its page (%d page read, %d resident block bytes)\n",
			hot[spec.PKCol()], hot[sensor5], cold[sensor5], pages, db.StorageStats().BlockResidentBytes)
	}
	return nil
}
