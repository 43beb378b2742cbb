package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/storage"
	"hermit/internal/workload"
)

// appSelectivities are the x-axis of Figs. 4, 6 and 24 (1%–10%).
var appSelectivities = []float64{0.01, 0.025, 0.05, 0.075, 0.10}

// stockSpec scales the paper's Stock application (100 tickers, 15k+ days)
// to the run's scale. The ticker count shrinks with scale so index-count
// sweeps stay proportional; days keep a floor for meaningful selectivity.
func stockSpec(cfg Config) workload.StockSpec {
	spec := workload.DefaultStockSpec()
	stocks := int(float64(spec.Stocks) * cfg.Scale * 10)
	if stocks < 4 {
		stocks = 4
	}
	if stocks > spec.Stocks {
		stocks = spec.Stocks
	}
	spec.Stocks = stocks
	spec.Days = cfg.rows(spec.Days)
	spec.Seed = cfg.Seed
	return spec
}

// buildStock loads the Stock table and indexes every low-price column (the
// paper's pre-existing indexes).
func buildStock(cfg Config, scheme hermit.PointerScheme, spec workload.StockSpec) (*engine.Table, error) {
	db := engine.NewDB(scheme)
	tb, err := db.CreateTable("stock", spec.Columns(), spec.PKCol())
	if err != nil {
		return nil, err
	}
	tb.SetRouting(engine.RouteStatic) // figures name their mechanism; see buildSynthetic
	if err := spec.Generate(func(row []float64) error {
		_, err := tb.Insert(row)
		return err
	}); err != nil {
		return nil, err
	}
	for i := 0; i < spec.Stocks; i++ {
		if _, err := tb.CreateBTreeIndex(spec.LowCol(i), false); err != nil {
			return nil, err
		}
	}
	return tb, nil
}

// indexStockHighs builds the new indexes on every high-price column.
func indexStockHighs(tb *engine.Table, spec workload.StockSpec, useHermit bool, count int) error {
	for i := 0; i < count; i++ {
		if useHermit {
			if _, err := tb.CreateHermitIndex(spec.HighCol(i), spec.LowCol(i)); err != nil {
				return err
			}
		} else {
			if _, err := tb.CreateBTreeIndex(spec.HighCol(i), true); err != nil {
				return err
			}
		}
	}
	return nil
}

// Fig4RangeStock reproduces Fig. 4: Stock range lookup throughput vs
// selectivity under both pointer schemes.
func Fig4RangeStock(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "fig4", "Range lookup throughput vs selectivity (Stock)")
	spec := stockSpec(cfg)
	fmt.Fprintf(cfg.Out, "stocks=%d days=%d\n", spec.Stocks, spec.Days)
	for _, scheme := range schemes {
		fmt.Fprintf(cfg.Out, "-- %s pointers --\n", scheme)
		fmt.Fprintf(cfg.Out, "%-12s %14s %14s\n", "selectivity", "HERMIT", "Baseline")
		tbH, err := buildStock(cfg, scheme, spec)
		if err != nil {
			return err
		}
		if err := indexStockHighs(tbH, spec, true, spec.Stocks); err != nil {
			return err
		}
		tbB, err := buildStock(cfg, scheme, spec)
		if err != nil {
			return err
		}
		if err := indexStockHighs(tbB, spec, false, spec.Stocks); err != nil {
			return err
		}
		for _, sel := range appSelectivities {
			h, err := measureStockQueries(cfg, tbH, spec, sel)
			if err != nil {
				return err
			}
			b, err := measureStockQueries(cfg, tbB, spec, sel)
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, "%-12s %14s %14s\n",
				fmt.Sprintf("%.1f%%", sel*100), fmtKops(h), fmtKops(b))
		}
	}
	return nil
}

// measureStockQueries rotates "highest price between Y and Z" queries over
// all tickers.
func measureStockQueries(cfg Config, tb *engine.Table, spec workload.StockSpec, sel float64) (float64, error) {
	lo, hi, ok := tb.Store().ColumnBounds(spec.HighCol(0))
	if !ok {
		return 0, fmt.Errorf("bench: empty stock table")
	}
	gen := workload.QueryGen(lo, hi, sel, cfg.Seed+21)
	start := time.Now()
	ops := 0
	for time.Since(start) < cfg.MeasureFor {
		q := gen()
		col := spec.HighCol(ops % spec.Stocks)
		if _, _, err := tb.RangeQuery(col, q.Lo, q.Hi); err != nil {
			return 0, err
		}
		ops++
	}
	return float64(ops) / time.Since(start).Seconds(), nil
}

// Fig5MemoryStock reproduces Fig. 5: memory vs number of indexes plus the
// space breakdown.
func Fig5MemoryStock(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "fig5", "Memory consumption vs number of indexes (Stock)")
	spec := stockSpec(cfg)
	counts := []int{spec.Stocks / 4, spec.Stocks / 2, spec.Stocks * 3 / 4, spec.Stocks}
	fmt.Fprintf(cfg.Out, "%-10s %14s %14s\n", "indexes", "HERMIT", "Baseline")
	var lastH, lastB engine.MemoryStats
	for _, k := range counts {
		if k < 1 {
			k = 1
		}
		tbH, err := buildStock(cfg, hermit.PhysicalPointers, spec)
		if err != nil {
			return err
		}
		if err := indexStockHighs(tbH, spec, true, k); err != nil {
			return err
		}
		tbB, err := buildStock(cfg, hermit.PhysicalPointers, spec)
		if err != nil {
			return err
		}
		if err := indexStockHighs(tbB, spec, false, k); err != nil {
			return err
		}
		lastH, lastB = tbH.Memory(), tbB.Memory()
		fmt.Fprintf(cfg.Out, "%-10d %14s %14s\n", k,
			fmtBytes(lastH.Total()), fmtBytes(lastB.Total()))
	}
	printSpaceBreakdown(cfg, lastH, lastB)
	return nil
}

func printSpaceBreakdown(cfg Config, h, b engine.MemoryStats) {
	frac := func(m engine.MemoryStats) (float64, float64, float64) {
		tot := float64(m.Total())
		if tot == 0 {
			return 0, 0, 0
		}
		return float64(m.TableBytes+m.PrimaryBytes) / tot * 100,
			float64(m.ExistingBytes) / tot * 100,
			float64(m.NewBytes) / tot * 100
	}
	ht, he, hn := frac(h)
	bt, be, bn := frac(b)
	fmt.Fprintf(cfg.Out, "space breakdown (table / existing idx / new idx):\n")
	fmt.Fprintf(cfg.Out, "  HERMIT   %.1f%% / %.1f%% / %.1f%%\n", ht, he, hn)
	fmt.Fprintf(cfg.Out, "  Baseline %.1f%% / %.1f%% / %.1f%%\n", bt, be, bn)
}

// paperSensorRows is the dataset size of the Sensor application.
const paperSensorRows = 4_208_260

// buildSensor loads the Sensor table with the host index on the average
// column.
func buildSensor(cfg Config, scheme hermit.PointerScheme, rowsN int) (*engine.Table, workload.SensorSpec, error) {
	spec := workload.DefaultSensorSpec(rowsN)
	spec.Seed = cfg.Seed
	db := engine.NewDB(scheme)
	tb, err := db.CreateTable("sensor", spec.Columns(), spec.PKCol())
	if err != nil {
		return nil, spec, err
	}
	tb.SetRouting(engine.RouteStatic) // figures name their mechanism; see buildSynthetic
	if err := spec.Generate(func(row []float64) error {
		_, err := tb.Insert(row)
		return err
	}); err != nil {
		return nil, spec, err
	}
	if _, err := tb.CreateBTreeIndex(spec.AvgCol(), false); err != nil {
		return nil, spec, err
	}
	return tb, spec, nil
}

// indexSensorReadings builds the new indexes on every reading column.
func indexSensorReadings(tb *engine.Table, spec workload.SensorSpec, useHermit bool) error {
	for i := 0; i < spec.Sensors; i++ {
		if useHermit {
			if _, err := tb.CreateHermitIndex(spec.ReadingCol(i), spec.AvgCol()); err != nil {
				return err
			}
		} else {
			if _, err := tb.CreateBTreeIndex(spec.ReadingCol(i), true); err != nil {
				return err
			}
		}
	}
	return nil
}

// Fig6RangeSensor reproduces Fig. 6.
func Fig6RangeSensor(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "fig6", "Range lookup throughput vs selectivity (Sensor)")
	n := cfg.rows(paperSensorRows)
	fmt.Fprintf(cfg.Out, "rows=%d sensors=16\n", n)
	for _, scheme := range schemes {
		fmt.Fprintf(cfg.Out, "-- %s pointers --\n", scheme)
		fmt.Fprintf(cfg.Out, "%-12s %14s %14s\n", "selectivity", "HERMIT", "Baseline")
		tbH, spec, err := buildSensor(cfg, scheme, n)
		if err != nil {
			return err
		}
		if err := indexSensorReadings(tbH, spec, true); err != nil {
			return err
		}
		tbB, _, err := buildSensor(cfg, scheme, n)
		if err != nil {
			return err
		}
		if err := indexSensorReadings(tbB, spec, false); err != nil {
			return err
		}
		for _, sel := range appSelectivities {
			h, err := measureSensorQueries(cfg, tbH, spec, sel)
			if err != nil {
				return err
			}
			b, err := measureSensorQueries(cfg, tbB, spec, sel)
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, "%-12s %14s %14s\n",
				fmt.Sprintf("%.1f%%", sel*100), fmtKops(h), fmtKops(b))
		}
	}
	return nil
}

func measureSensorQueries(cfg Config, tb *engine.Table, spec workload.SensorSpec, sel float64) (float64, error) {
	// Each channel has its own scale, so queries are generated per-channel
	// to keep the selectivity comparable across the rotation.
	gens := make([]func() workload.RangeQuery, spec.Sensors)
	for i := range gens {
		lo, hi, ok := tb.Store().ColumnBounds(spec.ReadingCol(i))
		if !ok {
			return 0, fmt.Errorf("bench: empty sensor table")
		}
		gens[i] = workload.QueryGen(lo, hi, sel, cfg.Seed+23+int64(i))
	}
	start := time.Now()
	ops := 0
	for time.Since(start) < cfg.MeasureFor {
		s := ops % spec.Sensors
		q := gens[s]()
		if _, _, err := tb.RangeQuery(spec.ReadingCol(s), q.Lo, q.Hi); err != nil {
			return 0, err
		}
		ops++
	}
	return float64(ops) / time.Since(start).Seconds(), nil
}

// sensorTupleCounts is the Fig. 7 x-axis (millions of tuples).
var sensorTupleCounts = []int{1_000_000, 2_000_000, 3_000_000, 4_000_000}

// Fig7MemorySensor reproduces Fig. 7.
func Fig7MemorySensor(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "fig7", "Memory consumption vs number of tuples (Sensor)")
	fmt.Fprintf(cfg.Out, "%-12s %14s %14s\n", "tuples", "HERMIT", "Baseline")
	var lastH, lastB engine.MemoryStats
	for _, paperN := range sensorTupleCounts {
		n := cfg.rows(paperN)
		tbH, spec, err := buildSensor(cfg, hermit.PhysicalPointers, n)
		if err != nil {
			return err
		}
		if err := indexSensorReadings(tbH, spec, true); err != nil {
			return err
		}
		tbB, _, err := buildSensor(cfg, hermit.PhysicalPointers, n)
		if err != nil {
			return err
		}
		if err := indexSensorReadings(tbB, spec, false); err != nil {
			return err
		}
		lastH, lastB = tbH.Memory(), tbB.Memory()
		fmt.Fprintf(cfg.Out, "%-12d %14s %14s\n", n,
			fmtBytes(lastH.Total()), fmtBytes(lastB.Total()))
	}
	printSpaceBreakdown(cfg, lastH, lastB)
	return nil
}

// Fig24Disk reproduces Fig. 24 (§7.8: TRS-Tree in memory, what it resolves
// against on disk) on the engine that serves. Two durable databases under
// logical pointers hold the same Sensor rows — host B+-tree on the average
// plus Hermit on reading 0 in one, a complete B+-tree on reading 0 in the
// other — and one checkpoint puts every row in 2 KiB pages of the block
// tier. A range is answered by coldTable.rangeQuery: indexes in memory,
// every row it validates read back from a page. Throughput and the
// Fig. 24b breakdown are timings; candidates, rows and page reads are
// counts, and every counted answer is compared with Table.RangeQuery on
// the same table.
func Fig24Disk(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "fig24", "Disk-based range lookup and breakdown (Sensor)")
	dir := cfg.TmpDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "hermit-disk-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	n := cfg.rows(paperSensorRows / 4)
	spec := workload.DefaultSensorSpec(n)
	spec.Seed = cfg.Seed
	col, host := spec.ReadingCol(0), spec.AvgCol()
	build := func(sub string, defs ...engine.IndexDef) (coldTable, error) {
		d, err := engine.OpenDurable(filepath.Join(dir, sub), hermit.LogicalPointers)
		if err != nil {
			return coldTable{}, err
		}
		tb, err := d.CreateTable("sensor", spec.Columns(), spec.PKCol())
		if err == nil {
			err = spec.Generate(func(row []float64) error {
				_, err := d.Insert("sensor", row)
				return err
			})
		}
		for _, def := range defs {
			if err == nil {
				err = d.CreateIndex("sensor", def)
			}
		}
		if err == nil {
			err = d.Checkpoint()
		}
		if err != nil {
			d.Close()
			return coldTable{}, err
		}
		return coldTable{d, tb, col, host}, nil
	}
	hx, err := build("hermit",
		engine.IndexDef{Kind: "btree", Col: host}, engine.IndexDef{Kind: "hermit", Col: col, Host: host})
	if err != nil {
		return err
	}
	defer hx.d.Close()
	base, err := build("baseline", engine.IndexDef{Kind: "btree", Col: col, MarkNew: true})
	if err != nil {
		return err
	}
	defer base.d.Close()
	dLo, dHi, ok := hx.tb.Store().ColumnBounds(col)
	if !ok {
		return fmt.Errorf("bench: empty sensor table")
	}
	fmt.Fprintf(cfg.Out, "rows=%d in %s of 2 KiB pages; TRS-Tree %s in memory\n",
		n, fmtBytes(uint64(hx.d.StorageStats().BlockBytes)), fmtBytes(hx.tb.Hermit(col).SizeBytes()))
	measure := func(c coldTable, sel float64) (float64, error) {
		gen := workload.QueryGen(dLo, dHi, sel, cfg.Seed+31)
		start := time.Now()
		ops := 0
		for time.Since(start) < cfg.MeasureFor {
			q := gen()
			if _, err := c.rangeQuery(q.Lo, q.Hi); err != nil {
				return 0, err
			}
			ops++
		}
		return float64(ops) / time.Since(start).Seconds(), nil
	}
	// counted answers the same coldQueries ranges on one table, checks each
	// answer against the in-memory engine, and sums what it cost.
	const coldQueries = 50
	counted := func(c coldTable, sel float64) (sum coldAnswer, err error) {
		gen := workload.QueryGen(dLo, dHi, sel, cfg.Seed+33)
		for i := 0; i < coldQueries; i++ {
			q := gen()
			a, err := c.rangeQuery(q.Lo, q.Hi)
			if err != nil {
				return sum, err
			}
			rids, _, err := c.tb.RangeQuery(col, q.Lo, q.Hi)
			if err != nil {
				return sum, err
			}
			want := make([]float64, len(rids))
			for j, rid := range rids {
				if want[j], err = c.tb.Store().Value(rid, spec.PKCol()); err != nil {
					return sum, err
				}
			}
			slices.Sort(want)
			if !slices.Equal(a.pks, want) {
				return sum, fmt.Errorf("bench: fig24 cold answer for [%g, %g] has %d rows, the in-memory engine %d",
					q.Lo, q.Hi, len(a.pks), len(want))
			}
			sum.add(a)
		}
		return sum, nil
	}
	fmt.Fprintf(cfg.Out, "%-12s %12s %12s %7s | %10s %8s %10s %8s\n",
		"selectivity", "HERMIT", "Baseline", "ratio", "candidates", "rows", "page reads", "fp share")
	var total coldAnswer
	for _, sel := range appSelectivities {
		var ops [2]float64 // Hermit, baseline
		var sum [2]coldAnswer
		for i, c := range []coldTable{hx, base} {
			var err error
			if ops[i], err = measure(c, sel); err != nil {
				return err
			}
			if sum[i], err = counted(c, sel); err != nil {
				return err
			}
		}
		h, b, ch, cb := ops[0], ops[1], sum[0], sum[1]
		if !slices.Equal(ch.pks, cb.pks) || ch.pageReads != ch.candidates || cb.candidates != len(cb.pks) {
			return fmt.Errorf("bench: fig24 at %.1f%%: hermit %d rows / %d candidates / %d page reads, baseline %d rows / %d candidates",
				sel*100, len(ch.pks), ch.candidates, ch.pageReads, len(cb.pks), cb.candidates)
		}
		fmt.Fprintf(cfg.Out, "%-12s %8.2f ops %8.2f ops %6.2fx | %10d %8d %10d %7.1f%%\n",
			fmt.Sprintf("%.1f%%", sel*100), h, b, h/b, ch.candidates, len(ch.pks), ch.pageReads,
			100*float64(ch.pageReads-len(ch.pks))/float64(max(ch.pageReads, 1)))
		total.add(ch)
	}
	// Breakdown panel (Fig. 24b): TRS-Tree vs index vs validation.
	fr := total.breakdown.Fractions()
	fmt.Fprintf(cfg.Out, "hermit breakdown: trs-tree %.1f%% / index %.1f%% / validation %.1f%%\n",
		fr[hermit.PhaseTRSTree]*100, fr[hermit.PhaseHostIndex]*100, fr[hermit.PhaseBaseTable]*100)
	fmt.Fprintf(cfg.Out, "hermit counts: candidates=%d rows=%d page reads=%d (%.2f per candidate)\n",
		total.candidates, len(total.pks), total.pageReads, float64(total.pageReads)/float64(max(total.candidates, 1)))
	fmt.Fprintf(cfg.Out, "exact: %d/%d cold answers per table equal Table.RangeQuery, hermit rows = baseline rows\n",
		coldQueries*len(appSelectivities), coldQueries*len(appSelectivities))
	return nil
}

// coldAnswer is one range answered from the block tier, and what it cost.
type coldAnswer struct {
	pks        []float64 // qualifying primary keys, ascending
	candidates int       // distinct keys the index named
	pageReads  int       // pages BlockRead fetched for them
	breakdown  hermit.Breakdown
}

func (a *coldAnswer) add(b coldAnswer) {
	a.pks = append(a.pks, b.pks...)
	a.candidates += b.candidates
	a.pageReads += b.pageReads
	a.breakdown.Add(b.breakdown)
}

// coldTable is a checkpointed logical-pointer table queried on col with the
// indexes in memory and the rows in pages; host is the host column of col's
// Hermit index, when that is the index it has.
type coldTable struct {
	d         *engine.DurableDB
	tb        *engine.Table
	col, host int
}

// rangeQuery answers lo <= col <= hi: primary keys harvested through the
// index col has (a Hermit index's TRS-Tree ranges resolved on the host tree
// plus its outliers, or the complete tree), sorted and deduplicated, each
// row fetched with BlockRead and the predicate checked on the row the page
// returned. A key the tier no longer holds is skipped; an I/O error fails
// the query — a candidate is never silently dropped.
func (c coldTable) rangeQuery(lo, hi float64) (a coldAnswer, err error) {
	var ids []uint64
	collect := func(_ float64, id uint64) bool {
		ids = append(ids, id)
		return true
	}
	t0 := time.Now()
	if hx := c.tb.Hermit(c.col); hx != nil {
		res := hx.Tree().Lookup(lo, hi)
		a.breakdown[hermit.PhaseTRSTree] = time.Since(t0)
		t0 = time.Now()
		ids = res.IDs
		for _, r := range res.Ranges {
			c.tb.Secondary(c.host).Scan(r.Lo, r.Hi, collect)
		}
	} else {
		c.tb.Secondary(c.col).Scan(lo, hi, collect)
	}
	a.breakdown[hermit.PhaseHostIndex] = time.Since(t0)
	t0 = time.Now()
	slices.Sort(ids)
	ids = slices.Compact(ids)
	a.candidates = len(ids)
	for _, id := range ids {
		pk := hermit.LogicalKey(id)
		row, found, probed, err := c.d.BlockRead(c.tb.Name(), pk)
		a.pageReads += probed
		if err != nil {
			return a, err
		}
		if found && row[c.col] >= lo && row[c.col] <= hi {
			a.pks = append(a.pks, pk)
		}
	}
	a.breakdown[hermit.PhaseBaseTable] = time.Since(t0)
	return a, nil
}

// Fig26Outliers reproduces Fig. 26's point: a TRS-Tree over two correlated
// market indices (Dow-Jones vs S&P-500 style) captures regime-shift days
// as outliers and still answers exactly.
func Fig26Outliers(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "fig26", "Outlier capture on correlated stock indices")
	spec := workload.StockSpec{Stocks: 1, Days: cfg.rows(15000), Seed: cfg.Seed, CrashProb: 0.004}
	tb, err := buildStock(cfg, hermit.PhysicalPointers, spec)
	if err != nil {
		return err
	}
	hx, err := tb.CreateHermitIndex(spec.HighCol(0), spec.LowCol(0))
	if err != nil {
		return err
	}
	st := hx.Tree().Stats()
	fmt.Fprintf(cfg.Out, "days=%d leaves=%d outliers=%d (%.2f%% of tuples) index=%s\n",
		spec.Days, st.Leaves, st.Outliers,
		float64(st.Outliers)/float64(spec.Days)*100, fmtBytes(hx.SizeBytes()))
	// Exactness check across the domain.
	lo, hi, _ := tb.Store().ColumnBounds(spec.HighCol(0))
	gen := workload.QueryGen(lo, hi, 0.05, cfg.Seed+41)
	bad := 0
	for i := 0; i < 50; i++ {
		q := gen()
		rids, _, err := tb.RangeQuery(spec.HighCol(0), q.Lo, q.Hi)
		if err != nil {
			return err
		}
		want := 0
		tb.Store().ScanColumn(spec.HighCol(0), func(_ storage.RID, v float64) bool {
			if v >= q.Lo && v <= q.Hi {
				want++
			}
			return true
		})
		if len(rids) != want {
			bad++
		}
	}
	fmt.Fprintf(cfg.Out, "exactness: %d/50 queries verified against full scans\n", 50-bad)
	if bad > 0 {
		return fmt.Errorf("bench: fig26 found %d inexact queries", bad)
	}
	return nil
}
