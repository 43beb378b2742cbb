package bench

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"hermit/internal/cm"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/mlmodels"
	"hermit/internal/stats"
	"hermit/internal/storage"
	"hermit/internal/trstree"
	"hermit/internal/workload"
)

// dataKind names how a dataset of the grid is generated and loaded.
type dataKind string

const (
	// synthetic is workload.SyntheticSpec: a host B+-tree on colB, the
	// indexed target colC.
	synthetic dataKind = "synthetic"
	// multi is the table of Figs. 20 and 22: colA (pk), colB (the host) and
	// Width target columns, each its own linear function of colB.
	multi dataKind = "multi"
	// stock is workload.StockSpec with Width tickers: a host B+-tree on
	// every low price, the high prices the targets.
	stock dataKind = "stock"
	// sensor is workload.SensorSpec: a host B+-tree on the average, the
	// readings the targets.
	sensor dataKind = "sensor"
	// coldSensor is the sensor rows in a durable DB under logical pointers,
	// with the host index, Hermit and a complete B+-tree on reading 0 (its
	// one target), checkpointed into the 2 KiB pages of the block tier
	// (Fig. 24).
	coldSensor dataKind = "cold-sensor"
)

// dataKey names one dataset of the grid. With the run's seed it fixes every
// row; the grid loads each key once.
type dataKey struct {
	Kind dataKind `json:"data"`
	// Scheme is the pointer scheme's name. It is empty for a key only its
	// generated pairs are read from: no table is built for those.
	Scheme string `json:"scheme,omitempty"`
	// Fn is the Synthetic correlation's name.
	Fn     string  `json:"correlation,omitempty"`
	Tuples int     `json:"tuples"`
	Noise  float64 `json:"noise"` // injected noise; for stock, the crash probability
	Width  int     `json:"width,omitempty"`
}

// synth is the key of a Synthetic dataset.
func synth(scheme hermit.PointerScheme, rows int, fn workload.CorrelationKind, noise float64) dataKey {
	return dataKey{Kind: synthetic, Scheme: scheme.String(), Fn: fn.String(), Tuples: rows, Noise: noise}
}

// pairsOf is the key of Synthetic rows read as TRS-Tree pairs only.
func pairsOf(rows int, fn workload.CorrelationKind, noise float64) dataKey {
	return dataKey{Kind: synthetic, Fn: fn.String(), Tuples: rows, Noise: noise}
}

func (k dataKey) scheme() hermit.PointerScheme {
	if k.Scheme == hermit.LogicalPointers.String() {
		return hermit.LogicalPointers
	}
	return hermit.PhysicalPointers
}

func (k dataKey) fn() workload.CorrelationKind {
	if k.Fn == workload.Sigmoid.String() {
		return workload.Sigmoid
	}
	return workload.Linear
}

// source returns the dataset's columns, its primary-key column, the
// columns the loader builds host B+-trees on, and its row generator.
func (k dataKey) source(seed int64) (cols []string, pk int, hosts []int, gen func(func([]float64) error) error) {
	switch k.Kind {
	case stock:
		s := workload.StockSpec{Stocks: k.Width, Days: k.Tuples, Seed: seed, CrashProb: k.Noise}
		for i := 0; i < s.Stocks; i++ {
			hosts = append(hosts, s.LowCol(i))
		}
		return s.Columns(), s.PKCol(), hosts, s.Generate
	case sensor, coldSensor:
		s := workload.DefaultSensorSpec(k.Tuples)
		s.Seed = seed
		return s.Columns(), s.PKCol(), []int{s.AvgCol()}, s.Generate
	}
	s := workload.SyntheticSpec{Rows: k.Tuples, Fn: k.fn(), Noise: k.Noise, Seed: seed}
	if k.Kind == synthetic {
		return s.Columns(), s.PKCol(), []int{s.HostCol()}, s.Generate
	}
	cols = []string{"colA", "colB"}
	for i := 0; i < k.Width; i++ {
		cols = append(cols, fmt.Sprintf("colT%d", i))
	}
	row := make([]float64, len(cols))
	return cols, 0, []int{1}, func(fn func([]float64) error) error {
		return s.Generate(func(src []float64) error {
			row[0] = src[0]
			multiRow(row, src[1])
			return fn(row)
		})
	}
}

// multiRow fills a multi-column row from its host value: each target is
// its own linear function of colB.
func multiRow(row []float64, b float64) {
	row[1] = b
	for i := 2; i < len(row); i++ {
		row[i] = b*float64(i)/2 + float64(100*(i-2))
	}
}

// targets is how many columns of the dataset take a new index.
func (k dataKey) targets() int {
	switch k.Kind {
	case multi, stock:
		return k.Width
	case sensor:
		return workload.DefaultSensorSpec(0).Sensors
	}
	return 1
}

// target returns the i-th target column and its host.
func (k dataKey) target(i int) (col, host int) {
	switch k.Kind {
	case multi:
		return 2 + i, 1
	case stock:
		s := workload.StockSpec{}
		return s.HighCol(i), s.LowCol(i)
	case sensor, coldSensor:
		s := workload.DefaultSensorSpec(0)
		return s.ReadingCol(i), s.AvgCol()
	}
	s := workload.SyntheticSpec{}
	return s.TargetCol(), s.HostCol()
}

// measure names what a trial measures.
type measure string

const (
	// measureOps is queries per second through the series' index on every
	// target (point queries at selectivity 0), and that index's bytes.
	measureOps measure = "ops"
	// measurePhases is the per-phase time of Queries profiled queries.
	measurePhases measure = "phases"
	// measureCounts is the candidates and rows of Queries queries, every
	// answer checked against a scan of the column: a false negative fails
	// the trial.
	measureCounts measure = "counts"
	// measureMemory is the bytes of the series' indexes on the first K
	// targets, and of the table under them.
	measureMemory measure = "memory"
	// measureBuild is one index build: a TRS-Tree from the pairs (K
	// threads), or the Baseline's B+-tree.
	measureBuild measure = "build"
	// measureInsert is insert throughput with the series' index on every
	// target, on a private copy of the dataset.
	measureInsert measure = "insert"
	// measureReorg is Fig. 23's trace on a private copy: the table grows to
	// K rows under its Hermit index, then twelve timed ticks.
	measureReorg measure = "reorg"
	// measureCold is ranges answered from the block tier (Fig. 24).
	measureCold measure = "cold"
	// measureTrain is one model fit on the pairs (Table 1).
	measureTrain measure = "train"
)

// Series names.
const (
	seriesHermit   = "HERMIT"
	seriesBaseline = "Baseline"
	seriesLinear   = "Linear regression"
)

// treeVariants are the TRS-Tree parameter changes the ablation builds, by
// series name; a series not listed builds with the defaults.
var treeVariants = map[string]func(*trstree.Params){
	"sample_rate=0.00": func(p *trstree.Params) { p.SampleRate = 0 },
	"sample_rate=0.05": func(p *trstree.Params) { p.SampleRate = 0.05 },
	"union=true":       func(p *trstree.Params) { p.UnionRanges = true },
	"union=false":      func(p *trstree.Params) { p.UnionRanges = false },
	"single-leaf":      func(p *trstree.Params) { p.MaxHeight, p.OutlierRatio = 1, 1 },
}

// trial is one point of the grid: the dataset it reads and what it
// measures there. Trials are values, so a trial two figures name runs once.
type trial struct {
	dataKey
	Measure measure `json:"measure"`
	// Series is the mechanism ("HERMIT", "Baseline", "CM-<target
	// bucket>"), the model, or the TRS-Tree variant.
	Series     string  `json:"series,omitempty"`
	Sel        float64 `json:"selectivity,omitempty"`
	ErrorBound float64 `json:"error_bound,omitempty"` // 0 keeps the default
	K          int     `json:"k,omitempty"`           // indexes, build threads, or rows grown to
	HostBucket float64 `json:"host_bucket,omitempty"` // a CM's host bucket
	Queries    int     `json:"queries,omitempty"`     // 0: as many as Config.MeasureFor allows
	QuerySeed  int64   `json:"query_seed,omitempty"`  // added to the run's seed
}

// Result is what one trial measured: counts first, then timings.
type Result struct {
	IndexBytes    uint64  `json:"index_bytes,omitempty"`
	TableBytes    uint64  `json:"table_bytes,omitempty"` // the block files, for cold-sensor
	PrimaryBytes  uint64  `json:"primary_bytes,omitempty"`
	ExistingBytes uint64  `json:"existing_bytes,omitempty"`
	Candidates    int     `json:"candidates,omitempty"`
	Rows          int     `json:"rows,omitempty"`
	MaxCandidates int     `json:"max_candidates,omitempty"` // the most one query harvested
	FPRatio       float64 `json:"fp_ratio,omitempty"`       // 1 − rows/candidates
	Leaves        int     `json:"leaves,omitempty"`
	Outliers      int     `json:"outliers,omitempty"`
	PageReads     int     `json:"page_reads,omitempty"`
	HostRanges    int     `json:"host_ranges,omitempty"`
	Tick          int     `json:"tick,omitempty"`
	OverBudget    bool    `json:"over_budget,omitempty"`

	OpsPerSec float64   `json:"ops_per_s,omitempty"`
	Phases    []float64 `json:"phase_fractions,omitempty"`
	NS        int64     `json:"ns,omitempty"` // build or training time

	phases hermit.Breakdown // summed per-phase time, for totals over rows
}

// totalBytes is the footprint the paper's memory figures sum.
func (r Result) totalBytes() uint64 {
	return r.TableBytes + r.PrimaryBytes + r.ExistingBytes + r.IndexBytes
}

// pct returns phase i's share in percent (0 for a row without phases).
func (r Result) pct(i int) float64 {
	if i < len(r.Phases) {
		return 100 * r.Phases[i]
	}
	return 0
}

// fractions is each part's share of their sum (0s when it is 0).
func fractions[T ~int64 | ~uint64](parts ...T) []float64 {
	var total T
	for _, x := range parts {
		total += x
	}
	out := make([]float64, len(parts))
	for i, x := range parts {
		if total > 0 {
			out[i] = float64(x) / float64(total)
		}
	}
	return out
}

// dataset is one loaded key. Its table is loaded on the first trial that
// reads it, and the indexes trials ask for stay until the dataset is
// closed, so the trials on one key share them.
type dataset struct {
	dataKey
	cfg   Config
	loads *[]dataKey // the grid's record of shared loads; nil on a private copy
	tb    *engine.Table
	db    *engine.DB     // coldSensor
	dir   string         // coldSensor's directory, removed on close
	pairs []trstree.Pair // (colC, colB, row number) of the Synthetic rows
}

// privateCopy returns an unloaded copy of the dataset for a trial that
// writes.
func (d *dataset) privateCopy() *dataset { return &dataset{dataKey: d.dataKey, cfg: d.cfg} }

func (d *dataset) close() {
	if d.db != nil {
		d.db.Close()
		os.RemoveAll(d.dir)
	}
	d.tb, d.db, d.pairs = nil, nil, nil
}

// table loads the dataset on first use: the rows, then the host indexes
// (and a cold-sensor dataset's two target indexes and its checkpoint).
func (d *dataset) table() (*engine.Table, error) {
	if d.tb != nil {
		return d.tb, nil
	}
	if d.Scheme == "" {
		return nil, fmt.Errorf("bench: %s dataset has no table", d.Kind)
	}
	if d.loads != nil {
		*d.loads = append(*d.loads, d.dataKey)
	}
	cols, pk, hosts, gen := d.source(d.cfg.Seed)
	name := string(d.Kind)
	var err error
	if d.Kind == coldSensor {
		if d.dir, err = os.MkdirTemp(d.cfg.TmpDir, "hermit-disk-*"); err != nil {
			return nil, err
		}
		if d.db, err = engine.OpenDurable(d.dir, d.scheme()); err != nil {
			return nil, err
		}
		if d.tb, err = d.db.CreateTable(name, cols, pk); err == nil {
			err = gen(func(row []float64) error {
				_, err := d.db.Insert(name, row)
				return err
			})
		}
		col, host := d.target(0)
		for _, def := range []engine.IndexDef{{Kind: "btree", Col: host},
			{Kind: "hermit", Col: col, Host: host}, {Kind: "btree", Col: col, MarkNew: true}} {
			if err == nil {
				err = d.db.CreateIndex(name, def)
			}
		}
		if err == nil {
			err = d.db.Checkpoint()
		}
		return d.tb, err
	}
	tb, err := engine.NewDB(d.scheme()).CreateTable(name, cols, pk)
	if err != nil {
		return nil, err
	}
	if err := gen(func(row []float64) error {
		_, err := tb.Insert(row)
		return err
	}); err != nil {
		return nil, err
	}
	for _, h := range hosts {
		if _, err := tb.CreateBTreeIndex(h, false); err != nil {
			return nil, err
		}
	}
	d.tb = tb
	return tb, nil
}

// synthPairs returns the Synthetic rows as TRS-Tree pairs, generated on
// first use (no table is built for them).
func (d *dataset) synthPairs() ([]trstree.Pair, error) {
	if d.pairs != nil {
		return d.pairs, nil
	}
	pairs := make([]trstree.Pair, 0, d.Tuples)
	spec := workload.SyntheticSpec{Rows: d.Tuples, Fn: d.fn(), Noise: d.Noise, Seed: d.cfg.Seed}
	err := spec.Generate(func(row []float64) error {
		pairs = append(pairs, trstree.Pair{M: row[2], N: row[1], ID: uint64(len(pairs))})
		return nil
	})
	d.pairs = pairs
	return pairs, err
}

// index builds the series' index on each of the first k targets that lacks
// it and returns the access path that reads it, with the bytes of those k
// indexes (for Hermit, their TRS-Tree leaves and outliers too) and of the
// table under them.
func (d *dataset) index(t trial, k int) (engine.AccessPath, Result, error) {
	tb, err := d.table()
	if err != nil {
		return 0, Result{}, err
	}
	var r Result
	for i := 0; i < k; i++ {
		col, host := d.target(i)
		switch t.Series {
		case seriesHermit:
			hx, err := d.hermit(col, host, t.ErrorBound)
			if err != nil {
				return 0, r, err
			}
			st := hx.Tree().Stats()
			r.IndexBytes += hx.SizeBytes()
			r.Leaves += st.Leaves
			r.Outliers += st.Outliers
		case seriesBaseline:
			if tb.Secondary(col) == nil {
				if _, err := tb.CreateBTreeIndex(col, true); err != nil {
					return 0, r, err
				}
			}
			r.IndexBytes += tb.Secondary(col).SizeBytes()
		default: // every CM trial measures its own buckets: replace the column's CM
			c := cm.Config{HostBucket: t.HostBucket}
			if _, err := fmt.Sscanf(t.Series, "CM-%g", &c.TargetBucket); err != nil {
				return 0, r, fmt.Errorf("bench: unknown series %q", t.Series)
			}
			if tb.CM(col) != nil {
				if err := tb.DropIndex(col, engine.KindCM); err != nil {
					return 0, r, err
				}
			}
			cx, err := tb.CreateCMIndex(col, host, c)
			if err != nil {
				return 0, r, err
			}
			r.IndexBytes += cx.SizeBytes()
		}
	}
	m := tb.Memory()
	r.TableBytes, r.PrimaryBytes, r.ExistingBytes = m.TableBytes, m.PrimaryBytes, m.ExistingBytes
	switch t.Series {
	case seriesHermit:
		return engine.PathHermit, r, nil
	case seriesBaseline:
		return engine.PathBTree, r, nil
	}
	return engine.PathCM, r, nil
}

// hermit returns col's Hermit index built with error_bound eb (0: the
// default), replacing one built with another.
func (d *dataset) hermit(col, host int, eb float64) (*hermit.Index, error) {
	params := trstree.DefaultParams()
	if eb != 0 {
		params.ErrorBound = eb
	}
	if hx := d.tb.Hermit(col); hx != nil {
		if hx.Tree().Params().ErrorBound == params.ErrorBound {
			return hx, nil
		}
		if err := d.tb.DropIndex(col, engine.KindHermit); err != nil {
			return nil, err
		}
	}
	return d.tb.CreateHermitIndex(col, host, engine.WithParams(params))
}

// queries returns the trial's query stream through path: the i-th query
// goes to target i mod targets, each target with its own generator over
// its column's bounds ([0, SyntheticSpan] for Synthetic), seeded with the
// run's seed + QuerySeed + the target's number.
func (d *dataset) queries(t trial, path engine.AccessPath) (func(i int) engine.Query, error) {
	n := d.targets()
	cols := make([]int, n)
	gens := make([]func() workload.RangeQuery, n)
	for i := range gens {
		cols[i], _ = d.target(i)
		lo, hi := 0.0, workload.SyntheticSpan
		if d.Kind != synthetic {
			var ok bool
			if lo, hi, ok = d.tb.Store().ColumnBounds(cols[i]); !ok {
				return nil, fmt.Errorf("bench: empty %s table", d.Kind)
			}
		}
		// At selectivity 0 the ranges are points, drawn as PointGen draws.
		gens[i] = workload.QueryGen(lo, hi, t.Sel, d.cfg.Seed+t.QuerySeed+int64(i))
	}
	return func(i int) engine.Query {
		q := gens[i%n]()
		return engine.Query{Col: cols[i%n], Lo: q.Lo, Hi: q.Hi, Path: path}
	}, nil
}

// timed calls next n times, or for cfg.MeasureFor when n is 0, and returns
// the calls per second.
func timed(cfg Config, n int, next func(i int) error) (float64, error) {
	start := time.Now()
	i := 0
	for ; n > 0 && i < n || n == 0 && time.Since(start) < cfg.MeasureFor; i++ {
		if err := next(i); err != nil {
			return 0, err
		}
	}
	return float64(i) / time.Since(start).Seconds(), nil
}

// run runs one trial on the dataset. Most trials yield one result; the
// reorganization trace yields one per tick.
func (d *dataset) run(t trial) ([]Result, error) {
	var r Result
	var err error
	switch t.Measure {
	case measureInsert:
		r, err = d.privateCopy().insert(t)
	case measureReorg:
		return d.privateCopy().reorg(t)
	case measureBuild:
		r, err = d.build(t)
	case measureTrain:
		r, err = d.train(t)
	case measureMemory:
		_, r, err = d.index(t, t.K)
	case measureCold:
		r, err = d.cold(t)
	default:
		r, err = d.query(t)
	}
	return []Result{r}, err
}

// query runs an ops, phases or counts trial.
func (d *dataset) query(t trial) (Result, error) {
	path, r, err := d.index(t, d.targets())
	if err != nil {
		return r, err
	}
	next, err := d.queries(t, path)
	if err != nil {
		return r, err
	}
	tb := d.tb
	switch t.Measure {
	case measureOps:
		var rows []float64
		r.OpsPerSec, err = timed(d.cfg, t.Queries, func(i int) (err error) {
			rows, _, err = tb.Exec(next(i), rows[:0])
			return err
		})
		return r, err
	case measurePhases:
		tb.SetProfile(true)
		defer tb.SetProfile(false)
	}
	for i := 0; i < t.Queries; i++ {
		q := next(i)
		_, st, err := tb.Exec(q, nil)
		if err != nil {
			return r, err
		}
		r.phases.Add(st.Breakdown)
		r.Candidates += st.Candidates
		r.Rows += st.Rows
		r.MaxCandidates = max(r.MaxCandidates, st.Candidates)
		if t.Measure != measurePhases {
			want := 0
			tb.Store().ScanColumn(q.Col, func(_ storage.RID, v float64) bool {
				if v >= q.Lo && v <= q.Hi {
					want++
				}
				return true
			})
			if st.Rows != want {
				return r, fmt.Errorf("bench: [%g, %g] on column %d answered %d rows, a scan %d", q.Lo, q.Hi, q.Col, st.Rows, want)
			}
		}
	}
	if t.Measure == measurePhases {
		r.Phases = fractions(r.phases[:]...)
	}
	if r.Candidates > 0 {
		r.FPRatio = 1 - float64(r.Rows)/float64(r.Candidates)
	}
	return r, nil
}

// build times one index build: the Baseline's replaces the target's
// complete B+-tree; a TRS-Tree is built from a copy of the pairs with K
// workers (at most one: the sequential builder) and, when the trial has
// queries, looked up that many times to count host ranges.
func (d *dataset) build(t trial) (r Result, err error) {
	if t.Series == seriesBaseline {
		tb, err := d.table()
		if err != nil {
			return r, err
		}
		if col, _ := d.target(0); tb.Secondary(col) != nil {
			if err := tb.DropIndex(col, engine.KindBTree); err != nil {
				return r, err
			}
		}
		start := time.Now()
		_, r, err = d.index(t, 1)
		r.NS = int64(time.Since(start))
		return r, err
	}
	pairs, err := d.synthPairs()
	if err != nil {
		return r, err
	}
	params := trstree.DefaultParams()
	if vary := treeVariants[t.Series]; vary != nil {
		vary(&params)
	}
	cp := slices.Clone(pairs)
	start := time.Now()
	tr, err := trstree.BuildParallel(cp, 0, workload.SyntheticSpan, params, t.K)
	if err != nil {
		return r, err
	}
	r.NS = int64(time.Since(start))
	st := tr.Stats()
	r.Leaves, r.Outliers, r.IndexBytes = st.Leaves, st.Outliers, st.SizeBytes
	gen := workload.QueryGen(0, workload.SyntheticSpan, t.Sel, d.cfg.Seed+t.QuerySeed)
	for i := 0; i < t.Queries; i++ {
		q := gen()
		r.HostRanges += len(tr.Lookup(q.Lo, q.Hi).Ranges)
	}
	return r, nil
}

// insert measures profiled inserts of fresh keys into a multi-column
// table carrying the series' index on every target.
func (d *dataset) insert(t trial) (r Result, err error) {
	defer d.close()
	if _, _, err := d.index(t, d.targets()); err != nil {
		return r, err
	}
	tb := d.tb
	tb.SetProfile(true)
	row := make([]float64, 2+d.Width)
	first := float64(d.Tuples) + 1e6
	var sum engine.InsertStats
	r.OpsPerSec, err = timed(d.cfg, 0, func(i int) error {
		row[0] = first + float64(i)
		multiRow(row, 2*row[0]+100)
		_, st, err := tb.InsertProfiled(row)
		sum.Table += st.Table
		sum.Existing += st.Existing
		sum.New += st.New
		return err
	})
	r.Phases = fractions(sum.Table, sum.Existing, sum.New)
	return r, err
}

// reorg is Fig. 23: a Hermit index built on the small table, the table
// grown to t.K rows under it (so the tree is badly fitted), then twelve
// ticks of cfg.MeasureFor of range lookups, two first-level subtrees
// reorganized before every fourth. Each tick records the tree's bytes and
// outlier count, so that turnover and a rebuild show as counts.
func (d *dataset) reorg(t trial) ([]Result, error) {
	defer d.close()
	if _, _, err := d.index(t, 1); err != nil {
		return nil, err
	}
	tb, hx := d.tb, d.tb.Hermit(workload.SyntheticSpec{}.TargetCol())
	boot := d.Tuples
	spec := workload.SyntheticSpec{Rows: t.K, Fn: d.fn(), Noise: d.Noise, Seed: d.cfg.Seed + 1}
	i := 0
	if err := spec.Generate(func(row []float64) error {
		row[0] += float64(boot) // unique pks
		i++
		if i <= boot {
			return nil
		}
		_, err := tb.Insert(row)
		return err
	}); err != nil {
		return nil, err
	}
	next, err := d.queries(t, engine.PathHermit)
	if err != nil {
		return nil, err
	}
	fanout := trstree.DefaultParams().NodeFanout
	var out []Result
	var rows []float64
	subtree := 0
	for tick := 0; tick < 12; tick++ {
		if tick > 0 && tick%4 == 0 {
			for j := 0; j < 2; j++ {
				if err := hx.Tree().ReorgSubtree(subtree%fanout, hx.Source()); err != nil {
					return nil, err
				}
				subtree++
			}
		}
		ops, err := timed(d.cfg, 0, func(i int) (err error) {
			rows, _, err = tb.Exec(next(i), rows[:0])
			return err
		})
		if err != nil {
			return nil, err
		}
		st := hx.Tree().Stats()
		out = append(out, Result{Tick: tick, OpsPerSec: ops, IndexBytes: st.SizeBytes, Outliers: st.Outliers})
	}
	return out, nil
}

// coldQueries is how many ranges a cold trial counts and checks.
const coldQueries = 50

// cold measures ranges answered from the block tier through the series'
// index: throughput over the measurement window, then coldQueries ranges
// from a second stream (seed + 2) whose answers are checked against
// Table.Exec and whose candidates, rows and page reads are counted.
func (d *dataset) cold(t trial) (Result, error) {
	_, r, err := d.index(t, 1)
	if err != nil {
		return r, err
	}
	col, host := d.target(0)
	if t.Series != seriesHermit {
		host = -1
	}
	c := coldTable{d.db, d.tb, col, host}
	r.TableBytes = uint64(d.db.StorageStats().BlockBytes)
	next, err := d.queries(t, engine.PathAuto)
	if err != nil {
		return r, err
	}
	if r.OpsPerSec, err = timed(d.cfg, 0, func(i int) error {
		q := next(i)
		_, err := c.rangeQuery(q.Lo, q.Hi)
		return err
	}); err != nil {
		return r, err
	}
	t.QuerySeed += 2
	if next, err = d.queries(t, engine.PathAuto); err != nil {
		return r, err
	}
	width := len(d.tb.Columns())
	for i := 0; i < coldQueries; i++ {
		q := next(i)
		a, err := c.rangeQuery(q.Lo, q.Hi)
		if err != nil {
			return r, err
		}
		rows, _, err := d.tb.Exec(q, nil)
		if err != nil {
			return r, err
		}
		var want []float64
		for _, row := range engine.SplitRows(rows, width, nil) {
			want = append(want, row[0])
		}
		slices.Sort(want)
		if !slices.Equal(a.pks, want) {
			return r, fmt.Errorf("bench: cold answer for [%g, %g] has %d rows, the in-memory engine %d", q.Lo, q.Hi, len(a.pks), len(want))
		}
		if a.pageReads != a.candidates || host < 0 && a.candidates != len(a.pks) {
			return r, fmt.Errorf("bench: cold answer for [%g, %g]: %d rows, %d candidates, %d page reads", q.Lo, q.Hi, len(a.pks), a.candidates, a.pageReads)
		}
		r.Candidates += a.candidates
		r.Rows += len(a.pks)
		r.PageReads += a.pageReads
		r.MaxCandidates = max(r.MaxCandidates, a.candidates)
		r.phases.Add(a.breakdown)
	}
	r.Phases = fractions(r.phases[:]...)
	return r, nil
}

// svrKernels are Table 1's SVR rows.
var svrKernels = []mlmodels.KernelKind{mlmodels.KernelRBF, mlmodels.KernelLinear, mlmodels.KernelPoly}

func svrSeries(k mlmodels.KernelKind) string { return fmt.Sprintf("SVR (%s)", k) }

// svrBudget is Table 1's wall-clock cap on one SVR fit: the paper's 60 s,
// scaled with the datasets, and at least half a second.
func svrBudget(cfg Config) time.Duration {
	return max(time.Duration(float64(60*time.Second)*cfg.Scale*2), 500*time.Millisecond)
}

// train fits the series' model to the pairs, colC/SyntheticSpan against
// colB/10000, and records how long it took.
func (d *dataset) train(t trial) (r Result, err error) {
	pairs, err := d.synthPairs()
	if err != nil {
		return r, err
	}
	xs, ys := make([]float64, len(pairs)), make([]float64, len(pairs))
	for i, p := range pairs {
		xs[i], ys[i] = p.M/workload.SyntheticSpan, p.N/10000
	}
	start := time.Now()
	if t.Series == seriesLinear {
		_, err = stats.FitLinear(xs, ys)
	} else {
		err = fmt.Errorf("bench: unknown model %q", t.Series)
		for _, k := range svrKernels {
			if svrSeries(k) == t.Series {
				c := mlmodels.DefaultSVRConfig(k)
				c.Budget = svrBudget(d.cfg)
				_, err = mlmodels.TrainSVR(xs, ys, c)
			}
		}
	}
	r.NS = int64(time.Since(start))
	if errors.Is(err, mlmodels.ErrBudgetExceeded) {
		r.OverBudget, err = true, nil
	}
	return r, err
}

// coldAnswer is one range answered from the block tier, and what it cost.
type coldAnswer struct {
	pks        []float64 // qualifying primary keys, ascending
	candidates int       // distinct keys the index named
	pageReads  int       // pages BlockRead fetched for them
	breakdown  hermit.Breakdown
}

// coldTable is a checkpointed logical-pointer table queried on col with the
// indexes in memory and the rows in pages. host is the host column of
// col's Hermit index, which the query then reads; with host −1, or on a
// column without one, it reads col's complete B+-tree.
type coldTable struct {
	d         *engine.DB
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
	if hx := c.tb.Hermit(c.col); hx != nil && c.host >= 0 {
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
