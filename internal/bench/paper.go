package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// The paper's evaluation (§7: Figs. 4–30, Table 1 and the ablations) is
// one grid of trials and one table of results. A figure is a view: a
// function over a plot that names the trials its cells need (plot.get) and
// prints what they measured. It is drawn twice. The first pass, with its
// output discarded, collects its trials; the grid then runs the union of
// every drawn figure's trials; the second pass prints the tables and
// records one Row per cell it printed.
//
// The grid is walked one dataset at a time: each key is loaded once, every
// trial that reads it runs while it is resident, and then it is dropped.
// The indexes a trial builds stay on the dataset for the next, so Hermit,
// a complete B+-tree and a CM on the same column share one table, and each
// query names its access path. Only the trials that write (insert and
// reorg) load a private copy.

// figure is one table or figure of the paper.
type figure struct {
	id, title string
	draw      func(p *plot)
}

// Row is one cell a paper figure printed: the trial that measured it and
// what it measured. BENCH_paper.json holds one per cell.
type Row struct {
	Fig string `json:"fig"`
	trial
	Result
}

// plot is what a figure draws on: while collecting, get records the trial
// and returns zeros; while rendering, it returns the trial's results.
type plot struct {
	cfg     Config
	out     io.Writer
	fig     string
	trials  []trial            // collecting
	results map[trial][]Result // rendering
	rows    []Row              // rendering: the cells printed
	emitted map[trial]bool
}

func (p *plot) printf(format string, args ...any) { fmt.Fprintf(p.out, format, args...) }

// get returns trial t's result.
func (p *plot) get(t trial) Result { return p.all(t)[0] }

// all returns every result of trial t (the reorganization trace has one
// per tick).
func (p *plot) all(t trial) []Result {
	if p.results == nil {
		p.trials = append(p.trials, t)
		return []Result{{}}
	}
	rs, ok := p.results[t]
	if !ok {
		panic(fmt.Sprintf("bench: %s drew a trial it did not collect: %+v", p.fig, t))
	}
	if !p.emitted[t] {
		p.emitted[t] = true
		for _, r := range rs {
			p.rows = append(p.rows, Row{Fig: p.fig, trial: t, Result: r})
		}
	}
	return rs
}

// figureExperiments registers each figure as an experiment of its own.
func figureExperiments() []Experiment {
	out := make([]Experiment, len(figures))
	for i, f := range figures {
		out[i] = Experiment{f.id, f.title, func(cfg Config) error {
			_, _, err := runFigures(cfg, []figure{f})
			return err
		}}
	}
	return out
}

// runFigures collects the figures' trials, runs them as one grid, and
// prints the figures in order. It returns the printed cells and the
// datasets the grid loaded for reading, one entry per load.
func runFigures(cfg Config, figs []figure) ([]Row, []dataKey, error) {
	cfg = cfg.sanitized()
	var trials []trial
	for _, f := range figs {
		p := &plot{cfg: cfg, out: io.Discard, fig: f.id}
		f.draw(p)
		trials = append(trials, p.trials...)
	}
	results, loads, err := runGrid(cfg, trials)
	if err != nil {
		return nil, loads, err
	}
	var rows []Row
	for _, f := range figs {
		header(cfg.Out, f.id, f.title)
		p := &plot{cfg: cfg, out: cfg.Out, fig: f.id, results: results, emitted: map[trial]bool{}}
		f.draw(p)
		rows = append(rows, p.rows...)
	}
	return rows, loads, nil
}

// runGrid runs every distinct trial once, dataset-major: the keys in the
// order the trials first name them, and at most one dataset resident.
// Within a key, trials run in the order named, stably sorted by
// error_bound, so each TRS-Tree configuration is built once.
func runGrid(cfg Config, trials []trial) (map[trial][]Result, []dataKey, error) {
	var keys []dataKey
	byKey := map[dataKey][]trial{}
	for _, t := range trials {
		if _, seen := byKey[t.dataKey]; !seen {
			keys = append(keys, t.dataKey)
		}
		byKey[t.dataKey] = append(byKey[t.dataKey], t)
	}
	results := make(map[trial][]Result, len(trials))
	var loads []dataKey
	for _, k := range keys {
		ts := byKey[k]
		sort.SliceStable(ts, func(i, j int) bool { return ts[i].ErrorBound < ts[j].ErrorBound })
		d := &dataset{dataKey: k, cfg: cfg, loads: &loads}
		for _, t := range ts {
			if _, done := results[t]; done {
				continue
			}
			rs, err := d.run(t)
			if err != nil {
				d.close()
				return nil, loads, fmt.Errorf("%s %s trial on %+v: %w", t.Series, t.Measure, t.dataKey, err)
			}
			results[t] = rs
		}
		d.close()
	}
	return results, loads, nil
}

// paperReport is the schema of BENCH_paper.json.
type paperReport struct {
	Experiment   string  `json:"experiment"`
	Scale        float64 `json:"scale"`
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	MeasureForMS int64   `json:"measure_for_ms"`
	Seed         int64   `json:"seed"`
	Rows         []Row   `json:"rows,omitempty"`
}

// RunPaper draws every figure of the paper from one grid and, with
// cfg.JSONDir set, records BENCH_paper.json: the header and one row per
// printed cell.
func RunPaper(cfg Config) error {
	cfg = cfg.sanitized()
	rows, _, err := runFigures(cfg, figures)
	if err != nil || cfg.JSONDir == "" {
		return err
	}
	data, err := paperReport{
		Experiment:   "paper",
		Scale:        cfg.Scale,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		MeasureForMS: cfg.MeasureFor.Milliseconds(),
		Seed:         cfg.Seed,
	}.encode(rows)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.JSONDir, "BENCH_paper.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "[recorded %s]\n", path)
	return nil
}

// encode writes the header indented and each row on a line of its own.
func (rep paperReport) encode(rows []Row) ([]byte, error) {
	head, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.Write(head[:len(head)-2]) // up to the closing "\n}"
	b.WriteString(",\n  \"rows\": [\n")
	for i, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		b.WriteString("    ")
		b.Write(line)
		if i < len(rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("  ]\n}\n")
	return b.Bytes(), nil
}

// shape is one of the paper's shapes, asserted on BENCH_paper.json: in
// figure fig, every pair of rows that share a cell, the first of series a
// and the second of series b ("" is any series but a), satisfies want, and
// every cell has such a pair. cell names a row's cell; "" leaves it out.
type shape struct {
	fig, a, b string
	claim     string
	cell      func(Row) string
	want      func(x, y Row) bool
}

// shapes are the shapes CheckPaper asserts. Fig. 17's false-positive ratio
// is not asserted monotone in error_bound: its Sigmoid 7.5 % noise cell at
// error_bound 1 is an open anomaly (ROADMAP).
var shapes = []shape{
	{"fig19", seriesHermit, seriesBaseline, "Hermit's index is at most 1/5 of the complete B+-tree's",
		func(r Row) string { return fmt.Sprint(r.Fn, " ", r.Tuples, " tuples") },
		func(h, b Row) bool { return h.IndexBytes*5 <= b.IndexBytes }},
	{"fig18", seriesHermit, seriesHermit, "the TRS-Tree's bytes never fall as noise rises",
		func(r Row) string { return fmt.Sprint(r.Fn, " error_bound ", r.ErrorBound) },
		func(x, y Row) bool { return x.Noise >= y.Noise || x.IndexBytes <= y.IndexBytes }},
	{"fig5", seriesHermit, seriesBaseline, "Hermit's new indexes are at most 1/3 of the baseline's, and its total is below",
		func(r Row) string { return fmt.Sprint(r.K, " indexes") },
		func(h, b Row) bool { return h.IndexBytes*3 <= b.IndexBytes && h.totalBytes() < b.totalBytes() }},
	{"fig26", seriesHermit, seriesHermit, "at most 5 % of the days are TRS-Tree outliers",
		func(r Row) string {
			if r.Measure != measureMemory {
				return "" // the exactness trial
			}
			return "index"
		},
		func(x, _ Row) bool { return float64(x.Outliers) <= 0.05*float64(x.Tuples) }},
	{"fig28", seriesHermit, seriesBaseline, "Hermit's index is no larger than the complete B+-tree's", cmNoise(-1),
		func(h, b Row) bool { return h.IndexBytes <= b.IndexBytes }},
	{"fig30", seriesHermit, seriesBaseline, "Hermit's index is no larger than the complete B+-tree's", cmNoise(-1),
		func(h, b Row) bool { return h.IndexBytes <= b.IndexBytes }},
	{"fig27", seriesHermit, "CM-16", "Hermit answers at least twice CM-16's ranges per second", cmNoise(0.05),
		func(h, c Row) bool { return h.OpsPerSec >= 2*c.OpsPerSec }},
	{"fig29", seriesHermit, "CM-16", "Hermit answers at least twice CM-16's ranges per second", cmNoise(0.05),
		func(h, c Row) bool { return h.OpsPerSec >= 2*c.OpsPerSec }},
	{"tab1", seriesLinear, "", "linear regression trains in under 1/100 of an SVR kernel's time",
		func(r Row) string { return fmt.Sprint(r.Tuples, " tuples") },
		func(lr, svr Row) bool { return lr.NS*100 < svr.NS }},
}

// cmNoise is a Figs. 27–30 row's cell: its noise level, every level when
// noise is negative and only that one otherwise.
func cmNoise(noise float64) func(Row) string {
	return func(r Row) string {
		if noise >= 0 && r.Noise != noise {
			return ""
		}
		return fmt.Sprint("noise ", r.Noise)
	}
}

// CheckPaper validates BENCH_paper.json beyond the shared header: every
// figure of the paper has rows, and the shapes hold on them.
func CheckPaper(raw []byte) error {
	var rep paperReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("paper rows: %v", err)
	}
	byFig := map[string][]Row{}
	for _, r := range rep.Rows {
		byFig[r.Fig] = append(byFig[r.Fig], r)
	}
	for _, f := range figures {
		if len(byFig[f.id]) == 0 {
			return fmt.Errorf("%s: no rows", f.id)
		}
	}
	// Fig. 23's ticks count the tree's outliers: turnover, and a rebuild,
	// show as that count.
	for _, r := range byFig["fig23"] {
		if r.Outliers == 0 {
			return fmt.Errorf("fig23, tick %d: no outlier count", r.Tick)
		}
	}
	for _, s := range shapes {
		cells := map[string][]Row{}
		for _, r := range byFig[s.fig] {
			if c := s.cell(r); c != "" {
				cells[c] = append(cells[c], r)
			}
		}
		if len(cells) == 0 {
			return fmt.Errorf("%s: no cells for %q", s.fig, s.claim)
		}
		for c, rows := range cells {
			pairs := 0
			for _, x := range rows {
				for _, y := range rows {
					if x.Series != s.a || y.Series != s.b && (s.b != "" || y.Series == s.a) {
						continue
					}
					pairs++
					if !s.want(x, y) {
						xr, _ := json.Marshal(x.Result)
						yr, _ := json.Marshal(y.Result)
						return fmt.Errorf("%s, %s: want %s; %s measured %s, %s %s", s.fig, c, s.claim, x.Series, xr, y.Series, yr)
					}
				}
			}
			if pairs == 0 {
				return fmt.Errorf("%s, %s: no %s row to compare with %q", s.fig, c, s.a, s.b)
			}
		}
	}
	return nil
}
