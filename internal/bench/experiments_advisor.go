package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/workload"
)

// The advisor experiment measures the self-tuning loop end to end: a table
// starts with only the host index, range queries on the correlated target
// column are served by scans, the background advisor discovers the
// correlation from samples and auto-creates a Hermit index, and the planner
// re-routes. Reported: query throughput before and after auto-indexing,
// and the convergence time (wall clock and queries served) from enabling
// the advisor to its first action. Results land in BENCH_advisor.json.

// advisorActionReport summarises the advisor's decision.
type advisorActionReport struct {
	Kind         string  `json:"kind"`
	Col          int     `json:"col"`
	Host         int     `json:"host"`
	Pearson      float64 `json:"pearson"`
	OutlierRatio float64 `json:"outlier_ratio"`
}

// advisorReport is the schema of BENCH_advisor.json.
type advisorReport struct {
	Experiment         string              `json:"experiment"`
	Rows               int                 `json:"rows"`
	Scale              float64             `json:"scale"`
	NumCPU             int                 `json:"num_cpu"`
	GOMAXPROCS         int                 `json:"gomaxprocs"`
	MeasureForMS       int64               `json:"measure_for_ms"`
	Seed               int64               `json:"seed"`
	BeforeOpsPerSec    float64             `json:"before_ops_per_sec"`
	AfterOpsPerSec     float64             `json:"after_ops_per_sec"`
	Speedup            float64             `json:"speedup"`
	ConvergenceMS      float64             `json:"convergence_ms"`
	QueriesToConverge  int                 `json:"queries_to_converge"`
	Action             advisorActionReport `json:"action"`
	PlannerChosenAfter string              `json:"planner_chosen_after"`
}

// advisorConvergeTimeout bounds the convergence wait so a misconfigured run
// fails loudly instead of spinning.
const advisorConvergeTimeout = 30 * time.Second

// RunAdvisor drives the advisor experiment.
func RunAdvisor(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "advisor", "Self-tuning: advisor auto-indexing and planner re-routing")
	n := cfg.rows(2_000_000)

	// Deliberately NOT pinned to static routing: this experiment measures
	// the planner+advisor loop itself.
	db := engine.NewDB(hermit.PhysicalPointers)
	spec := workload.SyntheticSpec{Rows: n, Fn: workload.Linear, Noise: 0.01, Seed: cfg.Seed}
	tb, err := db.CreateTable("synthetic", spec.Columns(), spec.PKCol())
	if err != nil {
		return err
	}
	if err := spec.Generate(func(row []float64) error {
		_, err := tb.Insert(row)
		return err
	}); err != nil {
		return err
	}
	if _, err := tb.CreateBTreeIndex(spec.HostCol(), false); err != nil {
		return err
	}

	rep := advisorReport{
		Experiment:   "advisor",
		Rows:         n,
		Scale:        cfg.Scale,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		MeasureForMS: cfg.MeasureFor.Milliseconds(),
		Seed:         cfg.Seed,
	}
	fmt.Fprintf(cfg.Out, "rows=%d target=col%d (unindexed, correlated with indexed col%d)\n",
		n, spec.TargetCol(), spec.HostCol())

	sel := 0.01
	rep.BeforeOpsPerSec, err = measureRange(cfg, tb, spec.TargetCol(), engine.PathAuto, 0, workload.SyntheticSpan, sel)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "before auto-indexing (scan path): %s\n", fmtKops(rep.BeforeOpsPerSec))

	// Enable the advisor in the background and serve queries until it acts.
	opts := engine.AdvisorOptions{
		Interval:   20 * time.Millisecond,
		MinQueries: 64,
		SampleSize: 2000,
		Seed:       cfg.Seed,
	}
	start := time.Now()
	adv := db.EnableAdvisor(opts)
	defer adv.Stop()
	gen := workload.QueryGen(0, workload.SyntheticSpan, sel, cfg.Seed+31)
	queries := 0
	for len(adv.Actions()) == 0 {
		if time.Since(start) > advisorConvergeTimeout {
			return fmt.Errorf("bench: advisor did not act within %v", advisorConvergeTimeout)
		}
		q := gen()
		if _, _, err := tb.Exec(engine.Query{Col: spec.TargetCol(), Lo: q.Lo, Hi: q.Hi}, nil); err != nil {
			return err
		}
		queries++
	}
	rep.ConvergenceMS = float64(time.Since(start).Microseconds()) / 1000
	rep.QueriesToConverge = queries
	act := adv.Actions()[0]
	rep.Action = advisorActionReport{
		Kind:         act.Kind.String(),
		Col:          act.Col,
		Host:         act.Host,
		Pearson:      act.Pearson,
		OutlierRatio: act.OutlierRatio,
	}
	fmt.Fprintf(cfg.Out, "advisor acted after %d queries / %.1f ms: %s col%d (host col%d, est. outliers %.1f%%)\n",
		queries, rep.ConvergenceMS, rep.Action.Kind, act.Col, act.Host, act.OutlierRatio*100)

	rep.AfterOpsPerSec, err = measureRange(cfg, tb, spec.TargetCol(), engine.PathAuto, 0, workload.SyntheticSpan, sel)
	if err != nil {
		return err
	}
	rep.Speedup = speedup(rep.AfterOpsPerSec, rep.BeforeOpsPerSec)
	plan, err := tb.Explain(spec.TargetCol(), 100, 100+workload.SyntheticSpan*sel)
	if err != nil {
		return err
	}
	rep.PlannerChosenAfter = plan.Chosen.String()
	fmt.Fprintf(cfg.Out, "after auto-indexing (%s path): %s (%.1fx)\n",
		rep.PlannerChosenAfter, fmtKops(rep.AfterOpsPerSec), rep.Speedup)

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_advisor.json")
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "[recorded %s]\n", path)
	}
	return nil
}
