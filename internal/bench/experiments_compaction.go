package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/workload"
)

// The compaction experiment is not a paper figure: it measures what the
// tiered block store costs and buys. Three sweeps: (1) checkpoint pause vs
// table size — incremental checkpoints flush only the delta, so the pause
// should track the delta size, not the table size; (2) steady-state write
// amplification under churn with an aggressive fan-in; (3) cold point-read
// latency against the block tier — a present key costs one page read from
// the operating system's cache, an absent one is skipped by the resident
// bloom filters and key fences — next to what the open blocks keep in
// memory per flushed row to make that so. Results are printed and, when
// Config.JSONDir is set, recorded in BENCH_compaction.json.

// compactionDeltaRows is the paper-scale fixed delta inserted between the
// full and the incremental checkpoint in sweep (1).
const compactionDeltaRows = 10_000

// compactionPausePoint is one measured table size.
type compactionPausePoint struct {
	TableRows         int     `json:"table_rows"`
	DeltaRows         int     `json:"delta_rows"`
	FullCheckpointMS  float64 `json:"full_checkpoint_ms"`
	DeltaCheckpointMS float64 `json:"delta_checkpoint_ms"`
}

// compactionAmpPoint is the steady-state write-amplification measurement.
type compactionAmpPoint struct {
	BaseRows           int     `json:"base_rows"`
	Rounds             int     `json:"rounds"`
	ChurnRowsPerRound  int     `json:"churn_rows_per_round"`
	Flushes            int64   `json:"flushes"`
	Compactions        int64   `json:"compactions"`
	FlushedBytes       int64   `json:"flushed_bytes"`
	CompactedBytes     int64   `json:"compacted_bytes"`
	WriteAmplification float64 `json:"write_amplification"`
	Blocks             int     `json:"blocks"`
	MaxLevel           uint32  `json:"max_level"`
	CompactionBacklog  int     `json:"compaction_backlog"`
}

// compactionReadPoint is one cold-read class: keys present in the block
// tier (one page read each) vs absent keys (bloom/fence skip).
// ResidentPerFlushedRow is the price of both: the bytes the open blocks
// hold — footers, page indexes, blooms — per entry in the tier.
type compactionReadPoint struct {
	Kind                  string  `json:"kind"`
	Reads                 int     `json:"reads"`
	NSPerRead             float64 `json:"ns_per_read"`
	ResidentPerFlushedRow float64 `json:"resident_bytes_per_flushed_row"`
	BlocksProbed          float64 `json:"blocks_probed_per_read"`
	PageReads             float64 `json:"page_reads_per_read"`
	BlocksInTier          int     `json:"blocks_in_tier"`
	HitRatePercent        float64 `json:"hit_rate_percent"`
}

// compactionReport is the schema of BENCH_compaction.json.
type compactionReport struct {
	Experiment    string                 `json:"experiment"`
	Scale         float64                `json:"scale"`
	NumCPU        int                    `json:"num_cpu"`
	GOMAXPROCS    int                    `json:"gomaxprocs"`
	MeasureForMS  int64                  `json:"measure_for_ms"`
	Seed          int64                  `json:"seed"`
	Pause         []compactionPausePoint `json:"checkpoint_pause"`
	Amplification compactionAmpPoint     `json:"write_amplification"`
	ColdReads     []compactionReadPoint  `json:"cold_reads"`
}

// RunCompaction drives the block-storage experiment.
func RunCompaction(cfg Config) error {
	cfg = cfg.sanitized()
	header(cfg.Out, "compaction", "Checkpoint pause vs table size; write amplification; bloom-gated cold reads")
	root := cfg.TmpDir
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "hermit-compaction-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(root)
	}
	rep := compactionReport{
		Experiment:   "compaction",
		Scale:        cfg.Scale,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		MeasureForMS: cfg.MeasureFor.Milliseconds(),
		Seed:         cfg.Seed,
	}

	// (1) Checkpoint pause vs table size. The first checkpoint flushes the
	// whole table; the second flushes only a fixed-size delta. A monolithic
	// image would pay the full cost both times — the delta column staying
	// flat while the table column grows is the incremental win.
	delta := cfg.rows(compactionDeltaRows)
	fmt.Fprintf(cfg.Out, "-- checkpoint pause vs table size (delta = %d rows) --\n", delta)
	fmt.Fprintf(cfg.Out, "%-12s %16s %16s\n", "table rows", "full ckpt", "delta ckpt")
	for _, n := range []int{cfg.rows(100_000), cfg.rows(400_000), cfg.rows(1_600_000)} {
		p, err := measureCheckpointPause(root, n, delta)
		if err != nil {
			return err
		}
		rep.Pause = append(rep.Pause, p)
		fmt.Fprintf(cfg.Out, "%-12d %14.1fms %14.1fms\n",
			p.TableRows, p.FullCheckpointMS, p.DeltaCheckpointMS)
	}

	// (2)+(3) share one database: churn through checkpoint+compaction
	// rounds at fan-in 2, then read cold keys back out of the block tier.
	amp, d, err := measureWriteAmplification(cfg, root)
	if err != nil {
		return err
	}
	defer d.Close()
	rep.Amplification = amp
	fmt.Fprintf(cfg.Out, "-- steady-state write amplification (fan-in 2, %d churn rounds) --\n", amp.Rounds)
	fmt.Fprintf(cfg.Out, "%-12s %-12s %-12s %-10s %-10s %12s\n",
		"flushes", "compactions", "blocks", "max level", "backlog", "write amp")
	fmt.Fprintf(cfg.Out, "%-12d %-12d %-12d %-10d %-10d %11.2fx\n",
		amp.Flushes, amp.Compactions, amp.Blocks, amp.MaxLevel,
		amp.CompactionBacklog, amp.WriteAmplification)

	fmt.Fprintf(cfg.Out, "-- cold point reads against the block tier (%d blocks) --\n", amp.Blocks)
	fmt.Fprintf(cfg.Out, "%-22s %12s %14s %14s %16s\n", "keys", "latency", "blocks probed", "hit rate", "resident B/row")
	for _, present := range []bool{true, false} {
		p, err := measureColdReads(cfg, d, amp, present)
		if err != nil {
			return err
		}
		rep.ColdReads = append(rep.ColdReads, p)
		fmt.Fprintf(cfg.Out, "%-22s %10.0fns %14.2f %13.1f%% %16.2f\n",
			p.Kind, p.NSPerRead, p.BlocksProbed, p.HitRatePercent, p.ResidentPerFlushedRow)
	}

	if cfg.JSONDir != "" {
		path := filepath.Join(cfg.JSONDir, "BENCH_compaction.json")
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

// compactionRow builds the synthetic 4-column row for a primary key.
func compactionRow(pk float64) []float64 {
	c := float64(int(pk) % 1000)
	return []float64{pk, 2*c + 100, c, 0.5}
}

// measureCheckpointPause loads n rows, times the full checkpoint, inserts
// a fixed delta, and times the incremental checkpoint.
func measureCheckpointPause(root string, n, delta int) (compactionPausePoint, error) {
	dir, err := os.MkdirTemp(root, "pause-*")
	if err != nil {
		return compactionPausePoint{}, err
	}
	defer os.RemoveAll(dir)
	// Auto-compaction off and rotation disabled: the sweep isolates the
	// flush path, with no background merges stealing cycles mid-timing.
	d, err := engine.OpenDurableOptions(dir, hermit.PhysicalPointers, engine.DurableOptions{
		DisableAutoCompact: true,
		WALRotateBytes:     -1,
	})
	if err != nil {
		return compactionPausePoint{}, err
	}
	defer d.Close()
	spec := workload.SyntheticSpec{}
	if _, err := d.CreateTable("syn", spec.Columns(), spec.PKCol()); err != nil {
		return compactionPausePoint{}, err
	}
	for i := 0; i < n; i++ {
		if _, err := d.Insert("syn", compactionRow(float64(i))); err != nil {
			return compactionPausePoint{}, err
		}
	}
	start := time.Now()
	if err := d.Checkpoint(); err != nil {
		return compactionPausePoint{}, err
	}
	full := time.Since(start)
	for i := 0; i < delta; i++ {
		if _, err := d.Insert("syn", compactionRow(float64(n+i))); err != nil {
			return compactionPausePoint{}, err
		}
	}
	start = time.Now()
	if err := d.Checkpoint(); err != nil {
		return compactionPausePoint{}, err
	}
	inc := time.Since(start)
	return compactionPausePoint{
		TableRows:         n,
		DeltaRows:         delta,
		FullCheckpointMS:  float64(full.Microseconds()) / 1000,
		DeltaCheckpointMS: float64(inc.Microseconds()) / 1000,
	}, nil
}

// measureWriteAmplification churns a base table through checkpoint +
// compaction-drain rounds at fan-in 2 and snapshots the storage counters.
// The open database is returned so the cold-read sweep can reuse its
// block tier; the caller closes it.
func measureWriteAmplification(cfg Config, root string) (compactionAmpPoint, *engine.DurableDB, error) {
	dir, err := os.MkdirTemp(root, "amp-*")
	if err != nil {
		return compactionAmpPoint{}, nil, err
	}
	d, err := engine.OpenDurableOptions(dir, hermit.PhysicalPointers, engine.DurableOptions{
		DisableAutoCompact: true, // drained explicitly so rounds are deterministic
		WALRotateBytes:     -1,
		CompactFanIn:       2,
	})
	if err != nil {
		return compactionAmpPoint{}, nil, err
	}
	fail := func(err error) (compactionAmpPoint, *engine.DurableDB, error) {
		d.Close()
		os.RemoveAll(dir)
		return compactionAmpPoint{}, nil, err
	}
	spec := workload.SyntheticSpec{}
	if _, err := d.CreateTable("syn", spec.Columns(), spec.PKCol()); err != nil {
		return fail(err)
	}
	base := cfg.rows(200_000)
	for i := 0; i < base; i++ {
		if _, err := d.Insert("syn", compactionRow(float64(i))); err != nil {
			return fail(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		return fail(err)
	}
	const rounds = 4
	churn := base / 4
	rng := rand.New(rand.NewSource(cfg.Seed))
	for r := 0; r < rounds; r++ {
		for i := 0; i < churn; i++ {
			pk := float64(rng.Intn(base))
			if err := d.UpdateColumn("syn", pk, 3, float64(r+1)); err != nil {
				return fail(err)
			}
		}
		if err := d.Checkpoint(); err != nil {
			return fail(err)
		}
		for {
			merged, err := d.Compact()
			if err != nil {
				return fail(err)
			}
			if !merged {
				break
			}
		}
	}
	st := d.StorageStats()
	return compactionAmpPoint{
		BaseRows:           base,
		Rounds:             rounds,
		ChurnRowsPerRound:  churn,
		Flushes:            st.Flushes,
		Compactions:        st.Compactions,
		FlushedBytes:       st.FlushedBytes,
		CompactedBytes:     st.CompactedBytes,
		WriteAmplification: st.WriteAmplification,
		Blocks:             st.Blocks,
		MaxLevel:           st.MaxLevel,
		CompactionBacklog:  st.CompactionBacklog,
	}, d, nil
}

// measureColdReads times point reads served purely by the block tier.
// Present keys land on at least one block; absent keys sit between live
// primary keys, inside every fence, so only the bloom filters stand
// between them and a page read — blocks probed per read is the bloom's
// skip rate made visible.
func measureColdReads(cfg Config, d *engine.DurableDB, amp compactionAmpPoint, present bool) (compactionReadPoint, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	kind := "present"
	if !present {
		kind = "absent (bloom skip)"
	}
	var reads, hits int
	var probedTotal int
	pagesBefore := d.StorageStats().BlockPageReads
	start := time.Now()
	for time.Since(start) < cfg.MeasureFor {
		pk := float64(rng.Intn(amp.BaseRows))
		if !present {
			pk += 0.5
		}
		_, found, probed, err := d.BlockRead("syn", pk)
		if err != nil {
			return compactionReadPoint{}, err
		}
		if found != present {
			return compactionReadPoint{}, fmt.Errorf("cold read pk=%v found=%v, want %v", pk, found, present)
		}
		if found {
			hits++
		}
		probedTotal += probed
		reads++
	}
	elapsed := time.Since(start)
	st := d.StorageStats()
	return compactionReadPoint{
		Kind:                  kind,
		Reads:                 reads,
		NSPerRead:             float64(elapsed.Nanoseconds()) / float64(reads),
		ResidentPerFlushedRow: float64(st.BlockResidentBytes) / float64(st.BlockEntries),
		BlocksProbed:          float64(probedTotal) / float64(reads),
		PageReads:             float64(st.BlockPageReads-pagesBefore) / float64(reads),
		BlocksInTier:          amp.Blocks,
		HitRatePercent:        100 * float64(hits) / float64(reads),
	}, nil
}
