package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/keyorder"
	"hermit/internal/partition"
	"hermit/internal/storage"
)

// dbSystem adapts table name of one database — in memory or durable (dir
// set), plain or partitioned — written by name and read through its
// partition.Table, which fronts a plain table as its only partition.
type dbSystem struct {
	db   *engine.DB
	name string
	pt   *partition.Table
	// paths makes every query step answer once more per path the plan lists
	// (everyPath).
	paths bool

	// A durable database's directory and storage tuning, kept across
	// reopens. compact forces a full checkpoint + compaction drain on every
	// cycle (the "blocks" configuration), so recovery is exercised against
	// block stacks that mix fresh delta blocks with merged higher-level
	// ones. crashes, when non-zero, makes every cycle a crash: the directory
	// is copied while the database is open — the files a killed process
	// leaves — into a sibling numbered crashes, which is reopened, and the
	// database that wrote it is closed and abandoned.
	dir     string
	opts    engine.DurableOptions
	compact bool
	crashes int
}

// bind resolves the table handle against the current database.
func (s *dbSystem) bind() (err error) {
	s.pt, err = partition.Open(s.db, s.name, partition.Options{Workers: 2})
	return err
}

func (s *dbSystem) executeBatch(ops []engine.Op, workers int) []engine.OpResult {
	return s.db.ExecuteBatch(ops, workers)
}

func (s *dbSystem) insert(row []float64) error {
	_, err := s.db.Insert(s.name, row)
	return err
}

func (s *dbSystem) remove(pk float64) (bool, error) { return s.db.Delete(s.name, pk) }

func (s *dbSystem) update(pk float64, col int, v float64) error {
	return s.db.UpdateColumn(s.name, pk, col, v)
}

func (s *dbSystem) query(col int, lo, hi float64) ([][]float64, error) {
	return partRows(s.pt, engine.Query{Col: col, Lo: lo, Hi: hi})
}

// everyPath runs the predicate once per path the executing partitions'
// plan lists as available (DDL is uniform, so every partition lists the
// same ones), all at one snapshot; nothing unless paths is set.
func (s *dbSystem) everyPath(col int, lo, hi float64) ([]pathRows, error) {
	if !s.paths {
		return nil, nil
	}
	plan, err := s.pt.Explain(col, lo, hi)
	if err != nil {
		return nil, err
	}
	snap := s.pt.Snapshot()
	defer snap.Release()
	return forEachPath(plan.PerPartition[plan.Part], func(path engine.AccessPath) ([][]float64, error) {
		return partRows(s.pt, engine.Query{Col: col, Lo: lo, Hi: hi, Snap: snap, Path: path})
	})
}

func (s *dbSystem) state() (map[uint64][]float64, error) { return partState(s.pt) }

// cycle optionally checkpoints, then closes and reopens a durable database
// — the crash-free durability round trip — and rebinds the handle; in
// memory it does nothing. A recovery that skipped records is a divergence
// in itself. The "blocks" configuration always checkpoints and then drains
// the compactor, so the reopen replays block stacks reshaped by merges
// mid-stream.
func (s *dbSystem) cycle(checkpoint bool) error {
	if s.dir == "" {
		return nil
	}
	if checkpoint || s.compact {
		if err := s.db.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	// A crash image is taken with no merge in flight: the files the
	// background compactor writes would be copied half-written.
	if s.compact || s.crashes > 0 {
		for {
			merged, err := s.db.Compact()
			if err != nil {
				return fmt.Errorf("compact: %w", err)
			}
			if !merged {
				break
			}
		}
	}
	if s.crashes > 0 {
		img := filepath.Join(filepath.Dir(s.dir), strconv.Itoa(s.crashes))
		s.crashes++
		if err := os.CopyFS(img, os.DirFS(s.dir)); err != nil {
			return fmt.Errorf("crash image: %w", err)
		}
		s.dir = img
	}
	if err := s.db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	db, err := engine.OpenDurableOptions(s.dir, hermit.PhysicalPointers, s.opts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if n, serr := db.RecoverySkipped(); n != 0 {
		return fmt.Errorf("recovery skipped %d records (last: %v)", n, serr)
	}
	s.db = db
	return s.bind()
}

func (s *dbSystem) close() error { return s.db.Close() }

// table is the engine table of a plain table.
func (s *dbSystem) table() *engine.Table { return s.pt.Part(0) }

// tableRows answers q on an engine table, ordered by primary key.
func tableRows(tb *engine.Table, q engine.Query) ([][]float64, error) {
	flat, _, err := tb.Exec(q, nil)
	if err != nil {
		return nil, err
	}
	return sortRows(engine.SplitRows(flat, len(tb.Columns()), nil)), nil
}

// forEachPath answers through every path plan lists as available.
func forEachPath(plan engine.Plan, answer func(engine.AccessPath) ([][]float64, error)) ([]pathRows, error) {
	var out []pathRows
	for _, c := range plan.Candidates {
		if !c.Available {
			continue
		}
		rows, err := answer(c.Path)
		if err != nil {
			return nil, fmt.Errorf("via %v: %w", c.Path, err)
		}
		out = append(out, pathRows{c.Path, rows})
	}
	return out, nil
}

// tableState dumps a table's live rows keyed by primary key (col 0 in
// every generated schema; keyorder.Bits, as the oracle keys them). ScanLive
// resolves MVCC visibility — the raw store also holds the superseded and
// deleted versions a snapshot pins.
func tableState(tb *engine.Table) (map[uint64][]float64, error) {
	out := make(map[uint64][]float64, tb.Len())
	tb.ScanLive(func(_ storage.RID, row []float64) bool {
		out[keyorder.Bits(row[0])] = append([]float64(nil), row...)
		return true
	})
	return out, nil
}

// partRows answers q on a partitioned table, ordered by primary key.
func partRows(pt *partition.Table, q engine.Query) ([][]float64, error) {
	flat, _, err := pt.Exec(q, nil)
	if err != nil {
		return nil, err
	}
	return sortRows(engine.SplitRows(flat, len(pt.Columns()), nil)), nil
}

// partState unions every partition's live rows.
func partState(pt *partition.Table) (map[uint64][]float64, error) {
	out := make(map[uint64][]float64, pt.Len())
	for i := 0; i < pt.Partitions(); i++ {
		st, err := tableState(pt.Part(i))
		if err != nil {
			return nil, err
		}
		for pk, row := range st {
			if _, dup := out[pk]; dup {
				return nil, fmt.Errorf("pk %v present in two partitions", row[0])
			}
			out[pk] = row
		}
	}
	return out, nil
}
