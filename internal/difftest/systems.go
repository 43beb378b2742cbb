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

// memSystem adapts a single in-memory engine table.
type memSystem struct {
	tb *engine.Table
}

func (s *memSystem) insert(row []float64) error {
	_, err := s.tb.Insert(row)
	return err
}

func (s *memSystem) remove(pk float64) (bool, error) { return s.tb.Delete(pk) }

func (s *memSystem) update(pk float64, col int, v float64) error {
	return s.tb.UpdateColumn(pk, col, v)
}

func (s *memSystem) query(col int, lo, hi float64) ([][]float64, error) {
	return tableRows(s.tb, engine.Query{Col: col, Lo: lo, Hi: hi})
}

// everyPath runs the predicate once per path the table's plan lists as
// available, all at one snapshot.
func (s *memSystem) everyPath(col int, lo, hi float64) ([]pathRows, error) {
	plan, err := s.tb.Explain(col, lo, hi)
	if err != nil {
		return nil, err
	}
	snap := s.tb.Snapshot()
	defer snap.Release()
	return forEachPath(plan, func(path engine.AccessPath) ([][]float64, error) {
		return tableRows(s.tb, engine.Query{Col: col, Lo: lo, Hi: hi, Snap: snap, Path: path})
	})
}

func (s *memSystem) state() (map[uint64][]float64, error) { return tableState(s.tb) }

func (s *memSystem) cycle(bool) error     { return nil }
func (s *memSystem) close() error         { return nil }
func (s *memSystem) table() *engine.Table { return s.tb }

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

// partSystem adapts an in-memory partitioned table.
type partSystem struct {
	pt *partition.Table
}

func (s *partSystem) insert(row []float64) error {
	_, err := s.pt.Insert(row)
	return err
}

func (s *partSystem) remove(pk float64) (bool, error) { return s.pt.Delete(pk) }

func (s *partSystem) update(pk float64, col int, v float64) error {
	return s.pt.UpdateColumn(pk, col, v)
}

func (s *partSystem) query(col int, lo, hi float64) ([][]float64, error) {
	return partRows(s.pt, engine.Query{Col: col, Lo: lo, Hi: hi})
}

// everyPath runs the predicate once per path the executing partitions'
// plan lists as available (DDL is uniform, so every partition lists the
// same ones), all at one snapshot.
func (s *partSystem) everyPath(col int, lo, hi float64) ([]pathRows, error) {
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

func (s *partSystem) state() (map[uint64][]float64, error) { return partState(s.pt) }

func (s *partSystem) cycle(bool) error { return nil }
func (s *partSystem) close() error     { return nil }

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

// durSystem adapts a durable database — plain (parts == 0) or partitioned
// — and implements the mid-stream close/reopen cycle.
type durSystem struct {
	dir   string
	name  string
	parts int // 0 = unpartitioned

	// opts carries the storage tuning across reopens; compact forces a
	// full checkpoint + compaction drain on every cycle (the "blocks"
	// configuration), so recovery is exercised against block stacks that
	// mix fresh delta blocks with merged higher-level ones.
	opts    engine.DurableOptions
	compact bool
	// crashes, when non-zero, makes every cycle a crash: the directory is
	// copied while the database is open — the files a killed process
	// leaves — into a sibling numbered crashes, which is reopened, and the
	// database that wrote it is closed and abandoned.
	crashes int

	d  *engine.DurableDB
	tb *engine.Table    // bound when parts == 0
	pt *partition.Table // bound when parts > 0
}

// bind resolves the table handles against the current DurableDB.
func (s *durSystem) bind() error {
	if s.parts > 0 {
		pt, err := partition.OpenDurable(s.d, s.name, partition.Options{Workers: 2})
		if err != nil {
			return err
		}
		s.pt = pt
		return nil
	}
	tb, err := s.d.Table(s.name)
	if err != nil {
		return err
	}
	s.tb = tb
	return nil
}

func (s *durSystem) insert(row []float64) error {
	_, err := s.d.Insert(s.name, row)
	return err
}

func (s *durSystem) remove(pk float64) (bool, error) { return s.d.Delete(s.name, pk) }

func (s *durSystem) update(pk float64, col int, v float64) error {
	return s.d.UpdateColumn(s.name, pk, col, v)
}

func (s *durSystem) query(col int, lo, hi float64) ([][]float64, error) {
	q := engine.Query{Col: col, Lo: lo, Hi: hi}
	if s.parts > 0 {
		return partRows(s.pt, q)
	}
	return tableRows(s.tb, q)
}

func (s *durSystem) state() (map[uint64][]float64, error) {
	if s.parts > 0 {
		return partState(s.pt)
	}
	return tableState(s.tb)
}

// cycle optionally checkpoints, then closes and reopens the database —
// the crash-free durability round trip — and rebinds the handles. A
// recovery that skipped records is a divergence in itself. The "blocks"
// configuration always checkpoints and then drains the compactor, so the
// reopen replays block stacks reshaped by merges mid-stream.
func (s *durSystem) cycle(checkpoint bool) error {
	if checkpoint || s.compact {
		if err := s.d.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	// A crash image is taken with no merge in flight: the files the
	// background compactor writes would be copied half-written.
	if s.compact || s.crashes > 0 {
		for {
			merged, err := s.d.Compact()
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
	if err := s.d.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	d, err := engine.OpenDurableOptions(s.dir, hermit.PhysicalPointers, s.opts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if n, serr := d.RecoverySkipped(); n != 0 {
		return fmt.Errorf("recovery skipped %d records (last: %v)", n, serr)
	}
	s.d = d
	return s.bind()
}

func (s *durSystem) close() error { return s.d.Close() }

func (s *durSystem) table() *engine.Table { return s.tb }
