package difftest

import (
	"fmt"
	"sort"

	"hermit/internal/engine"
	"hermit/internal/hermit"
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

func (s *memSystem) query(col int, lo, hi float64) ([]float64, error) {
	rids, _, err := s.tb.RangeQuery(col, lo, hi)
	if err != nil {
		return nil, err
	}
	return ridPKs(s.tb, rids)
}

func (s *memSystem) state() (map[float64][]float64, error) { return tableState(s.tb) }

func (s *memSystem) cycle(bool) error { return nil }
func (s *memSystem) close() error     { return nil }

// ridPKs maps engine RIDs to sorted primary keys.
func ridPKs(tb *engine.Table, rids []storage.RID) ([]float64, error) {
	out := make([]float64, 0, len(rids))
	for _, rid := range rids {
		v, err := tb.Store().Value(rid, tb.PKCol())
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	sort.Float64s(out)
	return out, nil
}

// tableState dumps a table's live rows keyed by primary key (col 0 in
// every generated schema). ScanLive resolves MVCC visibility — the raw
// store also holds the superseded and deleted versions a snapshot pins.
func tableState(tb *engine.Table) (map[float64][]float64, error) {
	out := make(map[float64][]float64, tb.Len())
	tb.ScanLive(func(_ storage.RID, row []float64) bool {
		out[row[0]] = append([]float64(nil), row...)
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

func (s *partSystem) query(col int, lo, hi float64) ([]float64, error) {
	rids, _, err := s.pt.RangeQuery(col, lo, hi)
	if err != nil {
		return nil, err
	}
	return partPKs(s.pt, rids)
}

func (s *partSystem) state() (map[float64][]float64, error) { return partState(s.pt) }

func (s *partSystem) cycle(bool) error { return nil }
func (s *partSystem) close() error     { return nil }

// partPKs maps partitioned RIDs to sorted primary keys.
func partPKs(pt *partition.Table, rids []partition.RID) ([]float64, error) {
	out := make([]float64, 0, len(rids))
	for _, r := range rids {
		row, err := pt.FetchRow(r)
		if err != nil {
			return nil, err
		}
		out = append(out, row[pt.PKCol()])
	}
	sort.Float64s(out)
	return out, nil
}

// partState unions every partition's live rows.
func partState(pt *partition.Table) (map[float64][]float64, error) {
	out := make(map[float64][]float64, pt.Len())
	for i := 0; i < pt.Partitions(); i++ {
		st, err := tableState(pt.Part(i))
		if err != nil {
			return nil, err
		}
		for pk, row := range st {
			if _, dup := out[pk]; dup {
				return nil, fmt.Errorf("pk %v present in two partitions", pk)
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
	// configuration), so recovery is exercised against a blocklist that
	// mixes fresh delta blocks with merged higher-level ones.
	opts    engine.DurableOptions
	compact bool

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

func (s *durSystem) query(col int, lo, hi float64) ([]float64, error) {
	if s.parts > 0 {
		rids, _, err := s.pt.RangeQuery(col, lo, hi)
		if err != nil {
			return nil, err
		}
		return partPKs(s.pt, rids)
	}
	rids, _, err := s.tb.RangeQuery(col, lo, hi)
	if err != nil {
		return nil, err
	}
	return ridPKs(s.tb, rids)
}

func (s *durSystem) state() (map[float64][]float64, error) {
	if s.parts > 0 {
		return partState(s.pt)
	}
	return tableState(s.tb)
}

// cycle optionally checkpoints, then closes and reopens the database —
// the crash-free durability round trip — and rebinds the handles. A
// recovery that skipped records is a divergence in itself. The "blocks"
// configuration always checkpoints and then drains the compactor, so the
// reopen replays a blocklist reshaped by merges mid-stream.
func (s *durSystem) cycle(checkpoint bool) error {
	if checkpoint || s.compact {
		if err := s.d.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	if s.compact {
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
