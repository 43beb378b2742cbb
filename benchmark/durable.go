package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	hermitdb "hermit"
)

// durable is the database behind durable-write: a durable database with
// logical pointers and the default flush policy (SyncNever: a write is
// acknowledged after the OS write, not after fsync), Hermit on colC.
// Every spec.CheckpointEvery writes, between two rounds, the driver
// checkpoints and then merges blocks at the default fan-in until none is
// left to merge. Nothing runs beside the driver and nothing fires on a
// timer (the background compactor is off), so the block counts repeat
// exactly and the op latencies are not a mixture of "checkpoint running"
// and "not". Public API only.
type durable struct {
	dir  string
	spec workloadSpec
	d    *hermitdb.DurableDB
	tb   *hermitdb.Table
	dst  []hermitdb.RID
	rows [][]float64
	row  [4]float64
	want [4]float64

	writes, sinceCkpt    int64
	ckptWalls, compactMs []float64 // ms per checkpoint, per compaction drain
	ckptErr              error

	coldProbes int64
	coldReads  int64

	shadow *durableShadow // traced phase only
}

const durableTable = "syn"

func (s *durable) build(streams []*stream) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	d, err := s.open()
	if err != nil {
		return err
	}
	s.d = d
	if s.tb, err = d.CreateTable(durableTable, tableCols, colPK); err != nil {
		return err
	}
	st := streams[0]
	for li, k := range st.kIns {
		fillRow(s.row[:], st.pkOf(li), k, k)
		if _, err := d.Insert(durableTable, s.row[:]); err != nil {
			return fmt.Errorf("preload row %d: %w", li, err)
		}
	}
	if err := d.CreateIndex(durableTable, hermitdb.IndexDef{Kind: "btree", Col: colHost}); err != nil {
		return err
	}
	if err := d.CreateIndex(durableTable, hermitdb.IndexDef{Kind: "hermit", Col: colKey, Host: colHost, Params: hermitdb.DefaultParams()}); err != nil {
		return err
	}
	return d.Checkpoint()
}

func (s *durable) open() (*hermitdb.DurableDB, error) {
	return hermitdb.OpenDurableOptions(s.dir, hermitdb.LogicalPointers, hermitdb.DurableOptions{DisableAutoCompact: true})
}

func (s *durable) exec(o *op) (int32, error) {
	switch o.kind {
	case opRange:
		rids, _, err := s.tb.RangeQueryInto(colKey, o.lo, o.hi, s.dst)
		if err != nil {
			return 0, err
		}
		s.dst = rids
		return int32(len(rids)), nil
	case opPKRead:
		rids, _, err := s.tb.PointQueryInto(colPK, float64(o.pk), s.dst)
		if err != nil || len(rids) != 1 {
			return int32(len(rids)), err
		}
		s.dst = rids
		if s.rows, err = s.tb.FetchRows(rids, s.rows); err != nil {
			return 0, err
		}
		if s.rows[0][colKey] != colC(o.k) {
			return -1, nil
		}
		return 1, nil
	case opColdRead:
		row, found, probed, err := s.d.BlockRead(durableTable, float64(o.pk))
		if err != nil || !found {
			return 0, err
		}
		s.coldReads++
		s.coldProbes += int64(probed)
		fillRow(s.want[:], o.pk, o.kIns, o.k)
		if len(row) != 4 || [4]float64(row) != s.want {
			return -1, nil
		}
		return 1, nil
	case opInsert:
		s.writes++
		fillRow(s.row[:], o.pk, o.k, o.k)
		_, err := s.d.Insert(durableTable, s.row[:])
		return 1, err
	case opUpdate:
		s.writes++
		return 1, s.d.UpdateColumn(durableTable, float64(o.pk), colKey, colC(o.k))
	case opDelete:
		s.writes++
		found, err := s.d.Delete(durableTable, float64(o.pk))
		if !found {
			return 0, err
		}
		return 1, err
	}
	return 0, fmt.Errorf("op kind %d not part of this workload", o.kind)
}

func (s *durable) betweenRounds(int) {
	if s.writes-s.sinceCkpt < int64(s.spec.CheckpointEvery) || s.ckptErr != nil {
		return
	}
	s.sinceCkpt = s.writes
	t0 := time.Now()
	if s.ckptErr = s.d.Checkpoint(); s.ckptErr != nil {
		return
	}
	t1 := time.Now()
	s.ckptErr = drainCompaction(s.d)
	s.ckptWalls = append(s.ckptWalls, float64(t1.Sub(t0).Microseconds())/1e3)
	s.compactMs = append(s.compactMs, float64(time.Since(t1).Microseconds())/1e3)
}

func (s *durable) space() spaceCensus {
	m := s.tb.Memory()
	return spaceCensus{indexBytes: m.NewBytes, tableBytes: m.TableBytes, liveRows: s.tb.Len()}
}

// finish checkpoints, writes a fixed un-checkpointed tail, then closes
// and reopens the database five times over that same tail (recovery_s),
// audits every key the oracle knows against the recovered table, and
// finally checkpoints and drains compaction to measure the bytes on disk.
func (s *durable) finish(st *stream, t *tally) (map[string]float64, error) {
	if s.ckptErr != nil {
		return nil, fmt.Errorf("checkpoint between rounds: %w", s.ckptErr)
	}
	ran := s.d.StorageStats() // the counters restart with every reopen below
	if err := s.d.Checkpoint(); err != nil {
		return nil, err
	}
	tailMix := s.spec.Mix
	tailMix.Range, tailMix.PKRead, tailMix.ColdRead = 0, 0, 0
	st.sched = schedule(tailMix)
	var ops []op
	tailStart := s.writes
	for s.writes-tailStart < int64(s.spec.TailWrites) {
		ops = st.compile(ops)
		st.hashOps(ops)
		playRound(s, ops, nil, t)
	}
	tail := s.writes - tailStart

	var recov []float64
	for i := 0; i < 5; i++ {
		if err := s.d.Close(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		d, err := s.open()
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		recov = append(recov, time.Since(t0).Seconds())
		s.d = d
		if n, lastErr := d.RecoverySkipped(); n > 0 {
			t.fail("recovery skipped %d records: %v", n, lastErr)
		}
	}
	var err error
	if s.tb, err = s.d.Table(durableTable); err != nil {
		return nil, err
	}
	s.audit(st, t)

	if err := s.d.Checkpoint(); err != nil {
		return nil, err
	}
	if err := drainCompaction(s.d); err != nil {
		return nil, err
	}
	ss := s.d.StorageStats()
	disk, err := dirBytes(s.dir)
	if err != nil {
		return nil, err
	}
	live := float64(s.tb.Len())
	extra := map[string]float64{
		"engine.checkpoint_ms":        median(s.ckptWalls),
		"engine.compact_ms":           median(s.compactMs),
		"engine.checkpoints":          float64(len(s.ckptWalls)),
		"engine.recovery_s":           median(recov),
		"engine.recovery_records":     float64(tail),
		"engine.disk_bytes_per_row":   float64(disk) / live,
		"block.write_amp":             ran.WriteAmplification,
		"block.flushes":               float64(ran.Flushes),
		"block.compactions":           float64(ran.Compactions),
		"block.bytes_per_row":         float64(ss.BlockBytes) / live,
		"block.max_level":             float64(ss.MaxLevel),
		"block.backlog_end":           float64(ss.CompactionBacklog),
		"block.compact_errors":        float64(ran.CompactErrors + ss.CompactErrors),
		"block.probes_per_cold_read":  float64(s.coldProbes) / float64(max(s.coldReads, 1)),
		"storage.table_bytes_per_row": float64(s.tb.Memory().TableBytes) / live,
	}
	return extra, nil
}

// audit compares every key the oracle has ever known with the recovered
// table: live keys must read back their full row, deleted keys nothing.
func (s *durable) audit(st *stream, t *tally) {
	if got := s.tb.Len(); got != st.live {
		t.fail("audit: recovered table has %d live rows, oracle %d", got, st.live)
	}
	for li, k := range st.kCur {
		pk := st.pkOf(li)
		rids, _, err := s.tb.PointQueryInto(colPK, float64(pk), s.dst)
		s.dst = rids
		switch {
		case err != nil:
			t.fail("audit pk %d: %v", pk, err)
		case k < 0 && len(rids) != 0:
			t.fail("audit pk %d: deleted key came back", pk)
		case k >= 0 && len(rids) != 1:
			t.fail("audit pk %d: %d rows, want 1", pk, len(rids))
		case k >= 0:
			if s.rows, err = s.tb.FetchRows(rids, s.rows); err != nil {
				t.fail("audit pk %d: fetch: %v", pk, err)
				continue
			}
			fillRow(s.want[:], pk, st.kIns[li], k)
			if [4]float64(s.rows[0]) != s.want {
				t.fail("audit pk %d: row %v, want %v", pk, s.rows[0], s.want)
			} else {
				t.attempted++
			}
		default:
			t.attempted++
		}
	}
}

func (s *durable) close() {
	if s.d != nil {
		s.d.Close() // the directory is removed next; nothing left to lose
		s.d = nil
	}
	os.RemoveAll(s.dir)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
