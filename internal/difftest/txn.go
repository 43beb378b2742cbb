package difftest

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/keyorder"
	"hermit/internal/partition"
	"hermit/internal/trstree"
)

// This file holds the two transactional differential configurations added
// with the MVCC layer:
//
//   - "txn" drives seeded random multi-operation batches through the
//     database's atomic executor and compares against an oracle that applies
//     each batch all-or-nothing — including batches built to fail partway,
//     which must leave the system byte-identical to the oracle's untouched
//     state — and whose range queries read the oracle's state before the
//     batch. The stream runs through ExecuteBatch against a plain and then
//     a partitioned table, first durable and then in memory. The durable
//     database is closed, reopened and checkpointed mid-stream, so
//     committed transaction groups also round-trip the WAL.
//
//   - "snapshot-scan" pins the cross-partition snapshot guarantee: a
//     reader goroutine continuously scans a set of marker rows spread over
//     every partition while the main thread commits atomic batches that
//     rewrite all markers to a new generation. Every scan must observe one
//     generation exactly — a mixed scan is a torn (partially visible)
//     batch, the bug class MVCC exists to rule out.

// applyBatch applies a mutation batch to the model all-or-nothing,
// mirroring the engine's atomic-batch contract: ops apply in order against
// the batch's running state; the first failure rolls everything back. It
// returns the index of the failing op (-1 when the batch commits).
func (m *model) applyBatch(ops []engine.Op) int {
	type undo struct {
		pk  float64
		row []float64 // nil: pk was absent before the batch touched it
	}
	var undos []undo
	saved := make(map[uint64]bool)
	save := func(pk float64) {
		if saved[keyorder.Bits(pk)] {
			return
		}
		saved[keyorder.Bits(pk)] = true
		if row, ok := m.row(pk); ok {
			undos = append(undos, undo{pk: pk, row: append([]float64(nil), row...)})
		} else {
			undos = append(undos, undo{pk: pk})
		}
	}
	rollback := func() {
		for _, u := range undos {
			if _, ok := m.row(u.pk); ok {
				m.remove(u.pk)
			}
			if u.row != nil {
				m.insert(u.row)
			}
		}
	}
	for i, op := range ops {
		switch op.Kind {
		case engine.OpInsert:
			save(op.Row[0])
			if !m.insert(op.Row) {
				rollback()
				return i
			}
		case engine.OpDelete:
			save(op.PK)
			m.remove(op.PK) // found=false is not a failure
		case engine.OpUpdate:
			save(op.PK)
			if !m.update(op.PK, op.Col, op.Value) {
				rollback()
				return i
			}
		}
	}
	return -1
}

// batchSystem is a system whose database runs batches (ExecuteBatch).
type batchSystem interface {
	system
	executeBatch(ops []engine.Op, workers int) []engine.OpResult
}

// runTxn is the "txn" configuration driver: the batch stream against a
// plain durable table, a partitioned one (each in a directory of its own),
// then the same two in memory.
func runTxn(cfg Config) error {
	for _, sysName := range []string{"durable", "durable-partitioned", "inmem-cost", "partitioned"} {
		c := cfg
		c.Dir = filepath.Join(cfg.Dir, sysName)
		if err := runTxnOn(sysName, c); err != nil {
			return fmt.Errorf("%s: %w", sysName, err)
		}
	}
	return nil
}

// runTxnOn drives the "txn" stream against the named system; an in-memory
// one's cycles do nothing.
func runTxnOn(sysName string, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := genSchema(rng)
	built, err := build(sysName, cfg, s)
	if err != nil {
		return err
	}
	defer built.close()
	sys := built.(batchSystem)
	m := newModel()

	nextPK := float64(0)
	for i := 0; i < 300; i++ {
		row := s.row(rng, nextPK)
		nextPK++
		m.insert(row)
		if err := sys.insert(row); err != nil {
			return Failure{Step: -1, What: fmt.Sprintf("initial insert: %v", err)}
		}
	}

	batches := cfg.Ops / 5
	if batches < 20 {
		batches = 20
	}
	cyclePeriod := batches/4 + 1
	width := len(s.cols)
	for step := 0; step < batches; step++ {
		// Build a 2–8 op batch, mostly mutations; ~1/4 of batches contain
		// an op built to fail (duplicate insert or update of an absent
		// key), so the all-or-nothing abort path is exercised constantly.
		// A query reads the batch-start snapshot: the oracle's state
		// before the batch, whether or not the batch commits.
		n := 2 + rng.Intn(7)
		ops := make([]engine.Op, 0, n)
		wants := make(map[int][][]float64)
		for i := 0; i < n; i++ {
			switch p := rng.Float64(); {
			case p < 0.15:
				col := rng.Intn(width)
				lo, hi := s.valueRange(col)
				qlo := lo + rng.Float64()*(hi-lo)
				qhi := qlo + rng.Float64()*rng.Float64()*(hi-lo)
				wants[len(ops)] = m.query(col, qlo, qhi)
				ops = append(ops, engine.Op{Table: "t", Kind: engine.OpQuery, Query: engine.Query{Col: col, Lo: qlo, Hi: qhi}})
			case p < 0.50:
				var row []float64
				if pk, ok := m.pick(rng); ok && rng.Float64() < 0.12 {
					row = s.row(rng, pk) // duplicate: poisons the batch
				} else {
					row = s.row(rng, nextPK)
					nextPK++
				}
				ops = append(ops, engine.Op{Table: "t", Kind: engine.OpInsert, Row: row})
			case p < 0.70:
				pk, ok := m.pick(rng)
				if !ok || rng.Float64() < 0.25 {
					pk = nextPK + 5000 + rng.Float64() // absent: found=false, no failure
				}
				ops = append(ops, engine.Op{Table: "t", Kind: engine.OpDelete, PK: pk})
			default:
				col := 1 + rng.Intn(width-1)
				lo, hi := s.valueRange(col)
				pk, ok := m.pick(rng)
				if !ok || rng.Float64() < 0.15 {
					pk = nextPK + 9000 + rng.Float64() // absent: poisons the batch
				}
				ops = append(ops, engine.Op{
					Table: "t", Kind: engine.OpUpdate, PK: pk, Col: col,
					Value: lo + rng.Float64()*(hi-lo),
				})
			}
		}
		wantFail := m.applyBatch(ops)
		res := sys.executeBatch(ops, 1+rng.Intn(4))
		for i, r := range res {
			if want, ok := wants[i]; ok {
				if err := batchRows(r, ops[i].Query, want, width); err != nil {
					return Failure{step, fmt.Sprintf("batch query %d col=%d [%v,%v]: %v",
						i, ops[i].Query.Col, ops[i].Query.Lo, ops[i].Query.Hi, err)}
				}
				continue
			}
			// On an oracle-predicted abort every mutation must error; on a
			// committed batch none may. (Found-ness and row contents are
			// cross-checked by the periodic full-state audits.)
			if wantErr := wantFail >= 0; (r.Err != nil) != wantErr {
				return Failure{step, fmt.Sprintf(
					"batch op %d (%v): err=%v, oracle batch failure at %d", i, ops[i].Kind, r.Err, wantFail)}
			}
		}
		if step > 0 && step%cyclePeriod == 0 {
			if err := sys.cycle(rng.Intn(2) == 0); err != nil {
				return Failure{Step: step, What: fmt.Sprintf("cycle: %v", err)}
			}
		}
		if step%8 == 0 || step == batches-1 {
			if err := audit(m, sys, step); err != nil {
				return err
			}
		}
		// Interleave a plain query so index maintenance under transactional
		// churn is observed too.
		col := rng.Intn(width)
		lo, hi := s.valueRange(col)
		qlo := lo + rng.Float64()*(hi-lo)
		qhi := qlo + rng.Float64()*rng.Float64()*(hi-lo)
		want := m.query(col, qlo, qhi)
		got, err := sys.query(col, qlo, qhi)
		if err != nil {
			return Failure{step, fmt.Sprintf("range col=%d: %v", col, err)}
		}
		if err := sameRows(want, got); err != nil {
			return Failure{step, fmt.Sprintf("range col=%d [%v,%v]: %v", col, qlo, qhi, err)}
		}
	}
	return audit(m, sys, batches)
}

// batchRows checks a batch query's answer against the oracle's rows: no
// error, the rows in predicate-column order, and the same rows bit for bit.
func batchRows(r engine.OpResult, q engine.Query, want [][]float64, width int) error {
	if r.Err != nil {
		return r.Err
	}
	got := engine.SplitRows(r.Rows, width, nil)
	for j := 1; j < len(got); j++ {
		if got[j][q.Col] < got[j-1][q.Col] {
			return fmt.Errorf("row %d out of predicate-column order: %v after %v", j, got[j], got[j-1])
		}
	}
	return sameRows(want, sortRows(got))
}

// runSnapshotScan is the "snapshot-scan" configuration driver.
func runSnapshotScan(cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	parts := cfg.Partitions
	if parts <= 0 {
		parts = 3
	}
	// Schema: pk | gen (the generation every marker row carries) | tag
	// (1 for marker rows, 0 for churn rows).
	cols := []string{"pk", "gen", "tag"}
	db := engine.NewDB(hermit.PhysicalPointers)
	pt, err := partition.Create(db, "t", cols, 0, partition.Options{Partitions: parts, Workers: 2})
	if err != nil {
		return err
	}
	if err := pt.CreateBTreeIndex(1, false); err != nil {
		return err
	}
	if err := pt.CreateHermitIndex(2, 1, trstree.DefaultParams()); err != nil {
		return err
	}
	const markers = 24 // enough keys to land on every partition
	for i := 0; i < markers; i++ {
		if _, err := pt.Insert([]float64{float64(i), 0, 1}); err != nil {
			return err
		}
	}

	rounds := cfg.Ops / 20
	if rounds < 30 {
		rounds = 30
	}
	var (
		stop    atomic.Bool
		scans   atomic.Int64
		readErr atomic.Value
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			rows, err := partRows(pt, engine.Query{Col: 2, Lo: 1, Hi: 1}) // all marker rows
			if err != nil {
				readErr.Store(fmt.Errorf("marker scan: %w", err))
				return
			}
			if len(rows) != markers {
				readErr.Store(fmt.Errorf("marker scan saw %d rows, want %d", len(rows), markers))
				return
			}
			for _, row := range rows {
				if row[1] != rows[0][1] {
					readErr.Store(fmt.Errorf(
						"torn batch observed: marker generations %v and %v in one scan", rows[0][1], row[1]))
					return
				}
			}
			scans.Add(1)
		}
	}()

	nextPK := float64(1000)
	for g := 1; g <= rounds && readErr.Load() == nil; g++ {
		// One atomic batch: rewrite every marker to generation g, plus
		// unrelated churn (inserts/deletes) that lands on random partitions.
		var ops []engine.Op
		for i := 0; i < markers; i++ {
			ops = append(ops, engine.Op{Kind: engine.OpUpdate, PK: float64(i), Col: 1, Value: float64(g)})
		}
		for i := 0; i < 1+rng.Intn(4); i++ {
			if rng.Float64() < 0.5 || nextPK < 1002 {
				ops = append(ops, engine.Op{Kind: engine.OpInsert, Row: []float64{nextPK, float64(g), 0}})
				nextPK++
			} else {
				ops = append(ops, engine.Op{Kind: engine.OpDelete, PK: 1000 + rng.Float64()*(nextPK-1000)})
			}
		}
		for i := range ops {
			ops[i].Table = pt.Name()
		}
		prev := scans.Load()
		res := db.ExecuteBatch(ops, 1+rng.Intn(3))
		for i, r := range res {
			if r.Err != nil {
				stop.Store(true)
				wg.Wait()
				return Failure{g, fmt.Sprintf("batch op %d: %v", i, r.Err)}
			}
		}
		// Let the reader complete at least one scan against this
		// generation before the next batch commits — on a single-CPU box
		// the tight writer loop would otherwise starve it entirely.
		for spins := 0; scans.Load() == prev && readErr.Load() == nil && spins < 2000; spins++ {
			if spins%100 == 99 {
				time.Sleep(time.Millisecond)
			} else {
				runtime.Gosched()
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := readErr.Load(); err != nil {
		return Failure{Step: -1, What: err.(error).Error()}
	}
	if scans.Load() == 0 {
		return Failure{Step: -1, What: "reader completed zero scans (no concurrency exercised)"}
	}
	// Final state: every marker carries the last generation.
	for i := 0; i < markers; i++ {
		rows, err := partRows(pt, engine.Query{Col: 0, Lo: float64(i), Hi: float64(i)})
		if err != nil || len(rows) != 1 {
			return Failure{Step: -1, What: fmt.Sprintf("marker %d: %d rows, err %v", i, len(rows), err)}
		}
		if rows[0][1] != float64(rounds) {
			return Failure{Step: -1, What: fmt.Sprintf("marker %d gen=%v, want %d", i, rows[0][1], rounds)}
		}
	}
	return nil
}
