package main

import (
	"fmt"
	"time"

	hermitdb "hermit"
)

// embedded is the in-memory engine behind hermit-read and btree-read:
// physical pointers, a host B+-tree on colB, and on colC either a Hermit
// index (hermit-read) or a complete B+-tree (btree-read). Everything here
// goes through the root package's public API only.
type embedded struct {
	hermit  bool
	gcEvery int
	db      *hermitdb.DB
	tb      *hermitdb.Table
	dst     []hermitdb.RID
	row     [4]float64

	hostBuild, keyBuild time.Duration
	gcWalls             []float64 // ms per GC pass
}

func (e *embedded) build(streams []*stream) error {
	e.db = hermitdb.NewDB(hermitdb.PhysicalPointers)
	tb, err := e.db.CreateTable("syn", tableCols, colPK)
	if err != nil {
		return err
	}
	e.tb = tb
	s := streams[0]
	for li, k := range s.kIns {
		fillRow(e.row[:], s.pkOf(li), k, k)
		if _, err := tb.Insert(e.row[:]); err != nil {
			return fmt.Errorf("preload row %d: %w", li, err)
		}
	}
	t0 := time.Now()
	if _, err := tb.CreateBTreeIndex(colHost, false); err != nil {
		return err
	}
	e.hostBuild = time.Since(t0)
	t0 = time.Now()
	if e.hermit {
		_, err = tb.CreateHermitIndex(colKey, colHost)
	} else {
		_, err = tb.CreateBTreeIndex(colKey, true)
	}
	e.keyBuild = time.Since(t0)
	return err
}

func (e *embedded) exec(o *op) (int32, error) {
	switch o.kind {
	case opRange, opPoint:
		rids, _, err := e.tb.RangeQueryInto(colKey, o.lo, o.hi, e.dst)
		if err != nil {
			return 0, err
		}
		e.dst = rids
		return int32(len(rids)), nil
	case opInsert:
		fillRow(e.row[:], o.pk, o.k, o.k)
		_, err := e.tb.Insert(e.row[:])
		return 1, err
	case opUpdate:
		return 1, e.tb.UpdateColumn(float64(o.pk), colKey, colC(o.k))
	case opDelete:
		found, err := e.tb.Delete(float64(o.pk))
		if !found {
			return 0, err
		}
		return 1, err
	}
	return 0, fmt.Errorf("op kind %d not part of this workload", o.kind)
}

// betweenRounds reclaims dead row versions at fixed round counts, as an
// embedding application must (DB.GC); untimed, reported as engine.gc_ms.
func (e *embedded) betweenRounds(round int) {
	if e.gcEvery > 0 && round%e.gcEvery == 0 {
		t0 := time.Now()
		e.db.GC()
		e.gcWalls = append(e.gcWalls, float64(time.Since(t0).Microseconds())/1e3)
	}
}

func (e *embedded) space() spaceCensus {
	m := e.tb.Memory()
	return spaceCensus{indexBytes: m.NewBytes, tableBytes: m.TableBytes, liveRows: e.tb.Len()}
}

func (e *embedded) finish(*stream, *tally) (map[string]float64, error) { return nil, nil }

func (e *embedded) close() { e.db, e.tb = nil, nil }
