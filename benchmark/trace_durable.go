package main

import (
	"encoding/binary"
	"math"
	"os"
	"time"

	hermitdb "hermit"
	"hermit/internal/wal"
)

// Traced run of durable-write. DurableDB's write calls return no profile,
// so each write is applied a second time to a twin: an in-memory table
// with the same rows and indexes, which gives the engine and index cost of
// the same op (InsertProfiled), and the same record is appended to a
// scratch WAL, which gives the log's cost. What remains of the durable
// call is the durable layer's own time (latches, tickets, hand-off to the
// appender goroutine).
type durableShadow struct {
	twin *hermitdb.Table
	wal  *walShadow
}

// walShadow is a scratch log that receives the records the durable layer
// writes for the traced ops (SyncNever, the databases' own policy).
type walShadow struct {
	log     *wal.Log
	path    string
	payload [32]byte
	records int64
}

func openWalShadow(path string) (*walShadow, error) {
	log, err := wal.Open(path)
	if err != nil {
		return nil, err
	}
	return &walShadow{log: log, path: path}, nil
}

// append logs the record of one write op (vals: the inserted row) and
// returns the append's wall time.
func (sh *walShadow) append(table string, o *op, row []float64, tr *tracer) (time.Duration, error) {
	rec := wal.Record{Table: table}
	vals := row
	switch o.kind {
	case opInsert:
		rec.Op = wal.OpInsert
	case opUpdate:
		rec.Op, vals = wal.OpUpdate, []float64{float64(o.pk), colKey, colC(o.k)}
	default:
		rec.Op, vals = wal.OpDelete, []float64{float64(o.pk)}
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(sh.payload[i*8:], math.Float64bits(v))
	}
	rec.Payload = sh.payload[:len(vals)*8]
	t0 := time.Now()
	_, err := sh.log.Append(rec)
	t1 := time.Now()
	tr.span("wal.Append(shadow)", t0, t1, 0)
	tr.sample("wal.append_us", us(t1.Sub(t0)))
	sh.records++
	return t1.Sub(t0), err
}

// finish closes and removes the scratch log and returns its bytes per record.
func (sh *walShadow) finish() (float64, error) {
	per := float64(sh.log.Size()) / float64(max(sh.records, 1))
	err := sh.log.Close()
	os.Remove(sh.path)
	return per, err
}

func (s *durable) beginTrace(st *stream) error {
	s.tb.SetProfile(true)
	db := hermitdb.NewDB(hermitdb.LogicalPointers)
	twin, err := db.CreateTable(durableTable, tableCols, colPK)
	if err != nil {
		return err
	}
	for li, k := range st.kCur {
		if k < 0 {
			continue
		}
		fillRow(s.row[:], st.pkOf(li), st.kIns[li], k)
		if _, err := twin.Insert(s.row[:]); err != nil {
			return err
		}
	}
	if _, err := twin.CreateBTreeIndex(colHost, false); err != nil {
		return err
	}
	if _, err := twin.CreateHermitIndex(colKey, colHost); err != nil {
		return err
	}
	twin.SetProfile(true)
	ws, err := openWalShadow(s.dir + ".shadow-wal")
	if err != nil {
		return err
	}
	s.shadow = &durableShadow{twin: twin, wal: ws}
	return nil
}

func (s *durable) execTraced(o *op, tr *tracer) (int32, error) {
	sh := s.shadow
	switch o.kind {
	case opRange:
		rids, err := tracedQuery(s.tb, o, s.dst, tr)
		if err != nil {
			return 0, err
		}
		s.dst = rids
		return int32(len(rids)), nil
	case opPKRead, opColdRead:
		t0 := time.Now()
		got, err := s.exec(o)
		t1 := time.Now()
		tr.add("time.total", us(t1.Sub(t0)))
		if o.kind == opColdRead {
			tr.span("block.BlockRead", t0, t1, 0)
			tr.sample("block.cold_read_us", us(t1.Sub(t0)))
			tr.add("time.durable", us(t1.Sub(t0)))
		} else {
			tr.span("engine.PointQuery(pk)", t0, t1, 0)
			tr.sample("engine.point_self_us", us(t1.Sub(t0)))
		}
		return got, err
	}

	// A write: the durable call, then the same op on the twin and the same
	// record on the scratch log.
	t0 := time.Now()
	got, err := s.exec(o)
	t1 := time.Now()
	if err != nil {
		return got, err
	}
	tr.span("engine.DurableDB."+opNames[o.kind], t0, t1, 0)
	wall := t1.Sub(t0)
	var twinWall time.Duration
	if o.kind == opInsert {
		fillRow(s.row[:], o.pk, o.k, o.k)
		twinWall, err = tracedInsert(sh.twin, s.row[:], true, "engine.Insert(shadow)", tr)
	} else {
		t2 := time.Now()
		if o.kind == opUpdate {
			err = sh.twin.UpdateColumn(float64(o.pk), colKey, colC(o.k))
		} else {
			_, err = sh.twin.Delete(float64(o.pk))
		}
		t3 := time.Now()
		tr.span("engine."+opNames[o.kind]+"(shadow)", t2, t3, 0)
		twinWall = t3.Sub(t2)
	}
	if err != nil {
		return got, err
	}
	walWall, err := sh.wal.append(durableTable, o, s.row[:], tr)
	tr.sample("e2e.write_us", us(wall))
	tr.sample("engine.durable_self_us", us(wall-twinWall-walWall))
	tr.add("time.total", us(wall))
	tr.add("time.durable", us(max(wall-twinWall, 0)))
	return got, err
}

func (s *durable) endTrace(_ *tracer, m map[string]float64) error {
	sh := s.shadow
	s.shadow = nil
	var err error
	if m["wal.bytes_per_write"], err = sh.wal.finish(); err != nil {
		return err
	}
	// A short lap with fsync before every acknowledgement: what SyncAlways
	// would cost per write on this sandbox's disk (page cache, not a device).
	fsyncPath := s.dir + ".shadow-fsync"
	defer os.Remove(fsyncPath)
	fsyncLog, err := wal.OpenWith(fsyncPath, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	var laps []float64
	rec := wal.Record{Op: wal.OpInsert, Table: durableTable, Payload: make([]byte, 32)}
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := fsyncLog.Append(rec); err != nil {
			fsyncLog.Close()
			return err
		}
		laps = append(laps, us(time.Since(t0)))
	}
	if err := fsyncLog.Close(); err != nil {
		return err
	}
	m["wal.fsync_append_us"] = median(laps)
	ts := s.tb.Hermit(colKey).Tree().Stats()
	m["trstree.size_bytes"] = float64(ts.SizeBytes)
	m["trstree.leaves"] = float64(ts.Leaves)
	m["trstree.height"] = float64(ts.Height)
	m["trstree.outlier_frac"] = float64(ts.Outliers) / float64(max(s.tb.Len(), 1))
	return nil
}
