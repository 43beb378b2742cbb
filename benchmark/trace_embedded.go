package main

import (
	"time"

	hermitdb "hermit"
	"hermit/internal/hermit"
)

// Traced run of hermit-read and btree-read. The engine's own profile gives
// the phases of a query (TRS-Tree, host index, primary index, base table)
// and of an insert (table, existing indexes, new indexes); the TRS-Tree is
// also looked up again on its own for its structural counts.

var queryPhaseNames = []string{"trstree.Lookup", "btree.Scan", "btree.primary", "base-table"}
var insertPhaseNames = []string{"storage.Insert", "btree.Insert(existing)", "index.Insert(new)"}

func (e *embedded) beginTrace(*stream) error {
	e.tb.SetProfile(true)
	if !e.hermit {
		return nil
	}
	// Under physical pointers the Hermit lookup takes its profile switch at
	// creation (WithProfile), so the index is rebuilt with it on.
	if err := e.tb.DropIndex(colKey, hermitdb.KindHermit); err != nil {
		return err
	}
	_, err := e.tb.CreateHermitIndex(colKey, colHost, hermitdb.WithProfile())
	return err
}

// tracedQuery records one range or point query on tb: the end-to-end span,
// the engine's phases as its children, and the derived layer samples.
func tracedQuery(tb *hermitdb.Table, o *op, dst []hermitdb.RID, tr *tracer) ([]hermitdb.RID, error) {
	t0 := time.Now()
	rids, st, err := tb.RangeQueryInto(colKey, o.lo, o.hi, dst)
	t1 := time.Now()
	if err != nil {
		return rids, err
	}
	name, class := "engine.RangeQuery", "range"
	if o.kind == opPoint {
		name, class = "engine.PointQuery", "point"
	}
	root := tr.span(name, t0, t1, 0)
	bd := st.Breakdown
	inPhases := tr.phases(root, t0, queryPhaseNames, bd[:])
	wall := t1.Sub(t0)
	self := wall - inPhases

	onHermit := st.Path == hermitdb.PathHermit
	tr.add("path.queries", 1)
	switch st.Path {
	case hermitdb.PathHermit, hermitdb.PathTRSDirect:
		tr.add("path.hermit", 1)
	case hermitdb.PathBTree:
		tr.add("path.btree", 1)
	case hermitdb.PathScan:
		tr.add("path.scan", 1)
	}
	tr.add("time.total", us(wall))
	if onHermit {
		// TRS-Tree lookup and base-table validation are Hermit's own work;
		// host and primary index scans are the B+-trees'.
		tr.add("time.index", us(bd[hermit.PhaseTRSTree]+bd[hermit.PhaseBaseTable]))
		tr.add(class+".candidates", float64(st.Candidates))
		tr.add(class+".rows", float64(st.Rows))
	} else {
		// On the baseline the base-table phase is the engine's visibility
		// filter, not a validation of false positives.
		self += bd[hermit.PhaseBaseTable]
	}
	if o.kind == opRange {
		tr.sample("e2e.range_us", us(wall))
		tr.sample("phase.trstree_us", us(bd[hermit.PhaseTRSTree]))
		tr.sample("btree.scan_us", us(bd[hermit.PhaseHostIndex]))
		tr.sample("btree.primary_us", us(bd[hermit.PhasePrimaryIndex]))
		if onHermit {
			tr.sample("hermit.validate_us", us(bd[hermit.PhaseBaseTable]))
			tr.sample("phase.base_us", us(bd[hermit.PhaseBaseTable]))
		}
		tr.sample("engine.range_self_us", us(self))
	} else {
		tr.sample("engine.point_self_us", us(self))
	}
	if hx := tb.Hermit(colKey); hx != nil && o.kind == opRange {
		t2 := time.Now()
		res := hx.Tree().Lookup(o.lo, o.hi)
		t3 := time.Now()
		tr.span("trstree.Lookup(shadow)", t2, t3, 0)
		tr.sample("trstree.lookup_us", us(t3.Sub(t2)))
		tr.sample("trstree.leaves", float64(res.LeavesVisited))
		tr.sample("trstree.ranges", float64(len(res.Ranges)))
	}
	return rids, nil
}

// tracedInsert records one profiled insert on tb (hermitNew: the table's
// new index is a TRS-Tree, not a B+-tree).
func tracedInsert(tb *hermitdb.Table, row []float64, hermitNew bool, spanName string, tr *tracer) (time.Duration, error) {
	t0 := time.Now()
	_, ist, err := tb.InsertProfiled(row)
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	root := tr.span(spanName, t0, t1, 0)
	inPhases := tr.phases(root, t0, insertPhaseNames, []time.Duration{ist.Table, ist.Existing, ist.New})
	wall := t1.Sub(t0)
	tr.sample("storage.insert_us", us(ist.Table))
	if hermitNew {
		tr.sample("trstree.insert_us", us(ist.New))
		tr.sample("btree.insert_us", us(ist.Existing))
		tr.add("time.index", us(ist.New))
	} else {
		tr.sample("btree.insert_us", us(ist.Existing+ist.New))
	}
	tr.sample("engine.write_self_us", us(wall-inPhases))
	return wall, nil
}

func (e *embedded) execTraced(o *op, tr *tracer) (int32, error) {
	switch o.kind {
	case opRange, opPoint:
		rids, err := tracedQuery(e.tb, o, e.dst, tr)
		if err != nil {
			return 0, err
		}
		e.dst = rids
		return int32(len(rids)), nil
	case opInsert:
		fillRow(e.row[:], o.pk, o.k, o.k)
		wall, err := tracedInsert(e.tb, e.row[:], e.hermit, "engine.Insert", tr)
		tr.add("time.total", us(wall))
		return 1, err
	}
	// Updates and deletes have no profiled variant: one span, and their
	// time counts under the engine group.
	t0 := time.Now()
	got, err := e.exec(o)
	t1 := time.Now()
	name := "engine.UpdateColumn"
	if o.kind == opDelete {
		name = "engine.Delete"
	}
	tr.span(name, t0, t1, 0)
	tr.add("time.total", us(t1.Sub(t0)))
	return got, err
}

func (e *embedded) endTrace(_ *tracer, m map[string]float64) error {
	mem := e.tb.Memory()
	m["btree.build_s"] = e.hostBuild.Seconds()
	m["btree.size_bytes"] = float64(mem.ExistingBytes)
	if e.hermit {
		ts := e.tb.Hermit(colKey).Tree().Stats()
		m["trstree.build_s"] = e.keyBuild.Seconds()
		m["trstree.size_bytes"] = float64(ts.SizeBytes)
		m["trstree.leaves"] = float64(ts.Leaves)
		m["trstree.height"] = float64(ts.Height)
		m["trstree.outlier_frac"] = float64(ts.Outliers) / float64(max(e.tb.Len(), 1))
	} else {
		m["btree.build_s"] += e.keyBuild.Seconds()
		m["btree.size_bytes"] += float64(mem.NewBytes)
	}
	m["engine.gc_ms"] = median(e.gcWalls)
	return nil
}
