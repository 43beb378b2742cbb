package engine

import (
	"maps"
	"slices"

	"hermit/internal/advisor"
	"hermit/internal/hermit"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// This file binds the advisor's Catalog interface to the engine. The
// advisor package cannot import the engine (the engine imports it), so the
// engine implements the interface with one adapter over a DB's logical
// tables, whose DDL goes wherever the database sends it: straight into the
// DB, or through DurableDB's WAL, so that recovery replays advisor
// decisions like any operator DDL.

// AdvisorOptions configures the background advisor; see advisor.Options.
type AdvisorOptions = advisor.Options

// EnableAdvisor attaches a self-tuning advisor to the database and starts
// its background loop (Options.Interval <= 0 yields a manual advisor that
// only acts on RunOnce). The advisor samples tables, discovers correlated
// column pairs, and creates or drops Hermit/B+-tree indexes from the
// observed query mix — on every partition of a partitioned table at once;
// call Stop on the returned advisor to halt it.
func (db *DB) EnableAdvisor(opts AdvisorOptions) *advisor.Advisor {
	a := advisor.New(catalog{db, db}, opts)
	a.Start()
	return a
}

// EnableAdvisor is DB.EnableAdvisor for the durable engine: advisor DDL
// goes through the WAL-logged CreateIndex/DropIndex paths, so auto-created
// indexes survive close/reopen and crashes.
func (d *DurableDB) EnableAdvisor(opts AdvisorOptions) *advisor.Advisor {
	a := advisor.New(catalog{d.db, d}, opts)
	a.Start()
	return a
}

// advisorKind converts the engine's IndexKind to the advisor's mirror.
func advisorKind(k IndexKind) advisor.IndexKind {
	switch k {
	case KindBTree:
		return advisor.KindBTree
	case KindHermit:
		return advisor.KindHermit
	case KindCM:
		return advisor.KindCM
	case KindPrimary:
		return advisor.KindPrimary
	default:
		return advisor.KindNone
	}
}

// kindFromAdvisor converts the advisor's IndexKind mirror back to the
// engine's vocabulary.
func kindFromAdvisor(k advisor.IndexKind) IndexKind {
	switch k {
	case advisor.KindBTree:
		return KindBTree
	case advisor.KindHermit:
		return KindHermit
	case advisor.KindCM:
		return KindCM
	case advisor.KindPrimary:
		return KindPrimary
	default:
		return KindNone
	}
}

// advisorInfo snapshots the table for the advisor: per-column index kinds,
// workload counters, false-positive EWMAs and index footprints.
func (t *Table) advisorInfo() advisor.TableInfo {
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	info := advisor.TableInfo{
		Name:             t.name,
		PKCol:            t.pkCol,
		Rows:             t.store.Len(),
		Writes:           t.writes.Load(),
		PhysicalPointers: t.scheme == hermit.PhysicalPointers,
		Columns:          make([]advisor.ColumnInfo, len(t.cols)),
	}
	for col := range t.cols {
		rt := &t.runtime[col]
		kind := t.indexOnLocked(col)
		ci := advisor.ColumnInfo{
			Name:    t.cols[col],
			Kind:    advisorKind(kind),
			Queries: rt.queries.Load(),
			Updates: rt.updates.Load(),
		}
		if x := t.find(kind, col, noCol); x != nil {
			ci.IndexBytes = x.sizeBytes()
		}
		path := pathForKind(kind)
		ci.ObservedFP = ewmaValue(&rt.paths[path].fp)
		ci.FPObservations = rt.paths[path].fpObs.Load()
		info.Columns[col] = ci
	}
	return info
}

// catalog is the advisor's view of a database: its logical tables. A
// partitioned table is one table to it — counters summed over the
// partitions, false-positive EWMAs merged by observation weight, rows
// sampled from partition 0 (the primary-key hash makes any partition a
// uniform sample of the table) — and its DDL reaches every partition.
type catalog struct {
	db *DB
	// ddl is the DB itself, or the DurableDB that logs the DDL first.
	ddl interface {
		CreateIndex(table string, def IndexDef) error
		DropIndex(table string, col int, kind string) error
	}
}

func (c catalog) TableNames() []string { return slices.Sorted(maps.Keys(*c.db.tables.Load())) }

func (c catalog) Info(table string) (advisor.TableInfo, error) {
	l, err := c.db.named(table)
	if err != nil {
		return advisor.TableInfo{}, err
	}
	agg := l.phys[0].advisorInfo()
	agg.Name = table
	for _, p := range l.phys[1:] {
		in := p.advisorInfo()
		agg.Rows += in.Rows
		agg.Writes += in.Writes
		for i := range agg.Columns {
			a, b := &agg.Columns[i], in.Columns[i]
			a.Queries += b.Queries
			a.Updates += b.Updates
			a.IndexBytes += b.IndexBytes
			if tot := a.FPObservations + b.FPObservations; tot > 0 {
				a.ObservedFP = (a.ObservedFP*float64(a.FPObservations) +
					b.ObservedFP*float64(b.FPObservations)) / float64(tot)
				a.FPObservations = tot
			}
		}
	}
	return agg, nil
}

func (c catalog) Store(table string) (*storage.Table, error) {
	l, err := c.db.named(table)
	if err != nil {
		return nil, err
	}
	return l.phys[0].Store(), nil
}

func (c catalog) CreateHermitIndex(table string, col, host int, params trstree.Params) error {
	return c.ddl.CreateIndex(table, IndexDef{Kind: "hermit", Col: col, Host: host, Params: params})
}

func (c catalog) CreateBTreeIndex(table string, col int) error {
	return c.ddl.CreateIndex(table, IndexDef{Kind: "btree", Col: col, MarkNew: true})
}

func (c catalog) DropIndex(table string, col int, kind advisor.IndexKind) error {
	return c.ddl.DropIndex(table, col, kindFromAdvisor(kind).String())
}
