package engine

import (
	"hermit/internal/advisor"
	"hermit/internal/hermit"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// This file binds the advisor's Catalog interface to the two engines. The
// advisor package cannot import the engine (the engine imports it), so the
// engine implements the interface with thin adapters: one over the
// in-memory DB (DDL straight into the catalog) and one over DurableDB
// (DDL through the quiesce-and-WAL path, so advisor decisions are
// replayed by recovery like any operator DDL).

// AdvisorOptions configures the background advisor; see advisor.Options.
type AdvisorOptions = advisor.Options

// EnableAdvisor attaches a self-tuning advisor to the database and starts
// its background loop (Options.Interval <= 0 yields a manual advisor that
// only acts on RunOnce). The advisor samples tables, discovers correlated
// column pairs, and creates or drops Hermit/B+-tree indexes from the
// observed query mix; call Stop on the returned advisor to halt it.
func (db *DB) EnableAdvisor(opts AdvisorOptions) *advisor.Advisor {
	a := advisor.New(dbCatalog{db}, opts)
	a.Start()
	return a
}

// EnableAdvisor is DB.EnableAdvisor for the durable engine: advisor DDL
// goes through the WAL-logged CreateIndex/DropIndex paths, so auto-created
// indexes survive close/reopen and crashes.
func (d *DurableDB) EnableAdvisor(opts AdvisorOptions) *advisor.Advisor {
	a := advisor.New(durableCatalog{d}, opts)
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

// KindFromAdvisor converts the advisor's IndexKind mirror back to the
// engine's vocabulary — shared by the engine's Catalog adapters and by
// internal/partition's.
func KindFromAdvisor(k advisor.IndexKind) IndexKind {
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

// AdvisorInfo snapshots the table for the advisor: per-column index kinds,
// workload counters, false-positive EWMAs and index footprints. It is the
// Catalog.Info building block shared by the engine's adapters and by
// internal/partition, which aggregates one snapshot per partition.
func (t *Table) AdvisorInfo() advisor.TableInfo {
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

// dbCatalog adapts the in-memory DB.
type dbCatalog struct{ db *DB }

func (c dbCatalog) TableNames() []string {
	c.db.mu.RLock()
	defer c.db.mu.RUnlock()
	names := make([]string, 0, len(c.db.tables))
	for name := range c.db.tables {
		names = append(names, name)
	}
	return names
}

func (c dbCatalog) Info(table string) (advisor.TableInfo, error) {
	tb, err := c.db.Table(table)
	if err != nil {
		return advisor.TableInfo{}, err
	}
	return tb.AdvisorInfo(), nil
}

func (c dbCatalog) Store(table string) (*storage.Table, error) {
	tb, err := c.db.Table(table)
	if err != nil {
		return nil, err
	}
	return tb.Store(), nil
}

func (c dbCatalog) CreateHermitIndex(table string, col, host int, params trstree.Params) error {
	tb, err := c.db.Table(table)
	if err != nil {
		return err
	}
	_, err = tb.CreateHermitIndex(col, host, WithParams(params))
	return err
}

func (c dbCatalog) CreateBTreeIndex(table string, col int) error {
	tb, err := c.db.Table(table)
	if err != nil {
		return err
	}
	_, err = tb.CreateBTreeIndex(col, true)
	return err
}

func (c dbCatalog) DropIndex(table string, col int, kind advisor.IndexKind) error {
	tb, err := c.db.Table(table)
	if err != nil {
		return err
	}
	return tb.DropIndex(col, KindFromAdvisor(kind))
}

// durableCatalog adapts DurableDB: DDL goes through the quiesced,
// WAL-logged paths.
type durableCatalog struct{ d *DurableDB }

func (c durableCatalog) TableNames() []string {
	c.d.mu.RLock()
	defer c.d.mu.RUnlock()
	names := make([]string, 0, len(c.d.tables))
	for name, meta := range c.d.tables {
		// Partitioned tables are advised through their scatter-gather
		// wrapper (internal/partition), which aggregates per-partition
		// counters; the logical name has no single engine table behind it.
		if meta.Partitions > 0 {
			continue
		}
		names = append(names, name)
	}
	return names
}

func (c durableCatalog) Info(table string) (advisor.TableInfo, error) {
	tb, err := c.d.Table(table)
	if err != nil {
		return advisor.TableInfo{}, err
	}
	return tb.AdvisorInfo(), nil
}

func (c durableCatalog) Store(table string) (*storage.Table, error) {
	tb, err := c.d.Table(table)
	if err != nil {
		return nil, err
	}
	return tb.Store(), nil
}

func (c durableCatalog) CreateHermitIndex(table string, col, host int, params trstree.Params) error {
	return c.d.CreateIndex(table, IndexDef{Kind: "hermit", Col: col, Host: host, Params: params})
}

func (c durableCatalog) CreateBTreeIndex(table string, col int) error {
	return c.d.CreateIndex(table, IndexDef{Kind: "btree", Col: col, MarkNew: true})
}

func (c durableCatalog) DropIndex(table string, col int, kind advisor.IndexKind) error {
	return c.d.DropIndex(table, col, KindFromAdvisor(kind).String())
}
