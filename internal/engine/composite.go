package engine

import (
	"fmt"
	"time"

	"hermit/internal/btree"
	"hermit/internal/hermit"
	"hermit/internal/keyorder"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// colPair identifies a two-column index by its (leading, second) columns.
type colPair [2]int

// CreateCompositeBTreeIndex bulk-builds a complete composite B+-tree index
// on (aCol, bCol) — the shape of the paper's (TIME, DJ) host index.
// Composite indexes store physical RIDs, so they require the physical
// tuple-identifier scheme.
func (t *Table) CreateCompositeBTreeIndex(aCol, bCol int, markNew bool) (*btree.CompositeTree, error) {
	if aCol < 0 || aCol >= len(t.cols) || bCol < 0 || bCol >= len(t.cols) {
		return nil, ErrNoSuchColumn
	}
	if t.scheme != hermit.PhysicalPointers {
		return nil, fmt.Errorf("engine: composite indexes require physical pointers")
	}
	t.catalog.Lock()
	defer t.catalog.Unlock()
	key := colPair{aCol, bCol}
	if t.composites == nil {
		t.composites = make(map[colPair]*btree.CompositeTree)
	}
	if _, dup := t.composites[key]; dup {
		return nil, ErrDupIndex
	}
	// As in CreateBTreeIndex, fill the bulk-load arrays directly and sort
	// them jointly rather than staging an intermediate entries slice.
	as := make([]float64, 0, t.store.Len())
	bs := make([]float64, 0, t.store.Len())
	ids := make([]uint64, 0, t.store.Len())
	t.store.Scan(func(rid storage.RID, row []float64) bool {
		as = append(as, row[aCol])
		bs = append(bs, row[bCol])
		ids = append(ids, uint64(rid))
		return true
	})
	keyorder.SortTriples(as, bs, ids)
	tr := btree.NewComposite(btree.DefaultOrder)
	if err := tr.BulkLoad(as, bs, ids); err != nil {
		return nil, err
	}
	t.composites[key] = tr
	t.compositeMu.add(key)
	if markNew {
		if t.compositeNew == nil {
			t.compositeNew = make(map[colPair]bool)
		}
		t.compositeNew[key] = true
	}
	t.rebuildMaint()
	return tr, nil
}

// CreateCompositeHermitIndex builds a multi-column Hermit index on
// (aCol, mCol) using the existing composite index on (aCol, nCol) as host
// (paper §3; the running example's (TIME, SP) over (TIME, DJ)).
func (t *Table) CreateCompositeHermitIndex(aCol, mCol, nCol int, opts ...HermitOption) (*hermit.CompositeIndex, error) {
	if aCol < 0 || aCol >= len(t.cols) || mCol < 0 || mCol >= len(t.cols) || nCol < 0 || nCol >= len(t.cols) {
		return nil, ErrNoSuchColumn
	}
	if t.scheme != hermit.PhysicalPointers {
		return nil, fmt.Errorf("engine: composite indexes require physical pointers")
	}
	t.catalog.Lock()
	defer t.catalog.Unlock()
	host, ok := t.composites[colPair{aCol, nCol}]
	if !ok {
		return nil, ErrNoHostIndex
	}
	key := colPair{aCol, mCol}
	if t.compositeHermits == nil {
		t.compositeHermits = make(map[colPair]*hermit.CompositeIndex)
	}
	if _, dup := t.compositeHermits[key]; dup {
		return nil, ErrDupIndex
	}
	o := hermitOpts{params: trstree.DefaultParams()}
	for _, opt := range opts {
		opt(&o)
	}
	hx, err := hermit.NewComposite(t.store, host, hermit.CompositeConfig{
		ACol: aCol, TargetCol: mCol, HostCol: nCol, Params: o.params,
	})
	if err != nil {
		return nil, err
	}
	t.compositeHermits[key] = hx
	if t.compositeHostOf == nil {
		t.compositeHostOf = make(map[colPair]int)
	}
	t.compositeHostOf[key] = nCol
	t.rebuildMaint()
	return hx, nil
}

// CompositeHermit returns the composite Hermit index on (aCol, mCol), if any.
func (t *Table) CompositeHermit(aCol, mCol int) *hermit.CompositeIndex {
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	return t.compositeHermits[colPair{aCol, mCol}]
}

// run2Locked is run's two-column case,
//
//	q.Lo <= q.Col <= q.Hi AND q.And.Lo <= q.And.Col <= q.And.Hi,
//
// with t.catalog held shared. Under PathAuto a composite Hermit index on
// (Col, And.Col) serves it, else a complete composite index; otherwise —
// and whenever q.Path is set — the first predicate runs on its own path
// and the pass checks And on every row it copies. Composite indexes are
// physical-pointer-only, so their candidates are version RIDs.
func (t *Table) run2Locked(q Query, a *Answer, sc *queryScratch) (QueryStats, error) {
	n := len(a.RIDs)
	st, err := t.run2Path(q, a, sc)
	st.Rows = len(a.RIDs) - n // the pass counted the first predicate's rows
	return st, err
}

// run2Path runs run2Locked's access path and its pass.
func (t *Table) run2Path(q Query, a *Answer, sc *queryScratch) (QueryStats, error) {
	key := colPair{q.Col, q.And.Col}
	hx, hermitOK := t.compositeHermits[key]
	tr, btreeOK := t.composites[key]
	profile := t.profile.Load()
	switch {
	case q.Path != PathAuto || !hermitOK && !btreeOK:
		return t.runLocked(q, a, sc)
	case hermitOK:
		// The composite Hermit lookup traverses its self-latching TRS-Tree
		// plus the hosting composite B+-tree, which is engine-latched.
		st := QueryStats{Kind: KindHermit, Path: PathHermit}
		hostMu := t.compositeMu.get(colPair{q.Col, t.compositeHostOf[key]})
		hostMu.RLock()
		st.Breakdown = hx.Lookup(q.Lo, q.Hi, q.And.Lo, q.And.Hi, &sc.harvest, profile)
		hostMu.RUnlock()
		err := t.pass(q, sc.harvest.IDs, versionRIDs, false, sc, &st, a)
		return st, err
	}
	// The conventional composite-index plan: both predicates are the
	// index's own, so the pass checks neither (but for NaN bounds).
	st := QueryStats{Kind: KindBTree, Path: PathBTree}
	var t0 time.Time
	if profile {
		t0 = time.Now()
	}
	mu := t.compositeMu.get(key)
	sc.ids = sc.ids[:0]
	mu.RLock()
	tr.Scan(q.Lo, q.Hi, q.And.Lo, q.And.Hi, func(_, _ float64, id uint64) bool {
		sc.ids = append(sc.ids, id)
		return true
	})
	mu.RUnlock()
	if profile {
		st.Breakdown[hermit.PhaseHostIndex] += time.Since(t0)
	}
	if ordered(q.And.Lo, q.And.Hi) {
		q.And = nil
	}
	err := t.pass(q, sc.ids, versionRIDs, ordered(q.Lo, q.Hi), sc, &st, a)
	return st, err
}
