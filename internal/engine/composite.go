package engine

import (
	"fmt"
	"sync"
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
		ACol: aCol, TargetCol: mCol, HostCol: nCol,
		Params: o.params, Profile: o.profile,
	})
	if err != nil {
		return nil, err
	}
	t.compositeHermits[key] = hx
	if t.compositeHostOf == nil {
		t.compositeHostOf = make(map[colPair]int)
	}
	t.compositeHostOf[key] = nCol
	return hx, nil
}

// CompositeHermit returns the composite Hermit index on (aCol, mCol), if any.
func (t *Table) CompositeHermit(aCol, mCol int) *hermit.CompositeIndex {
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	return t.compositeHermits[colPair{aCol, mCol}]
}

// lookup2Locked is Lookup's two-column case,
//
//	q.Lo <= q.Col <= q.Hi AND q.And.Lo <= q.And.Col <= q.And.Hi,
//
// with t.catalog held shared. Under PathAuto a composite Hermit index on
// (Col, And.Col) serves it, else a complete composite index; otherwise —
// and whenever q.Path is set — the first predicate runs on its own path and
// And filters the visible versions it returns (version rows are immutable,
// so the check is exact). Composite indexes are physical-pointer-only, so
// their candidates are version RIDs and visibility filters them directly.
func (t *Table) lookup2Locked(q Query, dst []storage.RID) ([]storage.RID, QueryStats, error) {
	key, and := colPair{q.Col, q.And.Col}, *q.And
	if q.Path == PathAuto {
		if hx, ok := t.compositeHermits[key]; ok {
			// The composite Hermit lookup traverses its self-latching TRS-Tree
			// plus the hosting composite B+-tree, which is engine-latched.
			hostMu := t.compositeMu.get(colPair{q.Col, t.compositeHostOf[key]})
			hostMu.RLock()
			res := hx.Lookup(q.Lo, q.Hi, and.Lo, and.Hi)
			hostMu.RUnlock()
			rids := t.filterVersions(q.Snap, res.RIDs, res.RIDs[:0]) // owned: filter in place
			return rids, QueryStats{
				Kind: KindHermit, Path: PathHermit, Rows: len(rids),
				Candidates: res.Candidates, Breakdown: res.Breakdown,
			}, nil
		}
		if tr, ok := t.composites[key]; ok {
			return t.compositeBaseline(q.Snap, tr, t.compositeMu.get(key), q.Lo, q.Hi, and.Lo, and.Hi)
		}
	}
	rids, st, err := t.lookupLocked(q, dst)
	if err != nil {
		return nil, st, err
	}
	out := rids[:0]
	for _, rid := range rids {
		v, err := t.store.Value(rid, and.Col)
		if err == nil && v >= and.Lo && v <= and.Hi {
			out = append(out, rid)
		}
	}
	st.Rows = len(out)
	return out, st, nil
}

// compositeBaseline is the conventional composite-index plan; mu is the
// scanned composite index's latch.
func (t *Table) compositeBaseline(snap *Snapshot, tr *btree.CompositeTree, mu *sync.RWMutex, aLo, aHi, bLo, bHi float64) ([]storage.RID, QueryStats, error) {
	st := QueryStats{Kind: KindBTree, Path: PathBTree}
	profile := t.profile.Load()
	var t0 time.Time
	if profile {
		t0 = time.Now()
	}
	var rids []storage.RID
	mu.RLock()
	tr.Scan(aLo, aHi, bLo, bHi, func(_, _ float64, id uint64) bool {
		rids = append(rids, storage.RID(id))
		return true
	})
	mu.RUnlock()
	if profile {
		st.Breakdown[hermit.PhaseHostIndex] += time.Since(t0)
		t0 = time.Now()
	}
	st.Candidates = len(rids)
	out := t.filterVersions(snap, rids, rids[:0]) // owned: filter in place
	if profile {
		st.Breakdown[hermit.PhaseBaseTable] += time.Since(t0)
	}
	st.Rows = len(out)
	return out, st, nil
}
