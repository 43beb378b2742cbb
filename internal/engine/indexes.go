package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"hermit/internal/btree"
	"hermit/internal/cm"
	"hermit/internal/correlation"
	"hermit/internal/hermit"
	"hermit/internal/keyorder"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// CreateBTreeIndex builds a complete B+-tree secondary index on col via
// single-thread bulk loading (the baseline construction path of §7.5).
// markNew tags the index as "newly created" for the insert-cost breakdown.
func (t *Table) CreateBTreeIndex(col int, markNew bool) (*btree.Tree, error) {
	if col < 0 || col >= len(t.cols) {
		return nil, ErrNoSuchColumn
	}
	t.catalog.Lock()
	defer t.catalog.Unlock()
	if _, dup := t.secondary[col]; dup {
		return nil, ErrDupIndex
	}
	// Fill the key/id arrays BulkLoad consumes straight from the scan and
	// sort them jointly. The build peak is the tree, this pair of arrays and
	// SortPairs' two record arrays of the same size each, which the sort
	// drops before the load starts.
	keys := make([]float64, 0, t.store.Len())
	ids := make([]uint64, 0, t.store.Len())
	t.store.Scan(func(rid storage.RID, row []float64) bool {
		keys = append(keys, row[col])
		ids = append(ids, t.identify(rid, row))
		return true
	})
	keyorder.SortPairs(keys, ids)
	tr := btree.New(btree.DefaultOrder)
	if err := tr.BulkLoad(keys, ids); err != nil {
		return nil, err
	}
	t.secondary[col] = tr
	t.secondaryMu.add(col)
	if markNew {
		t.newCols[col] = true
	}
	t.rebuildMaint()
	return tr, nil
}

// HermitOption customises Hermit index creation.
type HermitOption func(*hermitOpts)

type hermitOpts struct {
	params  trstree.Params
	workers int
}

// WithParams overrides the TRS-Tree parameters (default: paper defaults).
func WithParams(p trstree.Params) HermitOption {
	return func(o *hermitOpts) { o.params = p }
}

// WithBuildWorkers enables parallel TRS-Tree construction.
func WithBuildWorkers(n int) HermitOption {
	return func(o *hermitOpts) { o.workers = n }
}

// WithProfile does nothing: per-phase timing is the table's one switch,
// SetProfile. It stays only because benchmark/ passes it, and goes with
// benchmark v2.
func WithProfile() HermitOption {
	return func(*hermitOpts) {}
}

// CreateHermitIndex builds a Hermit index on col using hostCol's complete
// index as the host. The host column must already carry a B+-tree index
// (or be the primary key, which §5.2 notes can serve as the host).
func (t *Table) CreateHermitIndex(col, hostCol int, opts ...HermitOption) (*hermit.Index, error) {
	if col < 0 || col >= len(t.cols) || hostCol < 0 || hostCol >= len(t.cols) {
		return nil, ErrNoSuchColumn
	}
	t.catalog.Lock()
	defer t.catalog.Unlock()
	if _, dup := t.hermits[col]; dup {
		return nil, ErrDupIndex
	}
	host, ok := t.secondary[hostCol]
	if !ok {
		if hostCol == t.pkCol {
			// The primary index maps pk -> RID; under physical pointers it
			// already stores RIDs, so it can host directly. Under logical
			// pointers secondary indexes store pks, and an index on the pk
			// column storing pks is the identity — host on primary either way.
			host = t.primary
		} else {
			return nil, ErrNoHostIndex
		}
	}
	o := hermitOpts{params: trstree.DefaultParams()}
	for _, opt := range opts {
		opt(&o)
	}
	cfg := hermit.Config{
		TargetCol:    col,
		HostCol:      hostCol,
		PKCol:        t.pkCol,
		Scheme:       t.scheme,
		Params:       o.params,
		BuildWorkers: o.workers,
	}
	// Hosting on the primary index is only sound when it stores the same
	// identifier kind the Hermit lookup expects.
	if hostCol == t.pkCol && t.scheme == hermit.LogicalPointers {
		return nil, fmt.Errorf("engine: primary index cannot host under logical pointers (stores RIDs, not pks)")
	}
	hx, err := hermit.New(t.store, host, cfg)
	if err != nil {
		return nil, err
	}
	t.hermits[col] = hx
	t.hostOf[col] = hostCol
	// Bind the latch of the structure the lookup will actually scan.
	t.hermitHostMu[col] = t.hostLatchFor(hostCol, host)
	t.rebuildMaint()
	return hx, nil
}

// CreateIndexAuto implements the paper's index-creation flow (§3): on an
// index request for col, the engine runs correlation discovery against the
// already-indexed columns; if a usable correlation exists it builds a
// Hermit index on the best host, otherwise it falls back to a complete
// B+-tree. It returns the kind actually built.
func (t *Table) CreateIndexAuto(col int, disc correlation.Config, opts ...HermitOption) (IndexKind, error) {
	t.catalog.RLock()
	hosts := make([]int, 0, len(t.secondary))
	for hc := range t.secondary {
		hosts = append(hosts, hc)
	}
	t.catalog.RUnlock()
	if t.scheme == hermit.PhysicalPointers {
		hosts = append(hosts, t.pkCol)
	}
	sort.Ints(hosts)
	m, ok, err := correlation.BestHost(t.store, col, hosts, disc)
	if err != nil {
		return KindNone, err
	}
	if ok {
		if _, err := t.CreateHermitIndex(col, m.Host, opts...); err != nil {
			return KindNone, err
		}
		return KindHermit, nil
	}
	if _, err := t.CreateBTreeIndex(col, true); err != nil {
		return KindNone, err
	}
	return KindBTree, nil
}

// CreateCMIndex builds a Correlation Map index on col against hostCol, for
// the Appendix E comparison. Physical pointers only (as in CM's original
// evaluation).
func (t *Table) CreateCMIndex(col, hostCol int, cfg cm.Config) (*cm.Index, error) {
	if col < 0 || col >= len(t.cols) || hostCol < 0 || hostCol >= len(t.cols) {
		return nil, ErrNoSuchColumn
	}
	t.catalog.Lock()
	defer t.catalog.Unlock()
	if _, dup := t.cms[col]; dup {
		return nil, ErrDupIndex
	}
	if t.scheme != hermit.PhysicalPointers {
		return nil, fmt.Errorf("engine: CM indexes require physical pointers")
	}
	host, ok := t.secondary[hostCol]
	if !ok {
		if hostCol != t.pkCol {
			return nil, ErrNoHostIndex
		}
		host = t.primary
	}
	cfg.TargetCol, cfg.HostCol = col, hostCol
	cx, err := cm.NewIndex(t.store, host, cfg)
	if err != nil {
		return nil, err
	}
	t.cms[col] = cx
	t.cmMu.add(col)
	t.cmHostOf[col] = hostCol
	t.cmHostMu[col] = t.hostLatchFor(hostCol, host)
	t.rebuildMaint()
	return cx, nil
}

// Errors returned by DropIndex.
var (
	// ErrNoSuchIndex is returned when no index of the requested kind exists
	// on the column.
	ErrNoSuchIndex = errors.New("engine: no such index")
	// ErrHostInUse is returned when a complete index still hosts a Hermit
	// or CM index; drop the dependents first.
	ErrHostInUse = errors.New("engine: index hosts a Hermit or CM index; drop dependents first")
)

// DropIndex removes the index of the given kind (KindBTree, KindHermit or
// KindCM) from col. A complete B+-tree cannot be dropped while a Hermit or
// CM index is bound to it as a host (the dependents' lookups scan it), and
// primary/composite indexes cannot be dropped at all. DDL takes the catalog
// latch exclusively, so in-flight queries drain before the structure goes
// away. It is the advisor's reclamation hook, but callers can use it
// directly.
func (t *Table) DropIndex(col int, kind IndexKind) error {
	if col < 0 || col >= len(t.cols) {
		return ErrNoSuchColumn
	}
	t.catalog.Lock()
	defer t.catalog.Unlock()
	switch kind {
	case KindHermit:
		if t.hermits[col] == nil {
			return fmt.Errorf("%w: no hermit index on column %d", ErrNoSuchIndex, col)
		}
		delete(t.hermits, col)
		delete(t.hostOf, col)
		delete(t.hermitHostMu, col)
		t.resetPathStats(col, PathHermit, PathTRSDirect)
	case KindCM:
		if t.cms[col] == nil {
			return fmt.Errorf("%w: no cm index on column %d", ErrNoSuchIndex, col)
		}
		delete(t.cms, col)
		delete(t.cmHostOf, col)
		delete(t.cmHostMu, col)
		t.resetPathStats(col, PathCM)
	case KindBTree:
		if t.secondary[col] == nil {
			return fmt.Errorf("%w: no btree index on column %d", ErrNoSuchIndex, col)
		}
		for target, host := range t.hostOf {
			if host == col {
				return fmt.Errorf("%w (hermit on column %d)", ErrHostInUse, target)
			}
		}
		for target, host := range t.cmHostOf {
			if host == col {
				return fmt.Errorf("%w (cm on column %d)", ErrHostInUse, target)
			}
		}
		delete(t.secondary, col)
		delete(t.newCols, col)
		t.resetPathStats(col, PathBTree)
		// The latchSet entry stays: queries racing past DDL resolve the
		// column's structures under the catalog latch and find the map
		// empty, never the latch.
	default:
		return fmt.Errorf("%w: kind %v is not droppable", ErrNoSuchIndex, kind)
	}
	t.rebuildMaint()
	return nil
}

// maintainer keeps one secondary structure in step with the table's
// versions. One of tree, comp, cx and hx is set; an entry is made of columns
// a and b (a alone for a complete index, whose entries carry the version's
// identifier under the table's pointer scheme, Table.identify) and mu is the
// structure's write latch, nil for a Hermit index, whose TRS-Tree latches
// itself. The call is a switch rather than a function value so that the row
// a write passes in stays on its stack.
type maintainer struct {
	a, b int
	mu   *sync.RWMutex
	tree *btree.Tree
	comp *btree.CompositeTree
	cx   *cm.Index
	hx   interface { // *hermit.Index or *hermit.CompositeIndex
		Insert(id uint64, m, n float64)
		Delete(id uint64, m, n float64)
	}
}

// apply adds (put) or removes the entry of the version rid, whose row is row.
func (m *maintainer) apply(put bool, rid storage.RID, id uint64, row []float64) {
	a, b := row[m.a], row[m.b]
	if m.mu != nil {
		m.mu.Lock()
	}
	switch {
	case m.tree != nil && put:
		m.tree.Insert(a, id)
	case m.tree != nil:
		m.tree.Delete(a, id)
	case m.comp != nil && put:
		m.comp.Insert(a, b, uint64(rid))
	case m.comp != nil:
		m.comp.Delete(a, b, uint64(rid))
	case m.cx != nil && put:
		m.cx.Insert(a, b)
	case m.cx != nil:
		m.cx.Delete(a, b)
	case put:
		m.hx.Insert(id, a, b)
	default:
		m.hx.Delete(id, a, b)
	}
	if m.mu != nil {
		m.mu.Unlock()
	}
}

// maintainers is every secondary structure of a table as one list, in the
// order of Fig. 22b's insert-cost breakdown: the pre-existing complete
// indexes (the first split), then the newly created ones — complete indexes
// marked new, Hermit indexes, Correlation Maps and composite indexes. It is
// built under the catalog's write latch by every DDL (Table.rebuildMaint)
// and only read between, so a write walks one slice, and a table with no
// secondary structure walks nothing.
type maintainers struct {
	all   []maintainer
	split int
}

func (m *maintainers) existing() []maintainer { return m.all[:m.split] }
func (m *maintainers) fresh() []maintainer    { return m.all[m.split:] }

// applyAll adds (put) or removes one version's entries in the structures
// of list.
func applyAll(list []maintainer, put bool, rid storage.RID, id uint64, row []float64) {
	for i := range list {
		list[i].apply(put, rid, id, row)
	}
}

// rebuildMaint rebuilds t.maint from the index maps; every DDL calls it
// with t.catalog held exclusively.
func (t *Table) rebuildMaint() {
	var existing, fresh []maintainer
	for col, tr := range t.secondary {
		m := maintainer{a: col, b: col, mu: t.secondaryMu.get(col), tree: tr}
		if t.newCols[col] {
			fresh = append(fresh, m)
		} else {
			existing = append(existing, m)
		}
	}
	for col, hx := range t.hermits {
		fresh = append(fresh, maintainer{a: col, b: t.hostOf[col], hx: hx})
	}
	for col, cx := range t.cms {
		fresh = append(fresh, maintainer{a: col, b: t.cmHostOf[col], mu: t.cmMu.get(col), cx: cx})
	}
	for key, tr := range t.composites {
		fresh = append(fresh, maintainer{a: key[0], b: key[1], mu: t.compositeMu.get(key), comp: tr})
	}
	for key, hx := range t.compositeHermits {
		fresh = append(fresh, maintainer{a: key[1], b: t.compositeHostOf[key], hx: hx})
	}
	t.maint = maintainers{all: append(existing, fresh...), split: len(existing)}
}

// IndexKind identifies which mechanism serves a column.
type IndexKind int

const (
	// KindNone means the column has no index (queries fall back to scans).
	KindNone IndexKind = iota
	// KindBTree is a complete B+-tree secondary index (the Baseline).
	KindBTree
	// KindHermit is a Hermit (TRS-Tree + host index) index.
	KindHermit
	// KindCM is a Correlation Map index.
	KindCM
	// KindPrimary is the primary index.
	KindPrimary
)

// String implements fmt.Stringer.
func (k IndexKind) String() string {
	switch k {
	case KindBTree:
		return "btree"
	case KindHermit:
		return "hermit"
	case KindCM:
		return "cm"
	case KindPrimary:
		return "primary"
	default:
		return "none"
	}
}

// IndexOn reports which index mechanism serves col: Hermit, then CM, then
// a complete B+-tree, then the primary index. The planner may still run a
// query on another path (Explain).
func (t *Table) IndexOn(col int) IndexKind {
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	return t.indexOnLocked(col)
}

// indexOnLocked is IndexOn with t.catalog already held.
func (t *Table) indexOnLocked(col int) IndexKind {
	switch {
	case t.hermits[col] != nil:
		return KindHermit
	case t.cms[col] != nil:
		return KindCM
	case t.secondary[col] != nil:
		return KindBTree
	case col == t.pkCol:
		return KindPrimary
	default:
		return KindNone
	}
}

// Hermit returns the Hermit index on col, if any.
func (t *Table) Hermit(col int) *hermit.Index {
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	return t.hermits[col]
}

// Secondary returns the complete B+-tree index on col, if any.
func (t *Table) Secondary(col int) *btree.Tree {
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	return t.secondary[col]
}

// CM returns the Correlation Map index on col, if any.
func (t *Table) CM(col int) *cm.Index {
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	return t.cms[col]
}

// MemoryStats is the storage breakdown the paper's memory figures report,
// plus the engine's own MVCC bookkeeping.
type MemoryStats struct {
	TableBytes    uint64
	PrimaryBytes  uint64
	ExistingBytes uint64 // complete secondary indexes not marked new
	NewBytes      uint64 // new complete indexes + Hermit TRS-Trees + CMs
	// VersionBytes is the MVCC version table (mvcc.go): a frozen bit per
	// store slot (and an unflushed bit, on a table that flushes deltas), the
	// header granules of the slots that keep a header, the queue of ended
	// versions and the list of unflushed deletes. It is not part of the
	// paper's breakdown, so Total leaves it out.
	VersionBytes uint64
}

// Total returns the footprint the paper's figures sum: table and indexes.
func (m MemoryStats) Total() uint64 {
	return m.TableBytes + m.PrimaryBytes + m.ExistingBytes + m.NewBytes
}

// Memory returns the table's memory breakdown.
func (t *Table) Memory() MemoryStats {
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	var m MemoryStats
	m.TableBytes = t.store.SizeBytes()
	m.VersionBytes = t.versionBytes()
	t.mvccMu.RLock()
	m.PrimaryBytes = t.primary.SizeBytes()
	t.mvccMu.RUnlock()
	for col, tr := range t.secondary {
		mu := t.secondaryMu.get(col)
		mu.RLock()
		sz := tr.SizeBytes()
		mu.RUnlock()
		if t.newCols[col] {
			m.NewBytes += sz
		} else {
			m.ExistingBytes += sz
		}
	}
	for _, hx := range t.hermits {
		m.NewBytes += hx.SizeBytes() // TRS-Tree self-latches
	}
	for col, cx := range t.cms {
		mu := t.cmMu.get(col)
		mu.RLock()
		m.NewBytes += cx.SizeBytes()
		mu.RUnlock()
	}
	for key, tr := range t.composites {
		mu := t.compositeMu.get(key)
		mu.RLock()
		sz := tr.SizeBytes()
		mu.RUnlock()
		if t.compositeNew[key] {
			m.NewBytes += sz
		} else {
			m.ExistingBytes += sz
		}
	}
	for _, hx := range t.compositeHermits {
		m.NewBytes += hx.SizeBytes()
	}
	return m
}
