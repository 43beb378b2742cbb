package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"hermit/internal/btree"
	"hermit/internal/cm"
	"hermit/internal/correlation"
	"hermit/internal/hermit"
	"hermit/internal/keyorder"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// index is one secondary structure of a table as the catalog (Table.maint)
// keeps it: a one- or two-key B+-tree, a one- or two-column Hermit index, or
// a CM. It is looked up by col, and by and too when it serves two-column
// predicates (noCol when it does not). Its entries are made of columns a and
// b (a alone in a one-key tree) and each version's identifier
// (Table.identify): a Hermit index or CM on col over a host column is made of
// (col, host), a composite Hermit index on (col, and) over the (col, host)
// tree of (and, host). One of tree, hx and cx is set. mu is the structure's
// latch, nil for a Hermit index, whose TRS-Tree latches itself. hostMu, for a
// Hermit index or CM, is the latch of the structure its lookups scan, bound
// at creation: the host tree's, or mvccMu when the primary index hosts.
// Resolving it per query would pick up a B+-tree created on the host column
// later, while the lookup still scans the structure it was built on. fresh is
// Fig. 22b's "new" mark. An index does not change once catalogued.
type index struct {
	kind     IndexKind
	col, and int
	a, b     int
	tree     *btree.Tree
	hx       *hermit.Index
	cx       *cm.Index
	mu       *sync.RWMutex
	hostMu   *sync.RWMutex
	fresh    bool
}

// noCol is the second look-up column of an index on one column.
const noCol = -1

// find is the one resolve step from a predicate to the catalog: the index of
// kind looked up by col, and by and (noCol for a one-column predicate), or
// nil. The caller holds t.catalog.
func (t *Table) find(kind IndexKind, col, and int) *index {
	for i := range t.maint {
		if x := &t.maint[i]; x.kind == kind && x.col == col && x.and == and {
			return x
		}
	}
	return nil
}

// get returns a copy of find's index, or the zero index, under t.catalog.
func (t *Table) get(kind IndexKind, col, and int) index {
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	if x := t.find(kind, col, and); x != nil {
		return *x
	}
	return index{}
}

// add catalogues x, the pre-existing structures first, so that an insert
// times Fig. 22b's two splits apart; called with t.catalog held exclusively.
func (t *Table) add(x index) {
	at := len(t.maint)
	if !x.fresh {
		at = t.existing()
	}
	t.maint = slices.Insert(t.maint, at, x)
}

// existing counts the pre-existing structures, which lead t.maint.
func (t *Table) existing() int {
	n := 0
	for n < len(t.maint) && !t.maint[n].fresh {
		n++
	}
	return n
}

// validCols checks the columns of an index to create: each must exist, but
// and may be noCol. An index on two columns stores physical RIDs (its
// candidates reach the pass as version RIDs), so it needs physical pointers.
func (t *Table) validCols(and int, cols ...int) error {
	if and != noCol {
		cols = append(cols, and)
	}
	for _, c := range cols {
		if c < 0 || c >= len(t.cols) {
			return ErrNoSuchColumn
		}
	}
	if and != noCol && t.scheme != hermit.PhysicalPointers {
		return errors.New("engine: composite indexes require physical pointers")
	}
	return nil
}

// hostFor resolves the complete index that an index looked up by col (and
// and) rides on host: the B+-tree on host, or on (col, host) for a
// two-column index; failing that, for a one-column index hosted on the
// primary-key column, the primary index, which mvccMu latches. It returns
// the host and the latch the new index binds.
func (t *Table) hostFor(col, and, host int) (*btree.Tree, *sync.RWMutex, error) {
	a, b := host, noCol
	if and != noCol {
		a, b = col, host
	}
	if x := t.find(KindBTree, a, b); x != nil {
		return x.tree, x.mu, nil
	}
	if and == noCol && host == t.pkCol {
		// The primary index maps pk -> RID; under physical pointers it
		// already stores RIDs, so it can host directly.
		return t.primary, &t.mvccMu, nil
	}
	return nil, nil, ErrNoHostIndex
}

// CreateBTreeIndex builds a complete B+-tree secondary index on col via
// single-thread bulk loading (the baseline construction path of §7.5).
// markNew tags the index as "newly created" for the insert-cost breakdown.
func (t *Table) CreateBTreeIndex(col int, markNew bool) (*btree.Tree, error) {
	return t.createTree(col, noCol, markNew)
}

// CreateCompositeBTreeIndex bulk-builds a complete composite B+-tree index
// on (aCol, bCol) — the shape of the paper's (TIME, DJ) host index.
// Composite indexes store physical RIDs, so they require the physical
// tuple-identifier scheme.
func (t *Table) CreateCompositeBTreeIndex(aCol, bCol int, markNew bool) (*btree.Tree, error) {
	return t.createTree(aCol, bCol, markNew)
}

// createTree builds and catalogues the B+-tree on col, or on (col, and)
// unless and is noCol.
func (t *Table) createTree(col, and int, markNew bool) (*btree.Tree, error) {
	if err := t.validCols(and, col); err != nil {
		return nil, err
	}
	t.catalog.Lock()
	defer t.catalog.Unlock()
	if t.find(KindBTree, col, and) != nil {
		return nil, ErrDupIndex
	}
	b := col
	if and != noCol {
		b = and
	}
	tr, err := t.bulkTree(col, b, and != noCol)
	if err != nil {
		return nil, err
	}
	t.add(index{kind: KindBTree, col: col, and: and, a: col, b: b, tree: tr, mu: new(sync.RWMutex), fresh: markNew})
	return tr, nil
}

// bulkTree bulk-loads a complete B+-tree on column a, or, when two, a
// two-key tree on (a, b), of the rows' identifiers (Table.identify). The
// arrays the scan fills are sorted jointly: the build peak is the tree,
// them and the sort's records, which it drops before the load starts. The
// scan decodes a and b alone, and the primary key under logical pointers.
func (t *Table) bulkTree(a, b int, two bool) (*btree.Tree, error) {
	as := make([]float64, 0, t.store.Len())
	ids := make([]uint64, 0, t.store.Len())
	var bs []float64
	if two {
		bs = make([]float64, 0, t.store.Len())
	}
	key := a
	if t.scheme == hermit.LogicalPointers {
		key = t.pkCol
	}
	if err := t.store.ScanKeyed(a, b, key, func(rid storage.RID, va, vb, pk float64) bool {
		as = append(as, va)
		if two {
			bs = append(bs, vb)
		}
		ids = append(ids, t.identify(rid, pk))
		return true
	}); err != nil {
		return nil, err
	}
	tr := btree.New(btree.DefaultOrder)
	if two {
		keyorder.SortTriples(as, bs, ids)
		tr = btree.NewComposite(btree.DefaultOrder)
	} else {
		keyorder.SortPairs(as, ids)
	}
	return tr, tr.BulkLoadAB(as, bs, ids)
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
	return t.createHermit(col, noCol, hostCol, opts)
}

// CreateCompositeHermitIndex builds a multi-column Hermit index on
// (aCol, mCol) using the existing composite index on (aCol, nCol) as host
// (paper §3; the running example's (TIME, SP) over (TIME, DJ)).
func (t *Table) CreateCompositeHermitIndex(aCol, mCol, nCol int, opts ...HermitOption) (*hermit.Index, error) {
	return t.createHermit(aCol, mCol, nCol, opts)
}

// createHermit builds and catalogues the Hermit index looked up by col, and
// by and unless it is noCol, whose TRS-Tree models its target column — and,
// or col for a one-column index — against host, riding hostFor's index.
func (t *Table) createHermit(col, and, host int, opts []HermitOption) (*hermit.Index, error) {
	if err := t.validCols(and, col, host); err != nil {
		return nil, err
	}
	t.catalog.Lock()
	defer t.catalog.Unlock()
	if t.find(KindHermit, col, and) != nil {
		return nil, ErrDupIndex
	}
	hostTree, hostMu, err := t.hostFor(col, and, host)
	if err != nil {
		return nil, err
	}
	// Hosting on the primary-key column is only sound when its index stores
	// the identifier kind the Hermit lookup expects: under logical pointers
	// secondary indexes store keys, the primary index RIDs.
	if host == t.pkCol && t.scheme == hermit.LogicalPointers {
		return nil, fmt.Errorf("engine: primary index cannot host under logical pointers (stores RIDs, not pks)")
	}
	o := hermitOpts{params: trstree.DefaultParams()}
	for _, opt := range opts {
		opt(&o)
	}
	target := col
	if and != noCol {
		target = and
	}
	hx, err := hermit.New(t.store, hostTree, hermit.Config{
		TargetCol:    target,
		HostCol:      host,
		PKCol:        t.pkCol,
		Scheme:       t.scheme,
		Params:       o.params,
		BuildWorkers: o.workers,
	})
	if err != nil {
		return nil, err
	}
	t.add(index{kind: KindHermit, col: col, and: and, a: target, b: host, hx: hx, hostMu: hostMu, fresh: true})
	return hx, nil
}

// CreateIndexAuto implements the paper's index-creation flow (§3): on an
// index request for col, the engine runs correlation discovery against the
// already-indexed columns; if a usable correlation exists it builds a
// Hermit index on the best host, otherwise it falls back to a complete
// B+-tree. It returns the kind actually built.
func (t *Table) CreateIndexAuto(col int, disc correlation.Config, opts ...HermitOption) (IndexKind, error) {
	m, ok, err := correlation.BestHost(t.store, col, t.HostCols(), disc)
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

// HostCols lists, in ascending order, the columns an index can be hosted
// on: each with a complete one-column B+-tree, and the primary-key column
// under physical pointers, whose primary index stores RIDs (§5.2). Index
// creation's correlation discovery considers these.
func (t *Table) HostCols() []int {
	var hosts []int
	t.catalog.RLock()
	for _, x := range t.maint {
		if x.kind == KindBTree && x.and == noCol {
			hosts = append(hosts, x.col)
		}
	}
	t.catalog.RUnlock()
	if t.scheme == hermit.PhysicalPointers {
		hosts = append(hosts, t.pkCol)
	}
	slices.Sort(hosts)
	return hosts
}

// CreateCMIndex builds a Correlation Map index on col against hostCol, for
// the Appendix E comparison. Physical pointers only (as in CM's original
// evaluation).
func (t *Table) CreateCMIndex(col, hostCol int, cfg cm.Config) (*cm.Index, error) {
	if err := t.validCols(noCol, col, hostCol); err != nil {
		return nil, err
	}
	if t.scheme != hermit.PhysicalPointers {
		return nil, fmt.Errorf("engine: CM indexes require physical pointers")
	}
	t.catalog.Lock()
	defer t.catalog.Unlock()
	if t.find(KindCM, col, noCol) != nil {
		return nil, ErrDupIndex
	}
	host, hostMu, err := t.hostFor(col, noCol, hostCol)
	if err != nil {
		return nil, err
	}
	cfg.TargetCol, cfg.HostCol = col, hostCol
	cx, err := cm.NewIndex(t.store, host, cfg)
	if err != nil {
		return nil, err
	}
	t.add(index{kind: KindCM, col: col, and: noCol, a: col, b: hostCol, cx: cx, mu: new(sync.RWMutex), hostMu: hostMu, fresh: true})
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
	if kind != KindBTree && kind != KindHermit && kind != KindCM {
		return fmt.Errorf("%w: kind %v is not droppable", ErrNoSuchIndex, kind)
	}
	t.catalog.Lock()
	defer t.catalog.Unlock()
	x := t.find(kind, col, noCol)
	if x == nil {
		return fmt.Errorf("%w: no %v index on column %d", ErrNoSuchIndex, kind, col)
	}
	for _, d := range t.maint {
		if d.hostMu != nil && d.hostMu == x.mu {
			return fmt.Errorf("%w (%v on column %d)", ErrHostInUse, d.kind, d.col)
		}
	}
	t.resetPathStats(col, kind)
	gone := *x
	t.maint = slices.DeleteFunc(t.maint, func(y index) bool { return y == gone })
	return nil
}

// apply adds (put) or removes the entry of the version with identifier id,
// whose row is row. The call is a switch rather than a function value so
// that the row a write passes in stays on its stack.
func (x *index) apply(put bool, id uint64, row []float64) {
	a, b := row[x.a], row[x.b]
	if x.mu != nil {
		x.mu.Lock()
	}
	switch {
	case x.tree != nil && put:
		x.tree.InsertAB(a, b, id)
	case x.tree != nil:
		x.tree.DeleteAB(a, b, id)
	case x.cx != nil && put:
		x.cx.Insert(a, b)
	case x.cx != nil:
		x.cx.Delete(a, b)
	case put:
		x.hx.Insert(id, a, b)
	default:
		x.hx.Delete(id, a, b)
	}
	if x.mu != nil {
		x.mu.Unlock()
	}
}

// applyAll adds (put) or removes one version's entries in the structures
// of list.
func applyAll(list []index, put bool, id uint64, row []float64) {
	for i := range list {
		list[i].apply(put, id, row)
	}
}

// sizeBytes is the structure's footprint, read under its latch.
func (x *index) sizeBytes() uint64 {
	if x.mu != nil {
		x.mu.RLock()
		defer x.mu.RUnlock()
	}
	switch {
	case x.tree != nil:
		return x.tree.SizeBytes()
	case x.cx != nil:
		return x.cx.SizeBytes()
	}
	return x.hx.SizeBytes()
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
	for _, k := range [...]IndexKind{KindHermit, KindCM, KindBTree} {
		if t.find(k, col, noCol) != nil {
			return k
		}
	}
	if col == t.pkCol {
		return KindPrimary
	}
	return KindNone
}

// Hermit returns the Hermit index on col, if any.
func (t *Table) Hermit(col int) *hermit.Index { return t.get(KindHermit, col, noCol).hx }

// Secondary returns the complete B+-tree index on col, if any.
func (t *Table) Secondary(col int) *btree.Tree { return t.get(KindBTree, col, noCol).tree }

// CM returns the Correlation Map index on col, if any.
func (t *Table) CM(col int) *cm.Index { return t.get(KindCM, col, noCol).cx }

// CompositeHermit returns the composite Hermit index on (aCol, mCol), if any.
func (t *Table) CompositeHermit(aCol, mCol int) *hermit.Index {
	return t.get(KindHermit, aCol, mCol).hx
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
	for i := range t.maint {
		if x := &t.maint[i]; x.fresh {
			m.NewBytes += x.sizeBytes()
		} else {
			m.ExistingBytes += x.sizeBytes()
		}
	}
	return m
}
