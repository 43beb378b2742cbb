// Package advisor is the self-tuning layer over the engine: a background
// loop that watches each table's observed query mix, discovers correlated
// column pairs from samples (internal/correlation over reservoir samples),
// and creates — or drops — secondary indexes on its own, choosing between a
// succinct Hermit index and a complete B+-tree with a cost model over size
// budget, estimated outlier ratio, and the observed workload. This is the
// paper's headline workflow made autonomous: the system, not the operator,
// decides where a TRS-Tree beats a complete index.
//
// The package speaks to the engine through the Catalog interface, so the
// same decision loop drives the in-memory DB and the durable (WAL-logged)
// engine; the engine side implements the interface and re-exports
// EnableAdvisor.
package advisor

import (
	"fmt"
	"sync"
	"time"

	"hermit/internal/correlation"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// IndexKind mirrors the engine's index-kind vocabulary without importing
// the engine (the engine imports this package). The adapter on the engine
// side converts.
type IndexKind int

// Index kinds, in the engine's order.
const (
	// KindNone means the column is unindexed.
	KindNone IndexKind = iota
	// KindBTree is a complete B+-tree secondary index.
	KindBTree
	// KindHermit is a Hermit (TRS-Tree + host) index.
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

// ColumnInfo is one column's observed state, as reported by the engine.
type ColumnInfo struct {
	// Name is the column name.
	Name string
	// Kind is the mechanism currently serving the column.
	Kind IndexKind
	// Queries counts predicates that targeted the column; Updates counts
	// single-column updates to it.
	Queries uint64
	Updates uint64
	// ObservedFP is the serving path's false-positive EWMA over
	// FPObservations queries.
	ObservedFP     float64
	FPObservations uint64
	// IndexBytes is the current footprint of the column's index (0 when
	// unindexed).
	IndexBytes uint64
}

// TableInfo is one table's advisor-facing snapshot.
type TableInfo struct {
	// Name is the table name; PKCol its primary-key column.
	Name  string
	PKCol int
	// Rows is the live row count; Writes the lifetime mutation count.
	Rows   int
	Writes uint64
	// PhysicalPointers reports the tuple-identifier scheme (the primary
	// index can host Hermit indexes only under physical pointers).
	PhysicalPointers bool
	// Columns holds per-column state, indexed by column position.
	Columns []ColumnInfo
}

// Catalog is the engine surface the advisor drives. Implementations must be
// safe for concurrent use with serving traffic; DDL calls are expected to
// quiesce queries themselves (and, on the durable engine, to WAL-log the
// change).
type Catalog interface {
	// TableNames lists the tables to advise.
	TableNames() []string
	// Info snapshots one table's columns, counters and index states.
	Info(table string) (TableInfo, error)
	// Store exposes the table's row store for sampling.
	Store(table string) (*storage.Table, error)
	// CreateHermitIndex builds a Hermit index on col hosted by host.
	CreateHermitIndex(table string, col, host int, params trstree.Params) error
	// CreateBTreeIndex builds a complete B+-tree index on col.
	CreateBTreeIndex(table string, col int) error
	// DropIndex removes the index of the given kind on col.
	DropIndex(table string, col int, kind IndexKind) error
}

// Options tunes the advisor. The zero value is usable: DefaultOptions
// documents the defaults applied by sanitize.
type Options struct {
	// Interval is the pause between background passes. Zero or negative
	// disables the background goroutine: the advisor only acts when
	// RunOnce is called (the deterministic mode tests use).
	Interval time.Duration
	// SampleSize caps rows sampled per candidate pair (default 2000).
	SampleSize int
	// SizeBudget caps the summed bytes of advisor-created indexes; index
	// creation is skipped when the estimate would exceed it. Zero means
	// unlimited.
	SizeBudget uint64
	// MinQueries is how many queries a column must attract before the
	// advisor considers indexing it (default 32).
	MinQueries uint64
	// MaxOutlierRatio rejects Hermit in favour of a complete B+-tree when
	// the estimated outlier ratio exceeds it (default 0.25).
	MaxOutlierRatio float64
	// MaxFPRate replaces an advisor-created Hermit index with a B+-tree
	// when its observed false-positive EWMA exceeds it over at least
	// fpReplaceObs queries (default 0.6).
	MaxFPRate float64
	// DropAfterPasses drops an advisor-created index after this many
	// consecutive passes with no queries on its column (0 disables).
	DropAfterPasses int
	// Discovery is the correlation-discovery configuration (defaulted via
	// correlation.DefaultConfig, with SampleSize aligned to SampleSize).
	Discovery correlation.Config
	// Params configures created TRS-Trees (default trstree.DefaultParams).
	Params trstree.Params
	// Seed makes sampling deterministic (default 1).
	Seed int64
}

// DefaultOptions returns the documented defaults with a 2s pass interval.
func DefaultOptions() Options {
	return Options{Interval: 2 * time.Second}.sanitize()
}

func (o Options) sanitize() Options {
	if o.SampleSize <= 0 {
		o.SampleSize = 2000
	}
	if o.MinQueries == 0 {
		o.MinQueries = 32
	}
	if o.MaxOutlierRatio <= 0 {
		o.MaxOutlierRatio = 0.25
	}
	if o.MaxFPRate <= 0 {
		o.MaxFPRate = 0.6
	}
	if o.Discovery.PearsonThreshold == 0 && o.Discovery.SpearmanThreshold == 0 {
		o.Discovery = correlation.DefaultConfig()
	}
	if o.Discovery.SampleSize == 0 || o.Discovery.SampleSize > o.SampleSize {
		o.Discovery.SampleSize = o.SampleSize
	}
	if o.Params.NodeFanout == 0 {
		o.Params = trstree.DefaultParams()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// fpReplaceObs is the minimum observation count before an observed
// false-positive EWMA is trusted enough to trigger a replacement.
const fpReplaceObs = 16

// ActionKind classifies one advisor decision.
type ActionKind int

const (
	// CreatedHermit means a Hermit index was built on (Col, Host).
	CreatedHermit ActionKind = iota
	// CreatedBTree means a complete B+-tree index was built on Col.
	CreatedBTree
	// DroppedIndex means an advisor-created index on Col was removed.
	DroppedIndex
	// ReplacedWithBTree means a misbehaving advisor Hermit on Col was
	// dropped and rebuilt as a complete B+-tree.
	ReplacedWithBTree
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	switch k {
	case CreatedHermit:
		return "create-hermit"
	case CreatedBTree:
		return "create-btree"
	case DroppedIndex:
		return "drop"
	default:
		return "replace-with-btree"
	}
}

// Action records one decision the advisor carried out.
type Action struct {
	// Table and Col locate the index; Host is the host column for
	// CreatedHermit (−1 otherwise).
	Table string
	Col   int
	Host  int
	// Kind says what was done.
	Kind ActionKind
	// Pearson/Spearman carry the discovery coefficients behind a creation.
	Pearson  float64
	Spearman float64
	// OutlierRatio is the estimate that picked Hermit versus B+-tree.
	OutlierRatio float64
	// Reason is a one-line account of the decision.
	Reason string
}

// Advisor runs the decision loop. Create one with New (or the engine's
// EnableAdvisor), call Start for background operation or RunOnce for a
// single deterministic pass, and Stop before discarding.
type Advisor struct {
	cat  Catalog
	opts Options

	// runMu serialises passes: the background ticker and manual RunOnce
	// calls never interleave a pass.
	runMu sync.Mutex

	mu      sync.Mutex
	actions []Action
	created map[ckey]*createdState
	// baseline records a column's query count at the moment its index was
	// dropped, so recreation requires MinQueries of *new* traffic rather
	// than re-counting the history that built the dropped index.
	baseline map[ckey]uint64
	// noHermit marks columns whose Hermit index was evicted for a bad
	// observed false-positive ratio: execution evidence outranks the
	// sample estimate (which cannot see the drift), so future creations
	// on the column go straight to a complete B+-tree.
	noHermit map[ckey]bool

	startOnce sync.Once
	stopOnce  sync.Once
	stopCh    chan struct{}
	doneCh    chan struct{}
}

type ckey struct {
	table string
	col   int
}

type createdState struct {
	kind      IndexKind
	queriesAt uint64 // column query count when last seen active
	idle      int    // consecutive passes without new queries
}

// New creates an advisor over the catalog. It does not start the
// background loop; call Start (EnableAdvisor does).
func New(cat Catalog, opts Options) *Advisor {
	return &Advisor{
		cat:      cat,
		opts:     opts.sanitize(),
		created:  make(map[ckey]*createdState),
		baseline: make(map[ckey]uint64),
		noHermit: make(map[ckey]bool),
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
}

// Start launches the background loop (a no-op when Options.Interval <= 0,
// i.e. manual mode, and on repeated calls).
func (a *Advisor) Start() {
	a.startOnce.Do(func() {
		if a.opts.Interval <= 0 {
			close(a.doneCh)
			return
		}
		go func() {
			defer close(a.doneCh)
			tick := time.NewTicker(a.opts.Interval)
			defer tick.Stop()
			for {
				select {
				case <-a.stopCh:
					return
				case <-tick.C:
					a.RunOnce() //nolint:errcheck // pass errors are per-column, surfaced via Actions
				}
			}
		}()
	})
}

// Stop halts the background loop and waits for an in-flight pass to finish.
// Safe to call in manual mode and more than once.
func (a *Advisor) Stop() {
	a.startOnce.Do(func() { close(a.doneCh) }) // never started: nothing to wait on
	a.stopOnce.Do(func() { close(a.stopCh) })
	<-a.doneCh
}

// Actions returns a copy of every action taken so far, oldest first.
func (a *Advisor) Actions() []Action {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Action(nil), a.actions...)
}

// RunOnce performs one full advisory pass over every table and returns the
// actions it took. Per-column failures (e.g. a losing DDL race) skip that
// column; only catalog-level failures return an error.
func (a *Advisor) RunOnce() ([]Action, error) {
	a.runMu.Lock()
	defer a.runMu.Unlock()
	var taken []Action
	var firstErr error
	for _, name := range a.cat.TableNames() {
		acts, err := a.adviseTable(name)
		taken = append(taken, acts...)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	a.mu.Lock()
	a.actions = append(a.actions, taken...)
	a.mu.Unlock()
	return taken, firstErr
}

// adviseTable runs the decision loop for one table.
func (a *Advisor) adviseTable(name string) ([]Action, error) {
	info, err := a.cat.Info(name)
	if err != nil {
		return nil, err
	}
	st, err := a.cat.Store(name)
	if err != nil {
		return nil, err
	}
	var taken []Action

	// Maintenance of advisor-created indexes first: replace Hermit indexes
	// whose observed false-positive ratio went bad (data drifted under
	// updates), drop indexes whose columns went idle.
	for col := range info.Columns {
		key := ckey{name, col}
		a.mu.Lock()
		cs := a.created[key]
		a.mu.Unlock()
		if cs == nil {
			continue
		}
		ci := info.Columns[col]
		if ci.Kind != cs.kind {
			// Someone else changed the index; stop tracking it.
			a.forget(key)
			continue
		}
		if cs.kind == KindHermit && ci.FPObservations >= fpReplaceObs && ci.ObservedFP > a.opts.MaxFPRate {
			if err := a.cat.DropIndex(name, col, KindHermit); err != nil {
				continue
			}
			a.forget(key)
			a.mu.Lock()
			a.baseline[key] = ci.Queries
			a.noHermit[key] = true
			a.mu.Unlock()
			why := fmt.Sprintf("observed fp %.2f over %d queries exceeds %.2f",
				ci.ObservedFP, ci.FPObservations, a.opts.MaxFPRate)
			// Record what actually happened: only a successful rebuild is a
			// replacement — otherwise the column is now unindexed and the
			// action must say so.
			act := Action{Table: name, Col: col, Host: -1, Kind: DroppedIndex,
				Reason: why + "; no replacement fits the budget"}
			if a.fitsBudget(info, uint64(info.Rows)*btreeBytesPerRow) {
				if err := a.cat.CreateBTreeIndex(name, col); err == nil {
					a.track(key, KindBTree, ci.Queries)
					act.Kind = ReplacedWithBTree
					act.Reason = why
				} else {
					act.Reason = why + "; B+-tree rebuild failed: " + err.Error()
				}
			}
			taken = append(taken, act)
			continue
		}
		if a.opts.DropAfterPasses > 0 {
			if ci.Queries == cs.queriesAt {
				cs.idle++
				if cs.idle >= a.opts.DropAfterPasses {
					if err := a.cat.DropIndex(name, col, cs.kind); err == nil {
						a.forget(key)
						a.mu.Lock()
						a.baseline[key] = ci.Queries
						a.mu.Unlock()
						taken = append(taken, Action{
							Table: name, Col: col, Host: -1, Kind: DroppedIndex,
							Reason: fmt.Sprintf("no queries for %d passes", cs.idle),
						})
					}
				}
			} else {
				cs.idle = 0
				cs.queriesAt = ci.Queries
			}
		}
	}

	// Creation: unindexed columns that attract enough queries (measured
	// from the last idle drop, if any, so a dropped index needs fresh
	// traffic to come back).
	hosts := a.hostColumns(info)
	for col, ci := range info.Columns {
		a.mu.Lock()
		base := a.baseline[ckey{name, col}]
		a.mu.Unlock()
		if ci.Kind != KindNone || col == info.PKCol || ci.Queries-base < a.opts.MinQueries {
			continue
		}
		act, ok := a.adviseColumn(name, st, info, col, hosts)
		if ok {
			taken = append(taken, act)
			// Refresh the snapshot so budget accounting sees the new index.
			if ninfo, err := a.cat.Info(name); err == nil {
				info = ninfo
			}
		}
	}
	return taken, nil
}

// hostColumns lists the columns that can host a Hermit index: every
// complete B+-tree column, plus the primary key under physical pointers.
func (a *Advisor) hostColumns(info TableInfo) []int {
	var hosts []int
	for col, ci := range info.Columns {
		if ci.Kind == KindBTree {
			hosts = append(hosts, col)
		}
	}
	if info.PhysicalPointers {
		hosts = append(hosts, info.PKCol)
	}
	return hosts
}

// Rough pre-creation size estimates, deliberately conservative: a complete
// B+-tree costs key+identifier+node overhead per row; a Hermit index costs
// a small tree plus its outlier buffers.
const (
	btreeBytesPerRow   = 32
	hermitBaseBytes    = 4096
	outlierBytesPerRow = 16
)

// adviseColumn decides and executes one column's index creation.
func (a *Advisor) adviseColumn(table string, st *storage.Table, info TableInfo, col int, hosts []int) (Action, bool) {
	rows := uint64(info.Rows)
	a.mu.Lock()
	vetoed := a.noHermit[ckey{table, col}]
	a.mu.Unlock()
	m, ok, err := correlation.BestHost(st, col, hosts, a.opts.Discovery)
	if err != nil {
		return Action{}, false
	}
	if vetoed {
		// A Hermit on this column already failed in production (observed
		// fp): execution evidence outranks the sample estimate.
		ok = false
	}
	var est OutlierEstimate
	haveEst := false
	if ok {
		e, eerr := EstimateOutlierRatio(st, col, m.Host, a.opts.SampleSize, a.opts.Seed)
		haveEst = eerr == nil
		est = e
		if haveEst && est.Ratio <= a.opts.MaxOutlierRatio {
			need := hermitBaseBytes + uint64(est.Ratio*float64(rows))*outlierBytesPerRow
			if a.fitsBudget(info, need) {
				if err := a.cat.CreateHermitIndex(table, col, m.Host, a.opts.Params); err != nil {
					return Action{}, false
				}
				a.track(ckey{table, col}, KindHermit, info.Columns[col].Queries)
				return Action{
					Table: table, Col: col, Host: m.Host, Kind: CreatedHermit,
					Pearson: m.Pearson, Spearman: m.Spearman, OutlierRatio: est.Ratio,
					Reason: fmt.Sprintf("%s correlation with %q (pearson %.3f, spearman %.3f), est. outliers %.1f%%",
						m.Kind, info.Columns[m.Host].Name, m.Pearson, m.Spearman, est.Ratio*100),
				}, true
			}
			return Action{}, false // over budget: a B+-tree would be bigger still
		}
		// Correlated but too many outliers: fall through to the B+-tree.
	}
	if !a.fitsBudget(info, rows*btreeBytesPerRow) {
		return Action{}, false
	}
	if err := a.cat.CreateBTreeIndex(table, col); err != nil {
		return Action{}, false
	}
	a.track(ckey{table, col}, KindBTree, info.Columns[col].Queries)
	reason := "no usable correlation with an indexed column"
	var outlierRatio float64
	if ok && haveEst {
		outlierRatio = est.Ratio
		reason = fmt.Sprintf("correlated with %q but est. outliers %.1f%% exceed %.1f%%",
			info.Columns[m.Host].Name, est.Ratio*100, a.opts.MaxOutlierRatio*100)
	}
	return Action{
		Table: table, Col: col, Host: -1, Kind: CreatedBTree,
		OutlierRatio: outlierRatio, Reason: reason,
	}, true
}

// fitsBudget reports whether adding need bytes of advisor-created indexes
// stays within the size budget.
func (a *Advisor) fitsBudget(info TableInfo, need uint64) bool {
	if a.opts.SizeBudget == 0 {
		return true
	}
	var used uint64
	a.mu.Lock()
	for key := range a.created {
		if key.table == info.Name && key.col < len(info.Columns) {
			used += info.Columns[key.col].IndexBytes
		}
	}
	a.mu.Unlock()
	return used+need <= a.opts.SizeBudget
}

func (a *Advisor) track(key ckey, kind IndexKind, queries uint64) {
	a.mu.Lock()
	a.created[key] = &createdState{kind: kind, queriesAt: queries}
	a.mu.Unlock()
}

func (a *Advisor) forget(key ckey) {
	a.mu.Lock()
	delete(a.created, key)
	a.mu.Unlock()
}
