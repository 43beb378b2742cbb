// Package difftest is the model-based differential fuzz harness that keeps
// the growing engine provably equivalent to a trivial oracle (in the
// spirit of in-database model checking à la Wang & Wang, arXiv:2204.09819):
// a seeded random operation stream — inserts, deletes, single-column
// updates, point and range queries over schemas with correlated columns
// from internal/workload — is applied simultaneously to a plain-map model
// and to a real database configuration, and every result is compared
// exactly. Because every value is a float64 that both sides store
// bit-identically, comparisons are exact equality, never tolerance-based.
//
// The harness runs the same stream against several configurations (see
// Configs). Most are one system, a table of an engine.DB (dbSystem): in
// memory, plain or hash-partitioned — both also answering every query once
// per access path the planner lists (Query.Path), on one snapshot — or
// durable, plain or partitioned, closed, reopened and checkpointed
// mid-stream, asserting the recovered state still matches the oracle row
// for row. The others put a replica or the network serving tier in front:
// the same stream replayed over loopback TCP through the client package
// against a hermitd server that is drained and restarted mid-stream.
// It is driven by `go test ./internal/difftest` with
// the -difftest.ops flag scaling the stream length (CI runs ≥10k ops per
// configuration under -race).
package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/keyorder"
	"hermit/internal/trstree"
	"hermit/internal/workload"
)

// Config parameterises one differential run.
type Config struct {
	// Seed drives every random choice (schema, data, op stream).
	Seed int64
	// Ops is the operation-stream length.
	Ops int
	// Partitions is the partition count for partitioned configurations.
	Partitions int
	// Dir hosts durable files for durable configurations (a test TempDir).
	Dir string
}

// Configs lists the differential configurations the harness covers.
var Configs = []string{
	"inmem-cost",          // in-memory engine, cost-based planner, plus every path
	"partitioned",         // hash-partitioned scatter-gather table, plus every path
	"durable",             // WAL+checkpoint engine, close/reopen mid-stream
	"durable-partitioned", // partitioned durable table, close/reopen mid-stream
	"txn",                 // atomic multi-op batches vs an all-or-nothing oracle, on all four databases
	"snapshot-scan",       // concurrent reader asserting no scan observes a partial batch
	"server",              // op stream replayed over loopback TCP through the serving tier
	"blocks",              // durable engine under aggressive flush/compaction thresholds
	"replica",             // leader + tailing follower, three-way audits, follower restarts
	"composite",           // composite B+-tree and composite Hermit index, two-column queries
	"composite-durable",   // the same through IndexDefs, crashed and recovered mid-stream
}

// pairConfigs are the configurations whose table has the composite
// indexes: the stream puts two-column queries to them (checkPair).
var pairConfigs = map[string]bool{"composite": true, "composite-durable": true}

// schema is the generated table shape: col 0 is the primary key, col 1 the
// host column b = fn(c) + noise, col 2 the correlated target c, and any
// further columns are uniform payload.
type schema struct {
	cols  []string
	fn    workload.CorrelationKind
	noise float64
}

func genSchema(rng *rand.Rand) schema {
	width := 3 + rng.Intn(4) // 3..6 columns
	cols := make([]string, width)
	cols[0], cols[1], cols[2] = "pk", "host", "target"
	for i := 3; i < width; i++ {
		cols[i] = fmt.Sprintf("x%d", i)
	}
	fns := []workload.CorrelationKind{workload.Linear, workload.Sigmoid, workload.Sin}
	return schema{
		cols:  cols,
		fn:    fns[rng.Intn(len(fns))],
		noise: []float64{0, 0.01, 0.05}[rng.Intn(3)],
	}
}

// row generates one fresh row with primary key pk and a correlated
// (host, target) pair. Now and then a value is an odd one (odd).
func (s schema) row(rng *rand.Rand, pk float64) []float64 {
	row := make([]float64, len(s.cols))
	c := rng.Float64() * workload.SyntheticSpan
	b := s.fn.Eval(c)
	if s.noise > 0 && rng.Float64() < s.noise {
		b = rng.Float64() * 12000
	}
	row[0], row[1], row[2] = pk, odd(rng, b), odd(rng, c)
	for i := 3; i < len(row); i++ {
		row[i] = odd(rng, rng.Float64())
	}
	return row
}

// oddValues are the float64s arithmetic on the generated data never
// produces, yet every tier must store and compare: both zeros, both
// infinities, NaNs of either sign and several payloads, and subnormals.
var oddValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
}

// odd returns v, or one time in 40 an odd value in its place: a data
// value, an updated value or a query bound. The oracle compares as the
// engine does — a NaN satisfies no range, -0 equals +0.
func odd(rng *rand.Rand, v float64) float64 {
	if rng.Intn(40) == 0 {
		return oddValues[rng.Intn(len(oddValues))]
	}
	return v
}

// oddKeys are the primary keys one fresh insert in 40 takes instead of the
// next integer: the keys past every finite one at either end of the key
// order — ±Inf and NaNs of either sign, which an ascending load appends at
// the right end — and -0, the key +0 already is. None of their NaN payloads
// is one of oddValues', so no query bound names a NaN key (see genAction).
var oddKeys = []float64{
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	math.Float64frombits(0x7ff8000000000007), math.Float64frombits(0x7ffc000000000000), math.Float64frombits(0xfff8000000000009),
}

// valueRange returns the span queries and updates on col draw from.
func (s schema) valueRange(col int) (lo, hi float64) {
	switch col {
	case 1:
		return 0, 12000
	case 2:
		return 0, workload.SyntheticSpan
	default:
		return 0, 1
	}
}

// model is the trivial oracle: live rows in a map keyed by primary key —
// by keyorder.Bits of it, the key's identity: a float64 map key could never
// find a NaN key again, and -0 is the key +0 — with a side slice for O(1)
// random picks of existing keys.
type model struct {
	rows  map[uint64][]float64
	pks   []float64
	pkPos map[uint64]int
}

func newModel() *model {
	return &model{rows: make(map[uint64][]float64), pkPos: make(map[uint64]int)}
}

func (m *model) insert(row []float64) bool {
	pk := keyorder.Bits(row[0])
	if _, dup := m.rows[pk]; dup {
		return false
	}
	m.rows[pk] = append([]float64(nil), row...)
	m.pkPos[pk] = len(m.pks)
	m.pks = append(m.pks, row[0])
	return true
}

func (m *model) remove(key float64) bool {
	pk := keyorder.Bits(key)
	if _, ok := m.rows[pk]; !ok {
		return false
	}
	delete(m.rows, pk)
	pos := m.pkPos[pk]
	last := m.pks[len(m.pks)-1]
	m.pks[pos] = last
	m.pkPos[keyorder.Bits(last)] = pos
	m.pks = m.pks[:len(m.pks)-1]
	delete(m.pkPos, pk)
	return true
}

// row returns the live row under key, if any.
func (m *model) row(key float64) ([]float64, bool) {
	row, ok := m.rows[keyorder.Bits(key)]
	return row, ok
}

func (m *model) update(pk float64, col int, v float64) bool {
	row, ok := m.row(pk)
	if !ok {
		return false
	}
	row[col] = v
	return true
}

// query returns copies of the rows with lo <= row[col] <= hi, ordered by
// primary key.
func (m *model) query(col int, lo, hi float64) [][]float64 {
	var out [][]float64
	for _, row := range m.rows {
		if row[col] >= lo && row[col] <= hi {
			out = append(out, append([]float64(nil), row...))
		}
	}
	return sortRows(out)
}

// queryPair returns copies of the rows that satisfy both predicates of q,
// ordered by primary key.
func (m *model) queryPair(q engine.Query) [][]float64 {
	var out [][]float64
	for _, row := range m.rows {
		if row[q.Col] >= q.Lo && row[q.Col] <= q.Hi && row[q.And.Col] >= q.And.Lo && row[q.And.Col] <= q.And.Hi {
			out = append(out, append([]float64(nil), row...))
		}
	}
	return sortRows(out)
}

// pick returns a uniformly random live primary key.
func (m *model) pick(rng *rand.Rand) (float64, bool) {
	if len(m.pks) == 0 {
		return 0, false
	}
	return m.pks[rng.Intn(len(m.pks))], true
}

// system is the real-database side of the comparison. Implementations
// must report results in oracle vocabulary: the matching rows ordered by
// primary key for queries, the full live row set for state audits.
type system interface {
	insert(row []float64) error
	remove(pk float64) (bool, error)
	update(pk float64, col int, v float64) error
	query(col int, lo, hi float64) ([][]float64, error)
	state() (map[uint64][]float64, error)
	// cycle is the durability round-trip: optionally checkpoint, then
	// close and reopen, rebinding handles. Non-durable systems no-op.
	cycle(checkpoint bool) error
	close() error
}

// Failure describes a divergence between the oracle and the system.
type Failure struct {
	// Step is the op-stream position (or -1 for a state audit).
	Step int
	// What describes the divergence.
	What string
}

// Error implements the error interface.
func (f Failure) Error() string { return fmt.Sprintf("difftest: step %d: %s", f.Step, f.What) }

// Run drives one differential configuration to completion, returning the
// first divergence as a *Failure (nil when the system tracked the oracle
// exactly over the whole stream).
func Run(cfgName string, cfg Config) error {
	switch cfgName {
	case "txn":
		return runTxn(cfg)
	case "snapshot-scan":
		return runSnapshotScan(cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := genSchema(rng)
	sys, err := build(cfgName, cfg, s)
	if err != nil {
		return err
	}
	defer sys.close()
	m := newModel()

	// Initial load: enough rows that index builds have signal.
	nextPK := float64(0)
	for i := 0; i < 300; i++ {
		row := s.row(rng, nextPK)
		nextPK++
		m.insert(row)
		if err := sys.insert(row); err != nil {
			return Failure{Step: -1, What: fmt.Sprintf("initial insert: %v", err)}
		}
	}

	// A system that takes bursts (the served one) gets the stream in
	// pipelined runs of 1-64 operations, drawn from a generator of their
	// own so the operation stream stays the seed's.
	burster, _ := sys.(burstSystem)
	burstRng := rand.New(rand.NewSource(cfg.Seed ^ 0x62757273))
	// Two-column queries come from a generator of their own too, one after
	// about every third step.
	pairRng := rand.New(rand.NewSource(cfg.Seed ^ 0x70616972))
	cyclePeriod := cfg.Ops/4 + 1
	for step := 0; step < cfg.Ops; {
		n := 1
		if burster != nil {
			n = min(1+burstRng.Intn(64), cfg.Ops-step)
		}
		var acts []action
		if burster != nil && burstRng.Intn(2) == 0 {
			acts = hotKeyActions(rng, s, m, &nextPK)
		}
		for len(acts) < n {
			acts = append(acts, genAction(rng, s, m, &nextPK))
		}
		n = len(acts)
		var outs []outcome
		if burster != nil {
			if outs, err = burster.burst(acts); err != nil {
				return Failure{Step: step, What: fmt.Sprintf("burst of %d: %v", len(acts), err)}
			}
		} else {
			outs = []outcome{apply(sys, &acts[0])}
		}
		for i := range acts {
			if err := acts[i].check(outs[i]); err != nil {
				return Failure{Step: step + i, What: err.Error()}
			}
		}
		if ps, ok := sys.(pathSystem); ok && len(acts) == 1 && acts[0].kind == actQuery {
			if err := checkEveryPath(ps, &acts[0]); err != nil {
				return Failure{Step: step, What: err.Error()}
			}
		}
		if pairConfigs[cfgName] && pairRng.Intn(3) == 0 {
			if err := checkPair(sys.(tableSystem).table(), m, genPair(pairRng, s, m, nextPK)); err != nil {
				return Failure{Step: step, What: err.Error()}
			}
		}
		// The cycle follows the burst that crossed its step, so recovery
		// replays a log whose tail a run wrote.
		due := false
		for st := max(step, 1); st < step+n; st++ {
			due = due || st%cyclePeriod == 0
		}
		step += n
		if due {
			if err := sys.cycle(rng.Intn(2) == 0); err != nil {
				return Failure{Step: step, What: fmt.Sprintf("cycle: %v", err)}
			}
			if err := audit(m, sys, step); err != nil {
				return err
			}
			// The "blocks" cycle checkpointed and drained the compactor
			// before it reopened: the block tier is the oracle's state.
			if ds, ok := sys.(*dbSystem); ok && ds.compact {
				if err := auditBlocks(m, ds, nextPK, step); err != nil {
					return err
				}
			}
		}
	}
	return audit(m, sys, cfg.Ops)
}

// auditBlocks compares the block tier with the oracle key by key: every
// key the stream has ever inserted — the integers below nextPK and the odd
// keys — reads back from its page bit-identical when live and not found
// when deleted, whatever mix of delta and merged blocks holds its history.
func auditBlocks(m *model, ds *dbSystem, nextPK float64, step int) error {
	keys := slices.Clone(oddKeys)
	for pk := float64(0); pk < nextPK; pk++ {
		keys = append(keys, pk)
	}
	for _, pk := range keys {
		row, found, _, err := ds.db.BlockRead(ds.name, pk)
		want, live := m.row(pk)
		switch {
		case err != nil:
			return Failure{step, fmt.Sprintf("blocks: pk %v: %v", pk, err)}
		case found != live:
			return Failure{step, fmt.Sprintf("blocks: pk %v found=%v, oracle live=%v", pk, found, live)}
		case live && !sameRow(row, want):
			return Failure{step, fmt.Sprintf("blocks: pk %v = %v, oracle %v", pk, row, want)}
		}
	}
	return nil
}

// actKind names the four operations of the stream.
type actKind int

const (
	actInsert actKind = iota
	actDelete
	actUpdate
	actQuery // range, or point when lo == hi
)

// action is one operation of the stream together with the oracle's
// verdict on it: generating an action applies it to the model, so a run of
// actions carries the outcome each must have when executed in order.
type action struct {
	kind   actKind
	row    []float64 // insert
	pk     float64   // delete, update
	col    int       // update, query
	v      float64   // update
	lo, hi float64   // query

	wantOK   bool        // insert or update accepted, delete found its key
	wantRows [][]float64 // query, ordered by primary key
}

// outcome is what the system made of an action.
type outcome struct {
	err   error
	found bool        // delete
	rows  [][]float64 // query, ordered by primary key
}

// burstSystem is a system that takes a run of actions at once and answers
// them in order (the serving tier, through a client pipeline).
type burstSystem interface {
	burst(acts []action) ([]outcome, error)
}

// pathSystem is a system that answers a query once per access path its
// planner lists as available (Explain), forcing each through Query.Path,
// all at one snapshot — so every path, not only the one the planner
// prefers, is held to the oracle after every query step.
type pathSystem interface {
	everyPath(col int, lo, hi float64) ([]pathRows, error)
}

// pathRows is one access path's answer, ordered by primary key.
type pathRows struct {
	path engine.AccessPath
	rows [][]float64
}

// apply executes one action on the system.
func apply(sys system, a *action) (o outcome) {
	switch a.kind {
	case actInsert:
		o.err = sys.insert(a.row)
	case actDelete:
		o.found, o.err = sys.remove(a.pk)
	case actUpdate:
		o.err = sys.update(a.pk, a.col, a.v)
	case actQuery:
		o.rows, o.err = sys.query(a.col, a.lo, a.hi)
	}
	return o
}

// tableSystem is a system over one engine table, which two-column queries
// are put to directly.
type tableSystem interface {
	table() *engine.Table
}

// genPair draws a two-column query of the running example's shape: a range
// on the primary key, the composite indexes' leading column, and a range
// on the host column or the target, which the composite B+-tree and the
// composite Hermit index serve. Some bounds are keys or values of live
// rows, or a point on a live key, so that entries sit on them; some are
// odd, as genAction's are.
func genPair(rng *rand.Rand, s schema, m *model, nextPK float64) engine.Query {
	lo := rng.Float64() * nextPK
	if rng.Intn(2) == 0 {
		lo = math.Floor(lo)
	}
	hi := lo + rng.Float64()*rng.Float64()*nextPK
	if pk, ok := m.pick(rng); ok && rng.Intn(8) == 0 {
		lo, hi = pk, pk
		if math.IsNaN(pk) {
			lo, hi = oddValues[4], oddValues[4] // no query names a NaN key (genAction)
		}
	}
	col := 1 + rng.Intn(2)
	clo, chi := s.valueRange(col)
	blo := clo + rng.Float64()*(chi-clo)
	bhi := blo + rng.Float64()*rng.Float64()*(chi-clo)
	if row, ok := m.row(pickOrZero(m, rng)); ok && rng.Intn(4) == 0 {
		blo = row[col]
	}
	if row, ok := m.row(pickOrZero(m, rng)); ok && rng.Intn(4) == 0 {
		bhi = row[col]
	}
	return engine.Query{Col: 0, Lo: odd(rng, lo), Hi: odd(rng, hi),
		And: &engine.Pred{Col: col, Lo: odd(rng, blo), Hi: odd(rng, bhi)}}
}

// checkPair answers a two-column query, at one snapshot, on the planner's
// path — a composite index — and on every path the plan of its first
// predicate lists, where the base-table pass checks the second; each
// answer must be the oracle's.
func checkPair(tb *engine.Table, m *model, q engine.Query) error {
	want := m.queryPair(q)
	plan, err := tb.Explain(q.Col, q.Lo, q.Hi)
	if err == nil {
		plan.Candidates = append(plan.Candidates, engine.PathEstimate{Path: engine.PathAuto, Available: true})
		q.Snap = tb.Snapshot()
		defer q.Snap.Release()
		var answers []pathRows
		answers, err = forEachPath(plan, func(path engine.AccessPath) ([][]float64, error) {
			q.Path = path
			return tableRows(tb, q)
		})
		for _, ans := range answers {
			if err = sameRows(want, ans.rows); err != nil {
				err = fmt.Errorf("via %v: %v", ans.path, err)
				break
			}
		}
	}
	if err != nil {
		return fmt.Errorf("query col=%d [%v,%v] and col=%d [%v,%v]: %v", q.Col, q.Lo, q.Hi, q.And.Col, q.And.Lo, q.And.Hi, err)
	}
	return nil
}

// checkEveryPath runs a query action on every access path the system lists
// and compares each answer with the oracle's.
func checkEveryPath(ps pathSystem, a *action) error {
	answers, err := ps.everyPath(a.col, a.lo, a.hi)
	if err != nil {
		return fmt.Errorf("query col=%d [%v,%v] on every path: %v", a.col, a.lo, a.hi, err)
	}
	for _, ans := range answers {
		if err := sameRows(a.wantRows, ans.rows); err != nil {
			return fmt.Errorf("query col=%d [%v,%v] via %v: %v", a.col, a.lo, a.hi, ans.path, err)
		}
	}
	return nil
}

// check compares the system's outcome with the oracle's verdict.
func (a *action) check(o outcome) error {
	switch a.kind {
	case actInsert:
		if a.wantOK && o.err != nil {
			return fmt.Errorf("insert pk=%v: oracle accepts, system errors: %v", a.row[0], o.err)
		}
		if !a.wantOK && o.err == nil {
			return fmt.Errorf("insert pk=%v: duplicate accepted by system", a.row[0])
		}
	case actDelete:
		if o.err != nil {
			return fmt.Errorf("delete pk=%v: %v", a.pk, o.err)
		}
		if o.found != a.wantOK {
			return fmt.Errorf("delete pk=%v: found=%v, oracle=%v", a.pk, o.found, a.wantOK)
		}
	case actUpdate:
		if a.wantOK && o.err != nil {
			return fmt.Errorf("update pk=%v col=%d: oracle accepts, system errors: %v", a.pk, a.col, o.err)
		}
		if !a.wantOK && o.err == nil {
			return fmt.Errorf("update pk=%v col=%d: absent key accepted", a.pk, a.col)
		}
	case actQuery:
		if o.err == nil {
			o.err = sameRows(a.wantRows, o.rows)
		}
		if o.err != nil {
			return fmt.Errorf("query col=%d [%v,%v]: %v", a.col, a.lo, a.hi, o.err)
		}
	}
	return nil
}

// genAction draws one random operation and applies it to the model.
func genAction(rng *rand.Rand, s schema, m *model, nextPK *float64) action {
	width := len(s.cols)
	switch p := rng.Float64(); {
	case p < 0.30: // insert (sometimes a duplicate key)
		var row []float64
		if pk, ok := m.pick(rng); ok && rng.Float64() < 0.15 {
			row = s.row(rng, pk)
		} else if rng.Intn(40) == 0 {
			row = s.row(rng, oddKeys[rng.Intn(len(oddKeys))])
		} else {
			row = s.row(rng, *nextPK)
			*nextPK++
		}
		return action{kind: actInsert, row: row, wantOK: m.insert(row)}
	case p < 0.42: // delete (sometimes an absent key)
		pk, ok := m.pick(rng)
		if !ok || rng.Float64() < 0.3 {
			pk = *nextPK + 1000 + rng.Float64()
		}
		return action{kind: actDelete, pk: pk, wantOK: m.remove(pk)}
	case p < 0.57: // update (sometimes an absent key)
		col := 1 + rng.Intn(width-1)
		lo, hi := s.valueRange(col)
		v := odd(rng, lo+rng.Float64()*(hi-lo))
		pk, ok := m.pick(rng)
		if !ok || rng.Float64() < 0.2 {
			pk = *nextPK + 2000 + rng.Float64()
		}
		return action{kind: actUpdate, pk: pk, col: col, v: v, wantOK: m.update(pk, col, v)}
	case p < 0.85: // range query on a random column
		col := rng.Intn(width)
		var lo, hi float64
		if col == 0 {
			lo = rng.Float64() * *nextPK
			hi = lo + rng.Float64()*rng.Float64()**nextPK
		} else {
			clo, chi := s.valueRange(col)
			lo = clo + rng.Float64()*(chi-clo)
			hi = lo + rng.Float64()*rng.Float64()*(chi-clo)
		}
		lo, hi = odd(rng, lo), odd(rng, hi)
		return action{kind: actQuery, col: col, lo: lo, hi: hi, wantRows: m.query(col, lo, hi)}
	default: // point query, biased toward the primary key
		col := 0
		if rng.Float64() < 0.4 {
			col = rng.Intn(width)
		}
		var v float64
		if pk, ok := m.pick(rng); ok && col == 0 && rng.Float64() < 0.8 {
			v = pk
		} else if row, ok2 := m.row(pickOrZero(m, rng)); ok2 && rng.Float64() < 0.5 {
			v = row[col]
		} else {
			lo, hi := s.valueRange(col)
			v = lo + rng.Float64()*(hi-lo)
		}
		if col == 0 && math.IsNaN(v) {
			// A point on the primary index finds a NaN key named by itself,
			// every other path compares, and a NaN satisfies no comparison
			// (engine.Query): the paths differ by design, so no query names
			// a NaN key.
			v = oddValues[4]
		}
		v = odd(rng, v)
		return action{kind: actQuery, col: col, lo: v, hi: v, wantRows: m.query(col, v, v)}
	}
}

// hotKeyActions is the run the random stream almost never draws: one
// fresh key written five times and read twice inside a single burst —
// insert, update, duplicate insert, read, delete, read, insert again — so
// per-key order inside a write run, a run boundary at every read, and a
// log tail in which one key's records follow each other are all inside
// the comparison. The key is live afterwards.
func hotKeyActions(rng *rand.Rand, s schema, m *model, nextPK *float64) []action {
	pk := *nextPK
	*nextPK++
	first, second := s.row(rng, pk), s.row(rng, pk)
	lo, hi := s.valueRange(2)
	v := lo + rng.Float64()*(hi-lo)
	point := func() action {
		return action{kind: actQuery, col: 0, lo: pk, hi: pk, wantRows: m.query(0, pk, pk)}
	}
	return []action{
		{kind: actInsert, row: first, wantOK: m.insert(first)},
		{kind: actUpdate, pk: pk, col: 2, v: v, wantOK: m.update(pk, 2, v)},
		{kind: actInsert, row: second, wantOK: m.insert(second)},
		point(),
		{kind: actDelete, pk: pk, wantOK: m.remove(pk)},
		point(),
		{kind: actInsert, row: second, wantOK: m.insert(second)},
	}
}

func pickOrZero(m *model, rng *rand.Rand) float64 {
	pk, _ := m.pick(rng)
	return pk
}

// sortRows orders rows by primary key (col 0 in every generated schema) in
// the key order and returns them.
func sortRows(rows [][]float64) [][]float64 {
	slices.SortFunc(rows, func(a, b []float64) int { return keyorder.Compare(a[0], b[0]) })
	return rows
}

// sameRow compares two rows bit for bit: the sign of a zero and a NaN's
// payload are part of a stored value.
func sameRow(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameRows compares two primary-key-ordered row lists exactly, bit for
// bit.
func sameRows(want, got [][]float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, oracle %d", len(got), len(want))
	}
	for i := range want {
		if !sameRow(want[i], got[i]) {
			return fmt.Errorf("row %d: %v, oracle %v", i, got[i], want[i])
		}
	}
	return nil
}

// audit compares the full live state row for row.
func audit(m *model, sys system, step int) error {
	got, err := sys.state()
	if err != nil {
		return Failure{step, fmt.Sprintf("state: %v", err)}
	}
	if len(got) != len(m.rows) {
		return Failure{step, fmt.Sprintf("state: %d live rows, oracle %d", len(got), len(m.rows))}
	}
	for pk, want := range m.rows {
		row, ok := got[pk]
		if !ok {
			return Failure{step, fmt.Sprintf("state: pk %v missing", want[0])}
		}
		if !sameRow(row, want) {
			return Failure{step, fmt.Sprintf("state: pk %v = %v, oracle %v", want[0], row, want)}
		}
	}
	return nil
}

// build constructs the named system over the generated schema, with the
// host B+-tree and target Hermit index in place (their maintenance under
// the mutation stream is much of what the harness exercises) — or, on the
// composite configurations, the running example's indexes (§3): a
// composite B+-tree on (pk, host) and a composite Hermit index on
// (pk, target) that rides it.
func build(cfgName string, cfg Config, s schema) (system, error) {
	parts := cfg.Partitions
	if parts <= 0 {
		parts = 3
	}
	sys := &dbSystem{name: "t"}
	defs := []engine.IndexDef{
		{Kind: "btree", Col: 1},
		{Kind: "hermit", Col: 2, Host: 1, Params: trstree.DefaultParams()},
	}
	composite := []engine.IndexDef{
		{Kind: "composite-btree", ACol: 0, Col: 1},
		{Kind: "composite-hermit", ACol: 0, Col: 2, Host: 1, Params: trstree.DefaultParams()},
	}
	n := 0 // partitions; 0 = a plain table
	switch cfgName {
	case "inmem-cost":
		sys.paths = true
	case "partitioned":
		sys.paths, n = true, parts
	case "composite":
		defs = composite
	case "durable":
		sys.dir = cfg.Dir
	case "durable-partitioned":
		sys.dir, n = cfg.Dir, parts
	case "blocks":
		// Aggressive thresholds so a short stream still crosses every
		// storage-tier edge: tiny WAL segments force rotating checkpoints,
		// fan-in 2 makes every pair of delta blocks a compaction candidate,
		// and the background compactor runs concurrently with the op stream
		// on top of the forced mid-stream compactions the cycle adds.
		sys.dir, sys.compact = cfg.Dir, true
		sys.opts = engine.DurableOptions{CompactFanIn: 2, WALRotateBytes: 1}
	case "composite-durable":
		sys.dir, sys.crashes, defs = filepath.Join(cfg.Dir, "0"), 1, composite
	case "server":
		return buildServer(cfg, s)
	case "replica":
		return buildReplica(cfg, s)
	default:
		return nil, fmt.Errorf("difftest: unknown config %q", cfgName)
	}
	var err error
	if sys.dir == "" {
		sys.db = engine.NewDB(hermit.PhysicalPointers)
	} else if sys.db, err = engine.OpenDurableOptions(sys.dir, hermit.PhysicalPointers, sys.opts); err != nil {
		return nil, err
	}
	if n > 0 {
		err = sys.db.CreatePartitionedTable(sys.name, s.cols, 0, n)
	} else {
		_, err = sys.db.CreateTable(sys.name, s.cols, 0)
	}
	for i := 0; err == nil && i < len(defs); i++ {
		err = sys.db.CreateIndex(sys.name, defs[i])
	}
	if err == nil {
		err = sys.bind()
	}
	if err != nil {
		sys.db.Close()
		return nil, err
	}
	return sys, nil
}
