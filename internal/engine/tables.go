package engine

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"hermit/internal/storage"
	"hermit/internal/trstree"
	"hermit/internal/wal"
)

// This file is the DB's catalog of logical tables — the names users write
// to — and everything that reaches a table by its name: creation, routing a
// mutation by primary key, and index DDL. A logical table is one engine
// Table per partition. A plain table is its own only partition; a
// hash-partitioned one (CreatePartitionedTable) is backed by the tables
// PartitionName(name, 0..n-1), each with its own indexes, latches and
// planner state, and a row lives in partition PartitionOf(its key, n).
// Each by-name write and each DDL statement is one method that asks once
// whether the database logs: a durable one (durable.go) logs what it
// applies. A query by name scatter-gathers over the table's partitions
// (DB.Exec, gather.go).

// PartitionOf returns the hash partition (0 <= p < n) owning the primary
// key pk among n partitions. The hash is a splitmix64 finalizer over the
// key's bit pattern, so adjacent keys spread uniformly; -0 is normalised to
// +0 first (the two compare equal as keys and must route identically).
func PartitionOf(pk float64, n int) int {
	if n <= 1 {
		return 0
	}
	if pk == 0 {
		pk = 0 // collapse -0 onto +0
	}
	h := math.Float64bits(pk)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(n))
}

// PartitionName returns the engine table name of partition i of the
// partitioned table name ("orders#3"). Table names may not hold '#', so a
// partition's name never collides with a table's.
func PartitionName(name string, i int) string {
	return fmt.Sprintf("%s#%d", name, i)
}

// logical is one table of the catalog.
type logical struct {
	// parts is the hash-partition count, 0 for a plain table.
	parts int
	// phys holds the engine tables, indexed by partition id (one for a
	// plain table), so routing a mutation is a hash and an index.
	phys []*Table
}

// route returns the engine table and partition id that own pk.
func (l *logical) route(pk float64) (*Table, uint32) {
	p := PartitionOf(pk, l.parts)
	return l.phys[p], uint32(p)
}

// target returns the engine table, partition id and primary key a mutation
// op routes to: an insert's key is its row's.
func (l *logical) target(op *Op) (*Table, uint32, float64) {
	pk := op.PK
	if op.Kind == OpInsert {
		pk = 0
		if c := l.phys[0].pkCol; c < len(op.Row) {
			pk = op.Row[c]
		}
	}
	tb, part := l.route(pk)
	return tb, part, pk
}

// lookup returns the named table, nil when there is none.
func (db *DB) lookup(name string) *logical { return (*db.tables.Load())[name] }

// named is lookup with the error for a name the catalog does not hold.
func (db *DB) named(name string) (*logical, error) {
	if l := db.lookup(name); l != nil {
		return l, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
}

// target resolves the engine table, partition id and primary key of
// mutation op on the table op.Table names.
func (db *DB) target(op *Op) (*Table, uint32, float64, error) {
	l, err := db.named(op.Table)
	if err != nil {
		return nil, 0, 0, err
	}
	tb, part, pk := l.target(op)
	return tb, part, pk, nil
}

// create adds a table of parts partitions (0: a plain table) to the
// catalog; its engine tables exist before the catalog names them.
func (db *DB) create(name string, cols []string, pkCol, parts int) (*logical, error) {
	if strings.Contains(name, "#") {
		return nil, fmt.Errorf("engine: table name %q: '#' is reserved for partitions", name)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	cat := *db.tables.Load()
	if cat[name] != nil {
		return nil, ErrDupTable
	}
	if pkCol < 0 || pkCol >= len(cols) {
		return nil, ErrNoSuchColumn
	}
	l := &logical{parts: parts, phys: make([]*Table, max(parts, 1))}
	for i := range l.phys {
		phys := name
		if parts > 0 {
			phys = PartitionName(name, i)
		}
		l.phys[i] = db.newTable(phys, cols, pkCol)
	}
	cat = maps.Clone(cat)
	cat[name] = l
	db.tables.Store(&cat)
	return l, nil
}

// CreateTable registers a plain table with the given column names; pkCol is
// the primary-key column, which receives a primary index automatically.
// Names holding '#' are refused: the character names partitions. A durable
// database logs the table.
func (db *DB) CreateTable(name string, cols []string, pkCol int) (*Table, error) {
	if err := db.ddl(wal.OpCreateTable, name, ddlStmt{ddlTable: ddlTable{Cols: cols, PKCol: pkCol}}); err != nil {
		return nil, err
	}
	return db.lookup(name).phys[0], nil
}

// CreatePartitionedTable registers a table hash-partitioned parts ways:
// parts engine tables behind one name, a row in the one its primary key
// hashes to (PartitionOf). The by-name writes and DDL route and fan out
// across them; a query scatter-gathers across them (DB.Exec). A durable
// database logs the table, and every record of a write to it carries its
// partition id; checkpoints flush one block stream per partition.
func (db *DB) CreatePartitionedTable(name string, cols []string, pkCol, parts int) error {
	return db.ddl(wal.OpCreatePartitioned, name, ddlStmt{ddlTable: ddlTable{Cols: cols, PKCol: pkCol, Parts: parts}})
}

// Partitions reports the partition count of the named table: 0 for a plain
// table, >= 1 for one created by CreatePartitionedTable.
func (db *DB) Partitions(name string) (int, error) {
	l, err := db.named(name)
	if err != nil {
		return 0, err
	}
	return l.parts, nil
}

// Table returns the engine table a name denotes: a plain table's own, or
// one partition's by its PartitionName. A partitioned table's own name
// denotes no one engine table. Queries through it are safe; on a durable
// database, writes through it bypass the log — use the DB's.
func (db *DB) Table(name string) (*Table, error) {
	if l := db.lookup(name); l != nil && l.parts == 0 {
		return l.phys[0], nil
	}
	if i := strings.LastIndexByte(name, '#'); i >= 0 {
		if l := db.lookup(name[:i]); l != nil {
			if p, err := strconv.Atoi(name[i+1:]); err == nil && p >= 0 && p < len(l.phys) && l.phys[p].name == name {
				return l.phys[p], nil
			}
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
}

// submit applies one auto-commit mutation on the partition of op.Table that
// owns its key; the outcome lands in res. A database without a log takes no
// latch of its own for it. A durable one also hands the mutation's record to
// the log (durable.submit), and the returned ticket is what awaitLogged
// waits on: the zero Ticket when nothing was logged.
func (db *DB) submit(op *Op, res *OpResult) wal.Ticket {
	if db.dur != nil {
		return db.dur.submit(op, res)
	}
	tb, _, _, err := db.target(op)
	if res.Err = err; err == nil {
		res.rid, res.Found, res.Err = mutate(tb, op)
	}
	return wal.Ticket{}
}

// applyOne is the one-op run.
func (db *DB) applyOne(op Op) (res OpResult) {
	awaitLogged(db.submit(&op, &res), &res)
	return res
}

// ApplyEach applies a run of auto-commit mutations (OpInsert, OpDelete,
// OpUpdate) in order. Unlike ExecuteBatch it is not atomic: each op is
// its own mutation with its own result (and, on a durable database, its
// own WAL record), exactly as if Insert, Delete or UpdateColumn had been
// called for it, and a failed op does not stop the ones after it. What the
// run shares on a durable database is the wait: every record is submitted
// before the first is awaited, and that first wait puts the run's frames
// in the log in one copy (and, under the fsync policies, one fsync and one
// commit interval) — the waits after it find their record acknowledged, or
// the log poisoned below it, with one atomic load. Tickets name their own
// log, so a checkpoint that rotates the segment mid-run changes nothing
// here. Op i's outcome overwrites results[i], which must exist: a caller
// that runs one run after another reuses one slice.
func (db *DB) ApplyEach(ops []Op, results []OpResult) {
	results = results[:len(ops)]
	var stack [applyRunStack]wal.Ticket
	tks := stack[:0]
	for i := range ops {
		results[i] = OpResult{}
		tks = append(tks, db.submit(&ops[i], &results[i]))
	}
	for i, tk := range tks {
		awaitLogged(tk, &results[i])
	}
}

// applyRunStack is the run length whose tickets ApplyEach keeps on its
// stack: the server's write runs are at most this long.
const applyRunStack = 64

// Insert appends a row to the named table; a durable database logs it.
func (db *DB) Insert(table string, row []float64) (storage.RID, error) {
	res := db.applyOne(Op{Kind: OpInsert, Table: table, Row: row})
	return res.rid, res.Err
}

// Delete removes the row with primary key pk from the named table,
// reporting whether the key existed. A durable database logs a delete that
// found its key (one of an absent key has nothing to replay).
func (db *DB) Delete(table string, pk float64) (bool, error) {
	res := db.applyOne(Op{Kind: OpDelete, Table: table, PK: pk})
	return res.Found, res.Err
}

// UpdateColumn changes one column of the row with primary key pk in the
// named table (see Table.UpdateColumn); a durable database logs it.
func (db *DB) UpdateColumn(table string, pk float64, col int, v float64) error {
	return db.applyOne(Op{Kind: OpUpdate, Table: table, PK: pk, Col: col, Value: v}).Err
}

// IndexDef describes one index: what CreateIndex builds, and what a
// durable database records to rebuild it on recovery.
type IndexDef struct {
	Kind    string         `json:"kind"` // "btree" | "hermit" | "composite-btree" | "composite-hermit"
	Col     int            `json:"col"`
	Host    int            `json:"host,omitempty"`
	ACol    int            `json:"acol,omitempty"`
	MarkNew bool           `json:"new,omitempty"`
	Params  trstree.Params `json:"params,omitempty"`
}

// applyIndexDef builds the index def describes on one engine table.
// Zero-valued Params — a definition that names none, as the wire DDL,
// advisor and HTTP paths produce — mean the TRS-Tree defaults: sanitizing
// the zero value instead would clamp the tree to one leaf holding every row
// as an outlier.
func applyIndexDef(tb *Table, def IndexDef) error {
	if def.Params == (trstree.Params{}) {
		def.Params = trstree.DefaultParams()
	}
	var err error
	switch def.Kind {
	case "btree":
		_, err = tb.CreateBTreeIndex(def.Col, def.MarkNew)
	case "hermit":
		_, err = tb.CreateHermitIndex(def.Col, def.Host, WithParams(def.Params))
	case "composite-btree":
		_, err = tb.CreateCompositeBTreeIndex(def.ACol, def.Col, def.MarkNew)
	case "composite-hermit":
		_, err = tb.CreateCompositeHermitIndex(def.ACol, def.Col, def.Host, WithParams(def.Params))
	default:
		err = fmt.Errorf("engine: unknown index kind %q", def.Kind)
	}
	return err
}

// kindFromString maps an IndexDef kind string to the engine's IndexKind
// vocabulary (single-column kinds only; composites are not droppable): the
// kind whose String it is.
func kindFromString(s string) (IndexKind, error) {
	for _, k := range []IndexKind{KindBTree, KindHermit, KindCM} {
		if k.String() == s {
			return k, nil
		}
	}
	return KindNone, fmt.Errorf("engine: unknown droppable index kind %q", s)
}

// The JSON payloads of the DDL records.
type ddlTable struct {
	Cols  []string `json:"cols"`
	PKCol int      `json:"pk"`
	Parts int      `json:"parts,omitempty"`
}

type ddlIndex struct {
	Def IndexDef `json:"def"`
}

type ddlDropIndex struct {
	Col  int    `json:"col"`
	Kind string `json:"kind"` // "btree" | "hermit" | "cm"
}

// ddlStmt is one DDL statement: the union of the records' payloads, whose
// JSON names are disjoint, so replay decodes every payload into it.
type ddlStmt struct {
	ddlTable
	ddlIndex
	ddlDropIndex
}

// payload is the part of s that a record of op logs.
func (s *ddlStmt) payload(op wal.Op) any {
	switch op {
	case wal.OpCreateIndex:
		return s.ddlIndex
	case wal.OpDropIndex:
		return s.ddlDropIndex
	}
	return s.ddlTable
}

// ddl runs one DDL statement: on a durable database through the log
// (durable.ddl, which applies the statement's record as replay does), on
// one without straight through applyDDL.
func (db *DB) ddl(op wal.Op, table string, s ddlStmt) error {
	if db.dur != nil {
		return db.dur.ddl(op, table, s.payload(op))
	}
	return db.applyDDL(op, table, &s)
}

// applyDDL applies DDL statement s to the catalog — live, or replayed from
// a log (applyRecord) — and, on a durable database, to the catalog its
// manifest records, under its exclusive latch.
func (db *DB) applyDDL(op wal.Op, table string, s *ddlStmt) error {
	var meta *durableMeta
	if db.dur != nil {
		meta = db.dur.tables[table]
	}
	switch op {
	case wal.OpCreateTable, wal.OpCreatePartitioned:
		meta = &durableMeta{Cols: s.Cols, PKCol: s.PKCol}
		if op == wal.OpCreatePartitioned {
			if s.Parts < 1 {
				return fmt.Errorf("engine: partitioned table %q needs at least 1 partition, got %d", table, s.Parts)
			}
			meta.Partitions = s.Parts
		}
		if _, err := db.create(table, s.Cols, s.PKCol, meta.Partitions); err != nil {
			return err
		}
		if db.dur != nil {
			db.dur.tables[table] = meta
		}
	case wal.OpCreateIndex:
		if err := db.createIndex(table, s.Def); err != nil {
			return err
		}
		if meta != nil {
			meta.Defs = append(meta.Defs, s.Def)
		}
	default:
		if err := db.dropIndex(table, s.Col, s.Kind); err != nil {
			return err
		}
		if meta != nil {
			meta.Defs = slices.DeleteFunc(meta.Defs, func(d IndexDef) bool { return d.Col == s.Col && d.Kind == s.Kind })
		}
	}
	return nil
}

// CreateIndex builds the index def describes on the named table (createIndex);
// a durable database logs the definition once it has built, and rebuilds the
// index from it on recovery.
func (db *DB) CreateIndex(table string, def IndexDef) error {
	return db.ddl(wal.OpCreateIndex, table, ddlStmt{ddlIndex: ddlIndex{Def: def}})
}

// DropIndex drops the index of the given kind ("btree", "hermit" or "cm")
// on col from every partition of the named table (dropIndex). A durable
// database logs the drop, and the index leaves the recorded definitions, so
// neither recovery nor a later checkpoint resurrects it: the advisor's
// durable reclamation path.
func (db *DB) DropIndex(table string, col int, kind string) error {
	return db.ddl(wal.OpDropIndex, table, ddlStmt{ddlDropIndex: ddlDropIndex{Col: col, Kind: kind}})
}

// createIndex builds the index def describes on the named table: on every
// partition of a partitioned one, side by side (Parallel), since indexes
// are uniform across partitions and routing never changes which access
// paths exist. A build that fails on one partition is dropped from the
// partitions it succeeded on; a composite index cannot be dropped, so
// partitioned tables refuse the composite kinds. Index DDL is serialised
// with table creation.
func (db *DB) createIndex(table string, def IndexDef) error {
	l, err := db.named(table)
	if err != nil {
		return err
	}
	if l.parts > 0 && strings.HasPrefix(def.Kind, "composite-") {
		return fmt.Errorf("engine: %s indexes are not supported on partitioned tables", def.Kind)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	errs := Parallel(l.phys, 0, func(tb *Table) error { return applyIndexDef(tb, def) })
	for _, err := range errs {
		if err == nil {
			continue
		}
		if kind, kerr := kindFromString(def.Kind); kerr == nil {
			for i, tb := range l.phys {
				if errs[i] == nil {
					tb.DropIndex(def.Col, kind)
				}
			}
		}
		return err
	}
	return nil
}

// dropIndex drops the index of the given kind on col from every partition of
// the named table. Index DDL is uniform, so a drop refused on any partition
// is refused on the first, before any partition changed.
func (db *DB) dropIndex(table string, col int, kind string) error {
	l, err := db.named(table)
	if err != nil {
		return err
	}
	k, err := kindFromString(kind)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, tb := range l.phys {
		if err := tb.DropIndex(col, k); err != nil {
			return err
		}
	}
	return nil
}
