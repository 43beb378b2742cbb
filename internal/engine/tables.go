package engine

import (
	"fmt"
	"maps"
	"math"
	"strconv"
	"strings"

	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// This file is the DB's catalog of logical tables — the names users write
// to — and everything that reaches a table by its name: creation, routing a
// mutation by primary key, and index DDL. A logical table is one engine
// Table per partition. A plain table is its own only partition; a
// hash-partitioned one (CreatePartitionedTable) is backed by the tables
// PartitionName(name, 0..n-1), each with its own indexes, latches and
// planner state, and a row lives in partition PartitionOf(its key, n).
// DurableDB logs its writes and DDL on top of this catalog, and
// internal/partition scatter-gathers queries over a table's partitions.

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
// Names holding '#' are refused: the character names partitions.
func (db *DB) CreateTable(name string, cols []string, pkCol int) (*Table, error) {
	l, err := db.create(name, cols, pkCol, 0)
	if err != nil {
		return nil, err
	}
	return l.phys[0], nil
}

// CreatePartitionedTable registers a table hash-partitioned parts ways:
// parts engine tables behind one name, a row in the one its primary key
// hashes to (PartitionOf). The by-name writes and DDL route and fan out
// across them; queries scatter-gather through internal/partition.
func (db *DB) CreatePartitionedTable(name string, cols []string, pkCol, parts int) error {
	if parts < 1 {
		return fmt.Errorf("engine: partitioned table %q needs at least 1 partition, got %d", name, parts)
	}
	_, err := db.create(name, cols, pkCol, parts)
	return err
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
// denotes no one engine table.
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

// apply runs auto-commit mutation op on the partition of op.Table that
// owns its key.
func (db *DB) apply(op Op) (storage.RID, bool, error) {
	tb, _, _, err := db.target(&op)
	if err != nil {
		return 0, false, err
	}
	return mutate(tb, &op)
}

// Insert appends a row to the named table.
func (db *DB) Insert(table string, row []float64) (storage.RID, error) {
	rid, _, err := db.apply(Op{Kind: OpInsert, Table: table, Row: row})
	return rid, err
}

// Delete removes the row with primary key pk from the named table,
// reporting whether the key existed.
func (db *DB) Delete(table string, pk float64) (bool, error) {
	_, found, err := db.apply(Op{Kind: OpDelete, Table: table, PK: pk})
	return found, err
}

// UpdateColumn changes one column of the row with primary key pk in the
// named table (see Table.UpdateColumn).
func (db *DB) UpdateColumn(table string, pk float64, col int, v float64) error {
	_, _, err := db.apply(Op{Kind: OpUpdate, Table: table, PK: pk, Col: col, Value: v})
	return err
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

// CreateIndex builds the index def describes on the named table: on every
// partition of a partitioned one, side by side (Parallel), since indexes
// are uniform across partitions and routing never changes which access
// paths exist. A build that fails on one partition is dropped from the
// partitions it succeeded on; a composite index cannot be dropped, so
// partitioned tables refuse the composite kinds. Index DDL is serialised
// with table creation.
func (db *DB) CreateIndex(table string, def IndexDef) error {
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

// DropIndex drops the index of the given kind ("btree", "hermit" or "cm")
// on col from every partition of the named table. Index DDL is uniform, so
// a drop refused on any partition is refused on the first, before any
// partition changed.
func (db *DB) DropIndex(table string, col int, kind string) error {
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
