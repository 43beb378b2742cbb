package scenario

import (
	"errors"
	"fmt"
	"time"

	"hermit/internal/advisor"
	"hermit/internal/client"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/partition"
)

// A Target is a deployment a trace replays against. Setup creates the
// spec's tables (and indexes, and the advisor when enabled); Session
// hands each replay worker its own handle — wire sessions are dedicated
// connections because client.Conn is not concurrency-safe, embedded
// sessions are thin wrappers over the thread-safe engine.
type Target interface {
	// Setup prepares the target for the spec's tables.
	Setup(spec *Spec) error
	// Session returns a per-worker handle.
	Session() (Session, error)
	// Close releases the target (advisors, connections, databases — but
	// not durable directories, which the caller owns).
	Close() error
}

// A Session executes ops for one replay worker.
type Session interface {
	// Apply executes one op and returns how many rows it touched.
	// Aborted transactions return an error satisfying IsAbort.
	Apply(op *Op) (rows int, err error)
	// Close releases the session.
	Close() error
}

// TargetOptions locates a target. Embedded kinds need nothing; durable
// needs Dir; wire needs Addr; cluster needs LeaderAddr (+ followers).
// The wire kinds take addresses only, so this package never imports the
// server — benches and tests self-host hermitd and pass its address in.
type TargetOptions struct {
	// Dir hosts a durable target's files.
	Dir string
	// Addr is a wire target's hermitd address.
	Addr string
	// LeaderAddr and FollowerAddrs locate a cluster target.
	LeaderAddr    string
	FollowerAddrs []string
	// ReadYourWrites enables the cluster's session-consistency mode.
	ReadYourWrites bool
}

// NewTarget builds a target of the given kind (TargetEmbed, ...).
func NewTarget(kind string, opts TargetOptions) (Target, error) {
	switch kind {
	case TargetEmbed:
		return &embedTarget{}, nil
	case TargetDurable:
		if opts.Dir == "" {
			return nil, fmt.Errorf("scenario: durable target needs a dir")
		}
		return &embedTarget{dir: opts.Dir}, nil
	case TargetWire:
		if opts.Addr == "" {
			return nil, fmt.Errorf("scenario: wire target needs an address")
		}
		return &wireTarget{opts: opts}, nil
	case TargetCluster:
		if opts.LeaderAddr == "" {
			return nil, fmt.Errorf("scenario: cluster target needs a leader address")
		}
		return &wireTarget{opts: opts, cluster: true}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown target kind %q", kind)
	}
}

// IsAbort reports whether an Apply error is a transaction abort — an
// expected outcome of contended txn scenarios, counted separately from
// real errors — at either the engine or the client layer.
func IsAbort(err error) bool {
	return errors.Is(err, engine.ErrTxnAborted) ||
		errors.Is(err, engine.ErrWriteConflict) ||
		errors.Is(err, client.ErrAborted) ||
		errors.Is(err, client.ErrConflict)
}

// embedTarget hosts the in-process kinds: a volatile engine.DB when dir
// is empty, a WAL-backed DurableDB otherwise. Every tenant table is served
// through a partition.Table, hash-partitioned when the spec says so.
type embedTarget struct {
	dir     string
	d       *engine.DurableDB
	tables  []*partition.Table
	advisor *advisor.Advisor
}

// Setup implements Target.
func (t *embedTarget) Setup(spec *Spec) error {
	var db partition.Database = engine.NewDB(hermit.PhysicalPointers)
	if t.dir != "" {
		d, err := engine.OpenDurable(t.dir, hermit.PhysicalPointers)
		if err != nil {
			return err
		}
		t.d, db = d, d
	}
	cols, parts := spec.Columns(), spec.Table.Partitions
	for i := 0; i < spec.tenantCount(); i++ {
		name := TableName(i)
		var err error
		if parts > 0 {
			err = db.CreatePartitionedTable(name, cols, 0, parts)
		} else {
			_, err = db.CreateTable(name, cols, 0)
		}
		if err != nil {
			return err
		}
		pt, err := partition.OpenDurable(db, name, partition.Options{})
		if err != nil {
			return err
		}
		for _, col := range spec.Table.BTreeCols {
			if err := pt.CreateBTreeIndex(col, false); err != nil {
				return err
			}
		}
		t.tables = append(t.tables, pt)
	}
	if spec.Advisor {
		t.advisor = db.EnableAdvisor(advisorOpts())
	}
	return nil
}

// advisorOpts is the advisor configuration convergence scenarios run
// with: a tight pass interval so auto-indexing lands inside a bench
// phase, deterministic sampling.
func advisorOpts() engine.AdvisorOptions {
	return engine.AdvisorOptions{
		Interval:   50 * time.Millisecond,
		MinQueries: 32,
		Seed:       1,
	}
}

// Session implements Target; embedded sessions share the engine, which
// is safe for concurrent use.
func (t *embedTarget) Session() (Session, error) {
	return &embedSession{tables: t.tables}, nil
}

// Close implements Target.
func (t *embedTarget) Close() error {
	if t.advisor != nil {
		t.advisor.Stop()
	}
	if t.d != nil {
		return t.d.Close()
	}
	return nil
}

// embedSession applies ops to the tenant's table.
type embedSession struct{ tables []*partition.Table }

// Apply implements Session.
func (s *embedSession) Apply(op *Op) (int, error) {
	tb := s.tables[op.Tenant]
	switch op.Kind {
	case OpPoint, OpRange:
		_, st, err := tb.Exec(engineQuery(op), nil)
		return st.Rows, err
	case OpInsert:
		_, err := tb.Insert(op.Row)
		return 1, err
	case OpUpdate:
		return 1, tb.UpdateColumn(op.Key, op.Col, op.Val)
	case OpDelete:
		found, err := tb.Delete(op.Key)
		if err != nil {
			return 0, err
		}
		if found {
			return 1, nil
		}
		return 0, nil
	case OpTxn:
		results := tb.ExecuteBatch(engineOps(op.Members), 1)
		return len(op.Members), batchError(len(results), func(i int) error { return results[i].Err })
	default:
		return 0, fmt.Errorf("scenario: unknown op kind %d", op.Kind)
	}
}

// Close implements Session (embedded sessions hold no resources).
func (s *embedSession) Close() error { return nil }

// engineQuery lowers a compiled point or range read to an engine query.
func engineQuery(op *Op) engine.Query {
	if op.Kind == OpPoint {
		return engine.Query{Col: op.Col, Lo: op.Key, Hi: op.Key}
	}
	return engine.Query{Col: op.Col, Lo: op.Lo, Hi: op.Hi}
}

// engineOps lowers compiled txn members to engine batch ops.
func engineOps(members []Op) []engine.Op {
	ops := make([]engine.Op, len(members))
	for i, m := range members {
		switch m.Kind {
		case OpPoint, OpRange:
			ops[i] = engine.Op{Kind: engine.OpQuery, Query: engineQuery(&m)}
		case OpUpdate:
			ops[i] = engine.Op{Kind: engine.OpUpdate, PK: m.Key, Col: m.Col, Value: m.Val}
		case OpInsert:
			ops[i] = engine.Op{Kind: engine.OpInsert, Row: m.Row}
		case OpDelete:
			ops[i] = engine.Op{Kind: engine.OpDelete, PK: m.Key}
		}
	}
	return ops
}

// batchError folds a batch's per-op errors into one Apply error: aborts
// collapse to the abort (the whole batch rolled back — one logical
// outcome), anything else surfaces the first real failure.
func batchError(n int, errAt func(int) error) error {
	var abort error
	for i := 0; i < n; i++ {
		err := errAt(i)
		if err == nil {
			continue
		}
		if IsAbort(err) {
			abort = err
			continue
		}
		return err
	}
	return abort
}

// wireTarget replays over TCP: a single hermitd (cluster=false) or a
// replicated deployment via client.DialCluster. Setup DDL always goes to
// the leader; each session dials its own connection(s).
type wireTarget struct {
	opts    TargetOptions
	cluster bool
	spec    *Spec
}

// Setup implements Target: DDL over a short-lived leader connection.
func (t *wireTarget) Setup(spec *Spec) error {
	t.spec = spec
	addr := t.opts.Addr
	if t.cluster {
		addr = t.opts.LeaderAddr
	}
	conn, err := client.Dial(addr, client.Options{})
	if err != nil {
		return err
	}
	defer conn.Close()
	cols := spec.Columns()
	for i := 0; i < spec.tenantCount(); i++ {
		name := TableName(i)
		if err := conn.CreateTable(name, cols, 0, spec.Table.Partitions); err != nil {
			return err
		}
		for _, col := range spec.Table.BTreeCols {
			if err := conn.CreateBTreeIndex(name, col); err != nil {
				return err
			}
		}
	}
	return nil
}

// Session implements Target: one dedicated connection (or cluster of
// connections) per replay worker.
func (t *wireTarget) Session() (Session, error) {
	if t.cluster {
		cl, err := client.DialCluster(t.opts.LeaderAddr, t.opts.FollowerAddrs, client.ClusterOptions{
			ReadYourWrites: t.opts.ReadYourWrites,
		})
		if err != nil {
			return nil, err
		}
		return &wireSession{cl: cl}, nil
	}
	conn, err := client.Dial(t.opts.Addr, client.Options{})
	if err != nil {
		return nil, err
	}
	return &wireSession{conn: conn}, nil
}

// Close implements Target (per-session connections close with their
// sessions).
func (t *wireTarget) Close() error { return nil }

// wireSession holds one worker's connection: a Conn against a single
// node, or a Cluster that routes reads to followers.
type wireSession struct {
	conn *client.Conn
	cl   *client.Cluster
}

// Apply implements Session.
func (s *wireSession) Apply(op *Op) (int, error) {
	name := TableName(op.Tenant)
	switch op.Kind {
	case OpPoint:
		rows, err := s.point(name, op.Col, op.Key)
		return len(rows), err
	case OpRange:
		rows, err := s.scan(name, op.Col, op.Lo, op.Hi)
		return len(rows), err
	case OpInsert:
		return 1, s.insert(name, op.Row)
	case OpUpdate:
		return 1, s.update(name, op.Key, op.Col, op.Val)
	case OpDelete:
		found, err := s.del(name, op.Key)
		if err != nil {
			return 0, err
		}
		if found {
			return 1, nil
		}
		return 0, nil
	case OpTxn:
		return len(op.Members), s.atomic(name, op.Members)
	default:
		return 0, fmt.Errorf("scenario: unknown op kind %d", op.Kind)
	}
}

func (s *wireSession) point(table string, col int, v float64) ([][]float64, error) {
	if s.cl != nil {
		return s.cl.Point(table, col, v)
	}
	return s.conn.Point(table, col, v)
}

func (s *wireSession) scan(table string, col int, lo, hi float64) ([][]float64, error) {
	if s.cl != nil {
		return s.cl.Range(table, col, lo, hi)
	}
	return s.conn.Range(table, col, lo, hi)
}

func (s *wireSession) insert(table string, row []float64) error {
	if s.cl != nil {
		return s.cl.Insert(table, row)
	}
	return s.conn.Insert(table, row)
}

func (s *wireSession) update(table string, pk float64, col int, v float64) error {
	if s.cl != nil {
		return s.cl.Update(table, pk, col, v)
	}
	return s.conn.Update(table, pk, col, v)
}

func (s *wireSession) del(table string, pk float64) (bool, error) {
	if s.cl != nil {
		return s.cl.Delete(table, pk)
	}
	return s.conn.Delete(table, pk)
}

// atomic submits a txn's members as one server-side atomic batch
// (cluster writes go to the leader).
func (s *wireSession) atomic(table string, members []Op) error {
	conn := s.conn
	if s.cl != nil {
		conn = s.cl.Leader()
	}
	ops := make([]client.Op, len(members))
	for i, m := range members {
		switch m.Kind {
		case OpPoint:
			ops[i] = client.Op{Kind: client.OpPoint, Table: table, Col: m.Col, Lo: m.Key}
		case OpUpdate:
			ops[i] = client.Op{Kind: client.OpUpdate, Table: table, PK: m.Key, Col: m.Col, Value: m.Val}
		case OpInsert:
			ops[i] = client.Op{Kind: client.OpInsert, Table: table, Row: m.Row}
		case OpDelete:
			ops[i] = client.Op{Kind: client.OpDelete, Table: table, PK: m.Key}
		case OpRange:
			ops[i] = client.Op{Kind: client.OpRange, Table: table, Col: m.Col, Lo: m.Lo, Hi: m.Hi}
		}
	}
	results, err := conn.Batch(ops)
	if err != nil {
		return err
	}
	return batchError(len(results), func(i int) error { return results[i].Err })
}

// Close implements Session.
func (s *wireSession) Close() error {
	if s.cl != nil {
		return s.cl.Close()
	}
	return s.conn.Close()
}
