package difftest

import (
	"fmt"
	"math"

	"hermit/internal/client"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/keyorder"
	"hermit/internal/partition"
	"hermit/internal/server"
)

// srvSystem replays the op stream through the full serving tier: a
// loopback hermitd Server fronting a durable database, its table
// hash-partitioned (srvParts), driven by the client package under a tenant
// namespace. Every operation — DDL
// included — crosses the wire, so the protocol encoding, session
// dispatch, backend routing and error mapping are all inside the
// differential comparison. cycle() restarts the whole stack (server
// drain, database close/reopen, re-dial), which is the harshest client
// a server sees: one that reconnects right after a recovery.
type srvSystem struct {
	dir  string
	name string

	d    *engine.DB
	srv  *server.Server
	conn *client.Conn
}

// srvTenant namespaces the difftest table, so the physical table name
// the engine recovers ("dt@t") differs from the wire name ("t").
const srvTenant = "dt"

// start brings up the server over the current database and dials it.
func (s *srvSystem) start() error {
	s.srv = server.New(s.d, server.Options{})
	if err := s.srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	conn, err := client.Dial(s.srv.Addr().String(), client.Options{Tenant: srvTenant})
	if err != nil {
		s.srv.Close()
		return err
	}
	s.conn = conn
	return nil
}

func (s *srvSystem) insert(row []float64) error { return s.conn.Insert(s.name, row) }

func (s *srvSystem) remove(pk float64) (bool, error) { return s.conn.Delete(s.name, pk) }

func (s *srvSystem) update(pk float64, col int, v float64) error {
	return s.conn.Update(s.name, pk, col, v)
}

func (s *srvSystem) query(col int, lo, hi float64) ([][]float64, error) {
	rows, err := s.conn.Range(s.name, col, lo, hi)
	if err != nil {
		return nil, err
	}
	return sortRows(rows), nil
}

// burst sends a run of actions as one client pipeline — independent
// auto-commit requests the session executes as alternating write runs and
// read runs — and reports each request's outcome in order.
func (s *srvSystem) burst(acts []action) ([]outcome, error) {
	p := s.conn.Pipeline()
	for i := range acts {
		switch a := &acts[i]; a.kind {
		case actInsert:
			p.Insert(s.name, a.row)
		case actDelete:
			p.Delete(s.name, a.pk)
		case actUpdate:
			p.Update(s.name, a.pk, a.col, a.v)
		case actQuery:
			p.Range(s.name, a.col, a.lo, a.hi)
		}
	}
	results, err := p.Flush()
	if err != nil {
		return nil, err
	}
	outs := make([]outcome, len(results))
	for i, r := range results {
		outs[i] = outcome{err: r.Err, found: r.Found}
		if acts[i].kind == actQuery && r.Err == nil {
			outs[i].rows = sortRows(r.Rows)
		}
	}
	return outs, nil
}

// state dumps the live row set: a primary-key range scan from -Inf to +Inf
// over the wire, and the rows under NaN keys from the database behind the
// server — no wire read reaches those (a NaN satisfies no comparison, and
// only a point on the primary index forced by Query.Path finds one named by
// itself, which the protocol does not carry).
func (s *srvSystem) state() (map[uint64][]float64, error) {
	rows, err := s.conn.Range(s.name, 0, math.Inf(-1), math.Inf(1))
	if err != nil {
		return nil, err
	}
	out := make(map[uint64][]float64, len(rows))
	for _, row := range rows {
		out[keyorder.Bits(row[0])] = append([]float64(nil), row...)
	}
	pt, err := partition.Open(s.d, srvTenant+"@"+s.name, partition.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	all, err := partState(pt)
	if err != nil {
		return nil, err
	}
	for pk, row := range all {
		if math.IsNaN(row[0]) {
			out[pk] = row
		}
	}
	return out, nil
}

// cycle restarts the full stack: drain the server, optionally
// checkpoint, close and reopen the database, restart the server and
// re-dial. A recovery that skipped records is a divergence in itself.
func (s *srvSystem) cycle(checkpoint bool) error {
	s.conn.Close()
	if err := s.srv.Close(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if checkpoint {
		if err := s.d.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	if err := s.d.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	d, err := engine.OpenDurable(s.dir, hermit.PhysicalPointers)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if n, serr := d.RecoverySkipped(); n != 0 {
		return fmt.Errorf("recovery skipped %d records (last: %v)", n, serr)
	}
	s.d = d
	return s.start()
}

func (s *srvSystem) close() error {
	s.conn.Close()
	s.srv.Close()
	return s.d.Close()
}

// srvParts is the served table's partition count: every wire read scatters
// and gathers, the path the serving benchmark measures. (A one-partition
// table is covered by the server package's round-trip test.)
const srvParts = 3

// buildServer constructs the served system, issuing all DDL over the
// wire: the partitioned table plus the host B+-tree and target Hermit
// index.
func buildServer(cfg Config, s schema) (system, error) {
	d, err := engine.OpenDurable(cfg.Dir, hermit.PhysicalPointers)
	if err != nil {
		return nil, err
	}
	ss := &srvSystem{dir: cfg.Dir, name: "t", d: d}
	if err := ss.start(); err != nil {
		d.Close()
		return nil, err
	}
	if err := ss.conn.CreateTable("t", s.cols, 0, srvParts); err != nil {
		ss.close()
		return nil, err
	}
	if err := ss.conn.CreateBTreeIndex("t", 1); err != nil {
		ss.close()
		return nil, err
	}
	if err := ss.conn.CreateHermitIndex("t", 2, 1); err != nil {
		ss.close()
		return nil, err
	}
	return ss, nil
}
