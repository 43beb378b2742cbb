// Package hermitdb is the public API of the Hermit reproduction: a
// main-memory embedded relational engine — durable through a WAL and a
// paged block tier when opened with OpenDurable — whose secondary
// indexes can be built as Hermit indexes — succinct TRS-Tree structures
// that exploit column correlations to answer queries through an existing
// index on a correlated host column, as described in "Designing Succinct
// Secondary Indexing Mechanism by Exploiting Column Correlations"
// (SIGMOD 2019).
//
// # Quick start
//
//	db := hermitdb.NewDB(hermitdb.PhysicalPointers)
//	tb, _ := db.CreateTable("stocks", []string{"day", "low", "high"}, 0)
//	// ... insert rows ...
//	tb.CreateBTreeIndex(1, false)  // complete index on "low" (the host)
//	tb.CreateHermitIndex(2, 1)     // succinct Hermit index on "high"
//	rows, stats, _ := tb.Exec(hermitdb.Query{Col: 2, Lo: 100, Hi: 120}, nil)
//	// rows holds every matching row, 3 values each, back to back.
//
// Or let the engine decide from the data, as the paper's workflow does:
//
//	kind, _ := tb.CreateIndexAuto(2, hermitdb.DefaultDiscovery())
//	// kind == hermitdb.KindHermit when a usable correlation exists.
//
// The subpackages under internal/ contain the full implementation: the
// TRS-Tree (internal/trstree), the Hermit lookup mechanism
// (internal/hermit), the B+-tree and storage substrates, the paged block
// tier (internal/block), the Correlation Maps baseline (internal/cm), and the
// experiment harness (internal/bench, driven by cmd/hermit-bench).
package hermitdb

import (
	"hermit/internal/advisor"
	"hermit/internal/client"
	"hermit/internal/correlation"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/partition"
	"hermit/internal/repl"
	"hermit/internal/server"
	"hermit/internal/storage"
	"hermit/internal/trstree"
	"hermit/internal/workload"
)

// Core engine types.
type (
	// DB is a catalog of tables sharing one tuple-identifier scheme: in
	// memory (NewDB), or durable through a WAL and checkpoints (§6) when
	// opened with OpenDurable. A durable DB is safe for concurrent use; its
	// writes must go through its by-name methods (Insert/Delete/
	// UpdateColumn/ApplyEach/ExecuteBatch, a Txn), which coordinate with
	// Checkpoint and are acknowledged under the configured SyncPolicy.
	DB = engine.DB
	// Table is one relation plus its indexes.
	Table = engine.Table
	// DurableDB is DB: the name benchmark/ uses for one opened with
	// OpenDurable.
	DurableDB = engine.DB
	// DurableOptions selects a durable DB's sync policy and group-commit
	// interval.
	DurableOptions = engine.DurableOptions
	// SyncPolicy selects when a durable mutation is acknowledged.
	SyncPolicy = engine.SyncPolicy
	// IndexDef records how to rebuild one index during recovery.
	IndexDef = engine.IndexDef
	// Query is one read: a range predicate (a point when Lo == Hi), an
	// optional second predicate, the snapshot it reads at and an optional
	// forced access path.
	Query = engine.Query
	// Pred is one range predicate, a Query's optional second one.
	Pred = engine.Pred
	// QueryStats describes one query's execution.
	QueryStats = engine.QueryStats
	// InsertStats breaks an insert's cost into index-maintenance classes.
	InsertStats = engine.InsertStats
	// MemoryStats is the space breakdown of a table and its indexes.
	MemoryStats = engine.MemoryStats
	// IndexKind identifies which mechanism serves a column.
	IndexKind = engine.IndexKind
	// HermitOption customises Hermit index creation.
	HermitOption = engine.HermitOption
)

// Index mechanism kinds.
const (
	KindNone    = engine.KindNone
	KindBTree   = engine.KindBTree
	KindHermit  = engine.KindHermit
	KindCM      = engine.KindCM
	KindPrimary = engine.KindPrimary
)

// Transactions and MVCC. Rows are multi-versioned: every read runs
// against a commit-clock snapshot and observes a committed prefix of
// history — never a partially applied batch — while writers proceed
// without blocking readers. Explicit transactions give snapshot isolation
// with first-committer-wins conflict detection:
//
//	x := db.Begin()
//	x.Insert("stocks", []float64{9, 1, 2})
//	x.Update("stocks", 7, 1, 42)
//	if err := x.Commit(); err != nil { // hermitdb.ErrWriteConflict?
//		// nothing was applied
//	}
//
// Tables are named, plain or partitioned, as everywhere else. A Txn of a
// durable DB is WAL-logged: its mutations are logged as one
// txn-begin/commit group, and recovery discards transactions whose commit
// record never reached the log.
// Snapshots are first-class (WithSnapshot, DB.Snapshot, Query.Snap), so
// several queries can observe one consistent state.
type (
	// Txn is a snapshot-isolation transaction over named tables (DB.Begin),
	// WAL-logged on a durable DB.
	Txn = engine.Txn
	// Snapshot is a registered consistent read view (DB.Snapshot,
	// PartitionedTable.Snapshot); release it when done.
	Snapshot = engine.Snapshot
	// Clock is the commit clock ordering transactions: one per database,
	// for every table and partition in it.
	Clock = engine.Clock
)

// Transaction errors.
var (
	// ErrWriteConflict: another transaction committed to a written key
	// after this transaction's snapshot (first committer wins).
	ErrWriteConflict = engine.ErrWriteConflict
	// ErrTxnDone: the transaction was already committed or rolled back.
	ErrTxnDone = engine.ErrTxnDone
	// ErrTxnAborted marks the sibling mutations of an aborted atomic batch.
	ErrTxnAborted = engine.ErrTxnAborted
)

// WithSnapshot runs fn against one registered snapshot of db and releases
// it afterwards: every query inside fn that names it as Query.Snap
// observes the same commit-clock instant.
func WithSnapshot(db *DB, fn func(*Snapshot) error) error {
	snap := db.Snapshot()
	defer snap.Release()
	return fn(snap)
}

// Concurrent serving. Tables are safe for concurrent use: queries take
// per-index read latches, writers take a per-key stripe plus the latches
// of the structures they touch (see internal/engine). A database's batched
// executor executes a slice of operations on the tables they name, plain
// or partitioned; a batch containing mutations runs as ONE atomic
// snapshot-isolation transaction (all-or-nothing, queries reading the
// batch-start snapshot), while read-only batches drain across a worker
// pool sharing one snapshot:
//
//	ops := []hermitdb.Op{
//		{Table: "stocks", Kind: hermitdb.OpQuery, Query: hermitdb.Query{Col: 2, Lo: 100, Hi: 120}},
//		{Table: "stocks", Kind: hermitdb.OpInsert, Row: []float64{9, 1, 2}},
//	}
//	results := db.ExecuteBatch(ops, 8)
type (
	// RID is a physical record identifier ("blockID+offset", §5.1): the
	// address of one version of a row, good for as long as that version is
	// kept. The commit that updates or deletes a row reclaims the version it
	// ends — unless an open snapshot can still see it — and the slot is
	// reused: the RID then reads whichever row was written there next.
	// Queries answer with rows, copied under the snapshot they read at
	// (Exec), so no caller holds a RID across a commit; Table.Lookup, the
	// RID stage under Exec, documents how long its RIDs stay good.
	RID = storage.RID
	// Op is one operation in an ExecuteBatch batch.
	Op = engine.Op
	// OpKind selects what an Op does.
	OpKind = engine.OpKind
	// OpResult is the positional outcome of one Op.
	OpResult = engine.OpResult
)

// Batched-executor operation kinds.
const (
	OpQuery  = engine.OpQuery
	OpInsert = engine.OpInsert
	OpDelete = engine.OpDelete
	OpUpdate = engine.OpUpdate
)

// Hash-partitioned tables with parallel scatter-gather execution. A
// partitioned table splits rows across N per-partition engine tables
// (each with its own indexes, latches and planner state) by a hash of the
// primary key. DB.CreatePartitionedTable creates one; the database routes
// its writes by key, applies index DDL to every partition (a durable DB
// logs both, each WAL record carrying its partition id) and reads it
// (DB.Exec): a pk point query routes to one partition, any other query
// runs on every partition, on at most a given number of goroutines, and
// returns an ordered merge; the advisor sees it as one table. A
// PartitionedTable fronts one table of a DB, plain or partitioned
// (OpenPartitionedDurable).
//
//	pt, _ := hermitdb.CreatePartitionedTable(hermitdb.PhysicalPointers,
//		"orders", cols, 0, hermitdb.PartitionOptions{Partitions: 8})
//	rows, stats, _ := pt.Exec(hermitdb.Query{Col: 2, Lo: 100, Hi: 120}, nil) // stats.FanOut == 8
type (
	// PartitionedTable is a hash-partitioned table with scatter-gather
	// execution (see internal/partition).
	PartitionedTable = partition.Table
	// PartitionOptions selects the partition count and the bound on each
	// read's goroutines.
	PartitionOptions = partition.Options
	// PartitionedRID identifies a row as (partition, in-partition RID).
	PartitionedRID = partition.RID
	// PartitionStats describes one read of a table, plain or partitioned
	// (fan-out, routing, merged row counts, per-partition stats): what
	// PartitionedTable.Exec and a batch's OpResult.Stats report.
	PartitionStats = engine.GatherStats
	// PartitionedPlan is Explain's fan-out report: one costed engine plan
	// per executing partition plus total/critical-path cost.
	PartitionedPlan = partition.Plan
)

// Partitioned-table constructors, re-exported from internal/partition.
var (
	// CreatePartitionedTable creates an in-memory partitioned table in a
	// DB of its own.
	CreatePartitionedTable = partition.New
	// OpenPartitionedDurable fronts an existing table of a DB — one made
	// by DB.CreatePartitionedTable or CreateTable, or a recovered durable
	// one.
	OpenPartitionedDurable = partition.Open
)

// Cost-based planning and self-tuning. A Query whose Path is left zero is
// routed through the access path the planner estimates cheapest, using
// per-path runtime feedback (hit counts, false-positive EWMAs, sampled
// latency EWMAs); Table.Explain exposes the plan without executing it, and
// a Query.Path forces any path the plan lists as available:
//
//	plan, _ := tb.Explain(2, 100, 120)
//	fmt.Println(plan.Chosen, plan.Candidates[0].Cost)
//	rows, _, _ := tb.Exec(hermitdb.Query{Col: 2, Lo: 100, Hi: 120, Path: hermitdb.PathHermit}, nil)
//
// The background advisor closes the loop the paper leaves to the DBA: it
// watches the observed query mix, discovers correlated column pairs from
// samples, and auto-creates (or drops) Hermit indexes versus complete
// B+-trees under a size budget:
//
//	adv := db.EnableAdvisor(hermitdb.DefaultAdvisorOptions())
//	defer adv.Stop()
//
// It advises a partitioned table as one table, building on every
// partition; on a durable DB its DDL is WAL-logged and survives recovery.
type (
	// Plan is the planner's costed decision for one predicate, as returned
	// by Table.Explain.
	Plan = engine.Plan
	// PathEstimate is one access path's entry in a Plan.
	PathEstimate = engine.PathEstimate
	// AccessPath identifies one way the engine can serve a predicate.
	AccessPath = engine.AccessPath
	// ColumnQueryStats summarises one column's observed workload
	// (Table.QueryStatsFor).
	ColumnQueryStats = engine.ColumnQueryStats
	// Advisor is the background self-tuning loop; obtain one with
	// DB.EnableAdvisor.
	Advisor = advisor.Advisor
	// AdvisorOptions tunes the advisor (sampling, size budget, outlier and
	// false-positive thresholds, pass interval).
	AdvisorOptions = engine.AdvisorOptions
	// AdvisorAction records one decision the advisor carried out.
	AdvisorAction = advisor.Action
)

// Access paths the planner can choose, and a Query.Path may force.
const (
	// PathScan is the sequential-scan fallback.
	PathScan = engine.PathScan
	// PathPrimary scans the primary index.
	PathPrimary = engine.PathPrimary
	// PathBTree scans a complete secondary B+-tree.
	PathBTree = engine.PathBTree
	// PathHermit runs the Hermit mechanism (TRS-Tree + host index).
	PathHermit = engine.PathHermit
	// PathCM runs a Correlation Map lookup.
	PathCM = engine.PathCM
	// PathTRSDirect resolves TRS-Tree host ranges by a sequential scan.
	PathTRSDirect = engine.PathTRSDirect
)

// Advisor action kinds (AdvisorAction.Kind).
const (
	// AdvisorCreatedHermit: a Hermit index was auto-created.
	AdvisorCreatedHermit = advisor.CreatedHermit
	// AdvisorCreatedBTree: a complete B+-tree index was auto-created.
	AdvisorCreatedBTree = advisor.CreatedBTree
	// AdvisorDroppedIndex: an idle advisor-created index was dropped.
	AdvisorDroppedIndex = advisor.DroppedIndex
	// AdvisorReplacedWithBTree: a misbehaving Hermit was rebuilt complete.
	AdvisorReplacedWithBTree = advisor.ReplacedWithBTree
)

// DefaultAdvisorOptions returns the advisor defaults (2s pass interval,
// 2000-row samples, unlimited budget, 25% outlier ceiling).
var DefaultAdvisorOptions = advisor.DefaultOptions

// WAL sync policies for a durable DB (see DurableOptions): SyncNever
// acknowledges after the OS write (default; survives process crashes, not
// power loss), SyncGroup batches fsyncs across concurrent writers on a
// commit interval (group commit), SyncAlways fsyncs before acknowledging
// every mutation.
const (
	SyncNever  = engine.SyncNever
	SyncGroup  = engine.SyncGroup
	SyncAlways = engine.SyncAlways
)

// Tuple-identifier schemes (paper §5.1).
type PointerScheme = hermit.PointerScheme

const (
	// PhysicalPointers stores record locations in indexes (PostgreSQL-style).
	PhysicalPointers = hermit.PhysicalPointers
	// LogicalPointers stores primary keys in indexes (MySQL-style).
	LogicalPointers = hermit.LogicalPointers
)

// TRS-Tree configuration (paper §4.5).
type Params = trstree.Params

// Correlation discovery configuration (paper §2.2, App. D.1).
type Discovery = correlation.Config

// Constructors and options, re-exported so callers need only this package.
var (
	// NewDB creates a database using the given tuple-identifier scheme.
	NewDB = engine.NewDB
	// OpenDurable opens a WAL + checkpoint durable database in a directory.
	OpenDurable = engine.OpenDurable
	// OpenDurableOptions opens a durable database with an explicit sync
	// policy (no-sync / group-commit / sync-every-op).
	OpenDurableOptions = engine.OpenDurableOptions
	// DefaultParams returns the paper's default TRS-Tree parameters
	// (fanout 8, max height 10, outlier ratio 0.1, error bound 2).
	DefaultParams = trstree.DefaultParams
	// DefaultDiscovery returns correlation-discovery thresholds suitable
	// for the paper's workloads.
	DefaultDiscovery = correlation.DefaultConfig
	// WithParams overrides TRS-Tree parameters at index creation.
	WithParams = engine.WithParams
	// WithBuildWorkers enables parallel TRS-Tree construction (App. D.2).
	WithBuildWorkers = engine.WithBuildWorkers
	// WithProfile does nothing: per-phase timing is Table.SetProfile. It
	// stays for benchmark/, which passes it.
	WithProfile = engine.WithProfile
)

// Workload generators for the paper's three applications (Appendix A).
type (
	// SyntheticSpec generates the Synthetic application.
	SyntheticSpec = workload.SyntheticSpec
	// StockSpec generates the Stock application.
	StockSpec = workload.StockSpec
	// SensorSpec generates the Sensor application.
	SensorSpec = workload.SensorSpec
	// CorrelationKind selects the Synthetic correlation function.
	CorrelationKind = workload.CorrelationKind
)

// Synthetic correlation functions.
const (
	Linear  = workload.Linear
	Sigmoid = workload.Sigmoid
	Sin     = workload.Sin
)

// Workload helpers.
var (
	// DefaultStockSpec mirrors the paper's Stock dataset shape.
	DefaultStockSpec = workload.DefaultStockSpec
	// DefaultSensorSpec mirrors the paper's Sensor dataset shape.
	DefaultSensorSpec = workload.DefaultSensorSpec
	// QueryGen yields selectivity-controlled range predicates.
	QueryGen = workload.QueryGen
	// PointGen yields uniform point predicates.
	PointGen = workload.PointGen
)

// Serving tier: hermitd's server and client (cmd/hermitd wraps Server in
// a daemon; dial it with Dial). The wire protocol lives in
// internal/server/proto; Server and Conn are the supported surfaces.
type (
	// Server serves a DB over the length-prefixed binary protocol
	// (with an optional HTTP/JSON fallback endpoint): per-connection
	// sessions, read pipelining into the batch executor, admission
	// control, per-tenant namespaces with op quotas, graceful drain.
	Server = server.Server
	// ServerOptions tunes a Server (admission limits, queue depth,
	// tenant quotas, drain timeout, HTTP fallback address).
	ServerOptions = server.Options
	// ServerStats is a snapshot of a Server's counters.
	ServerStats = server.StatsSnapshot
	// ClientConn is one client session on a hermitd server. Not safe for
	// concurrent use; open one per goroutine.
	ClientConn = client.Conn
	// ClientOptions configures Dial (tenant namespace, dial timeout).
	ClientOptions = client.Options
	// ClientTxn is a server-side transaction driven over the wire.
	ClientTxn = client.Txn
	// ClientPipeline queues requests client-side and flushes them as one
	// burst, which the server coalesces into batch executions.
	ClientPipeline = client.Pipeline
	// ClientOp is one operation inside a client-side batch.
	ClientOp = client.Op
	// ClientResult is one operation's outcome inside a batch or pipeline.
	ClientResult = client.Result
	// Cluster is a multi-endpoint client over a replicated deployment:
	// writes go to the leader, reads round-robin across followers (with
	// an optional read-your-writes freshness token).
	Cluster = client.Cluster
	// ClusterOptions configures DialCluster (read-your-writes, tenant,
	// dial timeout).
	ClusterOptions = client.ClusterOptions
)

// Serving-tier constructors and sentinel errors.
var (
	// NewServer wraps an open DB in a Server; start it with
	// Server.Serve or Server.Start and stop it with Server.Close.
	NewServer = server.New
	// Dial connects a client session to a hermitd address.
	Dial = client.Dial
	// ErrOverloaded reports an admission-control rejection.
	ErrOverloaded = client.ErrOverloaded
	// ErrQuota reports an exhausted tenant op quota.
	ErrQuota = client.ErrQuota
	// ErrConflict reports a first-committer-wins write-write conflict.
	ErrConflict = client.ErrConflict
	// ErrAborted reports an op whose atomic batch was aborted by a
	// sibling mutation.
	ErrAborted = client.ErrAborted
	// ErrNoTable reports a missing table in the tenant's namespace.
	ErrNoTable = client.ErrNoTable
	// DialCluster connects to a replicated deployment: one leader
	// endpoint for writes, follower endpoints for reads.
	DialCluster = client.DialCluster
	// ErrNotLeader reports a write sent to a read-only follower; retry
	// against the leader (Cluster does this routing automatically).
	ErrNotLeader = client.ErrNotLeader
)

// Replication: leader-side WAL shipping and follower replay
// (internal/repl). cmd/hermitd wires these behind -replicate-from and
// -repl-ack; embedders can run both roles in-process (see
// examples/replica). A follower is promoted to leader with
// Follower.Promote, which bumps and fences the replication epoch.
type (
	// ReplLeader ships committed WAL frame groups to subscribed
	// followers and tracks their acked watermarks.
	ReplLeader = repl.Leader
	// ReplLeaderOptions tunes a ReplLeader (ack mode, quorum timeout,
	// frame batch bounds).
	ReplLeaderOptions = repl.LeaderOptions
	// ReplFollower tails a leader and replays its log into a local
	// read-only durable DB, publishing an applied-LSN watermark.
	ReplFollower = repl.Follower
	// ReplFollowerOptions configures OpenReplFollower (directory, stable
	// identity, leader address, pointer scheme, reconnect cadence).
	ReplFollowerOptions = repl.FollowerOptions
	// ReplAckMode selects when the leader acknowledges a write: as soon
	// as it is locally durable, or only after a follower quorum acks.
	ReplAckMode = repl.AckMode
)

// Replication constructors and ack modes.
var (
	// NewReplLeader wraps an open durable DB in a replication leader;
	// pass it to ServerOptions.Leader so subscriptions come in over the
	// server's wire endpoint.
	NewReplLeader = repl.NewLeader
	// OpenReplFollower opens (or resumes) a follower database tailing a
	// leader; pass it to ServerOptions.Follower to serve replicated
	// reads, and call Start to begin tailing.
	OpenReplFollower = repl.OpenFollower
)

// Replication ack modes (ReplLeaderOptions.AckMode).
const (
	// ReplAckAsync acknowledges writes on local durability; followers
	// apply in the background (the default).
	ReplAckAsync = repl.AckAsync
	// ReplAckQuorum acknowledges writes only after a majority of
	// registered followers have acked the write's LSN.
	ReplAckQuorum = repl.AckQuorum
)

// Client-side batch op kinds (ClientOp.Kind).
const (
	ClientOpPoint  = client.OpPoint
	ClientOpRange  = client.OpRange
	ClientOpRange2 = client.OpRange2
	ClientOpInsert = client.OpInsert
	ClientOpUpdate = client.OpUpdate
	ClientOpDelete = client.OpDelete
)
