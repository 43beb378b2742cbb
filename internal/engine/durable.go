package engine

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hermit/internal/block"
	"hermit/internal/hermit"
	"hermit/internal/storage"
	"hermit/internal/trstree"
	"hermit/internal/wal"
)

// DurableDB wraps the in-memory engine with the persistence scheme §6
// sketches for main-memory RDBMSs: write-ahead logging plus checkpointing
// — here in tiered block form, so checkpoint cost tracks the write rate,
// not the table size.
//
// Concurrency contract: DurableDB is safe for concurrent use. Mutations
// (Insert/Delete/UpdateColumn, a run of them through ApplyEach, and the
// atomic ExecuteBatch) coordinate
// through a reader/writer latch plus a per-primary-key stripe, so writers
// on different keys proceed in parallel; DDL quiesces them, and Checkpoint
// holds the latch only for a short swap window while the block image is
// written unlatched. The WAL itself serialises frames under one mutex and
// is written by whichever caller needs a record acknowledged (leader-writes
// group commit; no goroutine of its own). Queries may use the *Table
// returned by Table directly — but mutations through that handle bypass
// both the log and the durable layer's coordination, so they must go
// through the DurableDB methods.
//
// Durability protocol: every mutation is applied to the engine (which
// validates it) and then appended to the WAL under its key's stripe, so a
// rejected operation — e.g. a duplicate primary key — never poisons the
// log, and per-key apply order equals log order. The call returns when the
// record — for ApplyEach, every record of the run, all submitted before
// the first is awaited — is acknowledged under the configured sync policy
// (no-sync / group-commit / sync-every-op); an acknowledged synced write
// is never lost by a crash.
//
// Checkpoint is incremental: it harvests only the versions no block holds
// yet (Table.DeltaVersions, which reads a bit per slot) into one immutable,
// sorted block file per changed physical table, then atomically publishes
// a new epoch — a blocklist manifest naming every live block plus the
// (WAL segment, offset) pair replay resumes from — by renaming
// manifest.json. A crash anywhere leaves either the old manifest (old
// blocks + old replay window, nothing lost) or the new one (new blocks +
// the tail past the new cut), never a double apply. A background
// compactor merges same-level block runs (size-tiered), dropping
// superseded entries and bottom-level tombstones, off the checkpoint
// critical path. (Dead row versions are no business of either: the commit
// that ends a version reclaims it, see mvcc.go.) The WAL
// segment rotates only when it exceeds DurableOptions.WALRotateBytes;
// rotation quiesces mutations for the whole flush (still only a delta)
// so no acknowledged record can land in a segment the manifest no longer
// replays.
//
// OpenDurableOptions recovers by replaying the manifest's blocklist —
// oldest block to newest, later entries winning per key — truncating the
// current WAL segment to its last valid frame, and replaying the tail.
// Records whose replay fails are counted and skipped — surfaced through
// RecoverySkipped — rather than permanently aborting recovery. Indexes,
// including Hermit's TRS-Trees, are rebuilt from their recorded
// definitions, the cheap option the paper's construction numbers (§7.5)
// justify. Manifests of earlier layouts (one rows file per table) are
// rejected loudly, matching the v3→v4 precedent.
type DurableDB struct {
	db   *DB
	dir  string
	opts DurableOptions

	// mu is the durable layer's latch: mutations hold it shared (plus a
	// rows stripe); DDL and the checkpoint swap window hold it
	// exclusively. It protects tables (map and Defs slices), the log
	// pointer, and the published storage state (epoch, lists, handles,
	// manifestTables, pubWAL*).
	mu      sync.RWMutex
	log     *wal.Log
	epoch   uint64
	walSeg  uint64
	tables  map[string]*durableMeta
	rows    stripedLock
	orphans []*wal.Log // pre-rotation logs left open by a simulated crash

	// walBase is the global LSN the current segment continues from (the
	// last LSN of the previous segment; 0 for the first segment ever).
	// It keeps LSNs strictly increasing across rotations — the coordinate
	// system replication subscriptions live in. Guarded by mu.
	walBase uint64
	// walWatchers holds every channel registered through WatchWAL and not
	// cancelled since; a rotation re-registers them on the successor
	// segment's log so a tailer's wakeup source survives the swap. Guarded
	// by mu.
	walWatchers []chan struct{}

	// ckptMu serialises the flush/compaction pipeline: Checkpoint,
	// Compact and Close. It is always acquired before mu.
	ckptMu sync.Mutex

	// lists is the published blocklist per physical table (the blocks the
	// current manifest epoch names, oldest first); tiers holds, index for
	// index, the open block.Handle of each — its file descriptor and fence,
	// its page index and bloom once probed, never its entries. Both are
	// replaced whole, never written in place, so a reader may keep the
	// slices it loaded under mu after releasing it; setLists closes the
	// handles a new epoch drops.
	lists map[string][]block.Desc
	tiers map[string][]*block.Handle

	// manifestTables, pubWALSeg and pubWALStart are the catalog and replay
	// coordinates of the last published manifest. Compaction republishes
	// exactly these (never the live d.tables), so a manifest rewritten for
	// a block merge cannot shift the replay window past DDL or mutations
	// that only the WAL tail records.
	manifestTables map[string]*durableMeta
	pubWALSeg      uint64
	pubWALStart    int64

	// blockSeq issues block file IDs, monotonic per database directory.
	blockSeq atomic.Uint64

	// Storage counters (see StorageStats).
	flushes        atomic.Int64
	compactions    atomic.Int64
	flushedBytes   atomic.Int64
	compactedBytes atomic.Int64
	pageReads      atomic.Int64

	// compactErrs counts failed compaction rounds; compactErr holds the
	// most recent failure (cleared by the next successful round). The
	// background compactor stops merging on error, so without these a
	// stalled compactor is indistinguishable from an idle one.
	compactErrs  atomic.Int64
	compactErrMu sync.Mutex
	compactErr   error

	// compactKick wakes the background compactor; compactStop/compactDone
	// manage its shutdown.
	compactKick chan struct{}
	compactStop chan struct{}
	compactDone chan struct{}
	stopOnce    sync.Once

	// txnSeq issues transaction ids for the WAL's txn-begin/commit
	// framing; seeded past the largest id seen during recovery.
	txnSeq atomic.Uint64

	skipped     int
	lastSkipErr error
	uncommitted int // transactions whose commit record never hit the log

	// recPending holds the mutation records of transactions whose commit
	// record never reached the log, keyed by txn id — the uncommitted
	// tails recovery rolled back. A replication follower seeds its apply
	// buffers from this: the frames are already in its WAL, so the leader
	// resumes past them and only the commit decision is still owed.
	recPending map[uint64][]wal.Record

	// failpoint, when non-nil, is invoked at every step boundary of
	// Checkpoint and Compact with a step label; a returned error simulates
	// a crash at that boundary (the operation aborts with the on-disk
	// state exactly as a process kill would leave it). Test hook only.
	failpoint func(step string) error
}

// SyncPolicy selects when a durable mutation is acknowledged.
type SyncPolicy = wal.Policy

// Sync policies, re-exported from the wal package.
const (
	// SyncNever acknowledges after the OS write (fast; survives process
	// crashes, not power loss). The default.
	SyncNever = wal.SyncNever
	// SyncGroup batches fsyncs across concurrent writers (group commit).
	SyncGroup = wal.SyncGroup
	// SyncAlways fsyncs before acknowledging each mutation.
	SyncAlways = wal.SyncAlways
)

// Default storage tuning (see DurableOptions).
const (
	// DefaultCompactFanIn is the same-level run length that triggers a
	// block merge.
	DefaultCompactFanIn = 4
	// DefaultWALRotateBytes is the segment size beyond which a checkpoint
	// rotates to a fresh WAL segment.
	DefaultWALRotateBytes = 4 << 20
)

// DurableOptions configures the durability/latency trade-off and the
// block-storage tuning.
type DurableOptions struct {
	// Policy is the WAL sync policy (default SyncNever).
	Policy SyncPolicy
	// GroupInterval is the group-commit interval for SyncGroup
	// (wal.DefaultGroupInterval when zero).
	GroupInterval time.Duration
	// CompactFanIn is the number of contiguous same-level blocks that
	// triggers a merge (DefaultCompactFanIn when zero; minimum 2).
	CompactFanIn int
	// WALRotateBytes is the WAL segment size at which a checkpoint
	// rotates to a fresh segment — rotation quiesces mutations for the
	// whole flush, so it is kept rare (DefaultWALRotateBytes when zero;
	// negative disables rotation).
	WALRotateBytes int64
	// DisableAutoCompact turns off the background compactor goroutine;
	// compaction then runs only through explicit Compact calls. Used by
	// deterministic tests.
	DisableAutoCompact bool
	// ReplRetainWALSegments is how many pre-rotation WAL segments to keep
	// on disk for replication catch-up (0 — the default — deletes them at
	// the first GC after rotation, the historical behaviour). A leader
	// sets this so a briefly-disconnected follower can resume from its
	// LSN by tailing retained segments; a follower further behind than
	// the oldest retained segment falls back to snapshot bootstrap, which
	// is what bounds disk growth under an arbitrarily slow subscriber.
	ReplRetainWALSegments int
}

func (o DurableOptions) walOptions() wal.Options {
	return wal.Options{Policy: o.Policy, GroupInterval: o.GroupInterval}
}

func (o DurableOptions) fanIn() int {
	switch {
	case o.CompactFanIn == 0:
		return DefaultCompactFanIn
	case o.CompactFanIn < 2:
		return 2
	}
	return o.CompactFanIn
}

func (o DurableOptions) rotateBytes() int64 {
	if o.WALRotateBytes == 0 {
		return DefaultWALRotateBytes
	}
	return o.WALRotateBytes
}

type durableMeta struct {
	Cols  []string   `json:"cols"`
	PKCol int        `json:"pk"`
	Defs  []IndexDef `json:"defs"`
	// Partitions is the hash-partition count of a partitioned table (0 for
	// a plain table). A partitioned logical table is backed by engine
	// tables PartitionName(name, 0..Partitions-1); mutations route by
	// PartitionOf and every WAL record carries its partition id, so replay
	// and checkpoints rebuild each partition exactly.
	Partitions int `json:"parts,omitempty"`

	// phys holds the engine tables backing the logical table, indexed by
	// partition id (one entry for a plain table), so routing a mutation is
	// a hash and an index — no name formatting, no catalog lookup. Set by
	// createPhysical; copies of the metadata share it.
	phys []*Table
}

// route returns the engine table and partition id that own pk.
func (m *durableMeta) route(pk float64) (*Table, uint32) {
	p := PartitionOf(pk, m.Partitions)
	return m.phys[p], uint32(p)
}

// target returns the engine table, partition id and primary key a mutation
// op on this table routes to: an insert's key is its row's.
func (m *durableMeta) target(op *Op) (*Table, uint32, float64) {
	pk := op.PK
	if op.Kind == OpInsert {
		pk = 0
		if m.PKCol < len(op.Row) {
			pk = op.Row[m.PKCol]
		}
	}
	tb, part := m.route(pk)
	return tb, part, pk
}

// createPhysical creates the engine tables behind the logical table name
// and records them in meta.phys. A partial failure drops the tables
// already created, so it leaves no orphans in the engine catalog.
func (d *DurableDB) createPhysical(name string, meta *durableMeta) error {
	names := physicalNames(name, meta)
	phys := make([]*Table, len(names))
	for i, n := range names {
		tb, err := d.db.CreateTable(n, meta.Cols, meta.PKCol)
		if err != nil {
			for _, made := range names[:i] {
				d.db.dropTable(made)
			}
			return err
		}
		phys[i] = tb
	}
	meta.phys = phys
	return nil
}

// copyMeta deep-copies one table's metadata (the slices a concurrent DDL
// could grow while an unlatched flush is marshalling the manifest).
func copyMeta(m *durableMeta) *durableMeta {
	cp := *m
	cp.Cols = append([]string(nil), m.Cols...)
	cp.Defs = append([]IndexDef(nil), m.Defs...)
	return &cp
}

func copyTables(src map[string]*durableMeta) map[string]*durableMeta {
	out := make(map[string]*durableMeta, len(src))
	for name, m := range src {
		out[name] = copyMeta(m)
	}
	return out
}

// IndexDef records how to rebuild one index during recovery.
type IndexDef struct {
	Kind    string         `json:"kind"` // "btree" | "hermit" | "composite-btree" | "composite-hermit"
	Col     int            `json:"col"`
	Host    int            `json:"host,omitempty"`
	ACol    int            `json:"acol,omitempty"`
	MarkNew bool           `json:"new,omitempty"`
	Params  trstree.Params `json:"params,omitempty"`
}

// manifestVersion identifies the on-disk layout. Version 3 added
// hash-partitioned tables; version 4 moved the WAL to frame format v4
// (txn framing). Version 5 replaced the one-rows-file-per-table
// checkpoint image with tiered block storage: the manifest names a
// blocklist file (epoch-stamped, listing every live block per physical
// table) and records the WAL segment number separately from the epoch,
// because incremental checkpoints share a segment and only rotation
// opens a new one. Older manifests are rejected loudly.
const manifestVersion = 5

// manifest is the durably-published checkpoint descriptor. Epoch names
// the blocklist file; WALSeg/WALStart are the segment and byte offset
// replay resumes from. The triple makes recovery idempotent: the blocks
// reproduce exactly the rows live at the flush cut and the tail replays
// only records committed after it.
type manifest struct {
	Version  int    `json:"version"`
	Scheme   int    `json:"scheme"`
	Epoch    uint64 `json:"epoch"`
	WALSeg   uint64 `json:"wal_seg"`
	WALStart int64  `json:"wal_start"`
	// WALBase is the global LSN the manifest's segment continues from
	// (the previous segment's last LSN). Additive in v5: older manifests
	// decode it as 0, which reproduces the historical per-segment
	// numbering exactly.
	WALBase uint64                  `json:"wal_base_lsn,omitempty"`
	Tables  map[string]*durableMeta `json:"tables"`
}

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

type durablePaths struct{ dir string }

func (f durablePaths) String() string   { return f.dir }
func (f durablePaths) manifest() string { return filepath.Join(f.dir, "manifest.json") }
func (f durablePaths) wal(seg uint64) string {
	return filepath.Join(f.dir, fmt.Sprintf("wal.%08d.log", seg))
}
func (f durablePaths) blocklist(epoch uint64) string {
	return filepath.Join(f.dir, fmt.Sprintf("blocklist.%08d", epoch))
}
func (f durablePaths) block(id uint64) string {
	return filepath.Join(f.dir, fmt.Sprintf("block.%016x.blk", id))
}

// OpenDurable opens (or creates) a durable database in dir with default
// options: it loads the last checkpoint if present, repairs and replays
// the WAL tail, and opens the log for appending.
func OpenDurable(dir string, scheme hermit.PointerScheme) (*DurableDB, error) {
	return OpenDurableOptions(dir, scheme, DurableOptions{})
}

// OpenDurableOptions opens the durable database stored in dir with the
// given options.
func OpenDurableOptions(dir string, scheme hermit.PointerScheme, opts DurableOptions) (*DurableDB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := durablePaths{dir}
	// A pre-epoch database stored its WAL at a fixed path; opening it as
	// epoch 0 would silently ignore every record in it.
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
		return nil, fmt.Errorf("engine: %s holds a pre-epoch WAL (wal.log); migrate it before opening", dir)
	}
	db := NewDB(scheme)
	db.trackDeletes = true // reclaimed deletes must still reach a delta block
	d := &DurableDB{
		db:             db,
		dir:            dir,
		opts:           opts,
		tables:         make(map[string]*durableMeta),
		lists:          make(map[string][]block.Desc),
		tiers:          make(map[string][]*block.Handle),
		manifestTables: make(map[string]*durableMeta),
		compactKick:    make(chan struct{}, 1),
		compactStop:    make(chan struct{}),
		compactDone:    make(chan struct{}),
	}
	opened := false
	defer func() {
		if !opened {
			d.closeBlocks()
		}
	}()
	// Phase 1: the checkpoint image — blocklist replay per table.
	if raw, err := os.ReadFile(p.manifest()); err == nil {
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("engine: corrupt manifest: %w", err)
		}
		if m.Version != manifestVersion {
			return nil, fmt.Errorf("engine: checkpoint manifest version %d, want %d (older layouts must be migrated or discarded)", m.Version, manifestVersion)
		}
		if m.Scheme != int(scheme) {
			return nil, fmt.Errorf("engine: checkpoint scheme %d != requested %d", m.Scheme, scheme)
		}
		d.epoch = m.Epoch
		d.walSeg = m.WALSeg
		d.walBase = m.WALBase
		d.pubWALSeg = m.WALSeg
		d.pubWALStart = m.WALStart
		rawList, err := os.ReadFile(p.blocklist(m.Epoch))
		if err != nil {
			return nil, fmt.Errorf("engine: blocklist named by manifest: %w", err)
		}
		lists, err := block.DecodeBlocklist(rawList)
		if err != nil {
			return nil, fmt.Errorf("engine: blocklist %s: %w", p.blocklist(m.Epoch), err)
		}
		for _, l := range lists {
			d.lists[l.Table] = l.Blocks
			for _, desc := range l.Blocks {
				h, err := openBlock(p, desc)
				if err != nil {
					return nil, fmt.Errorf("engine: restoring %q: %w", l.Table, err)
				}
				d.tiers[l.Table] = append(d.tiers[l.Table], h)
				if desc.ID > d.blockSeq.Load() {
					d.blockSeq.Store(desc.ID)
				}
			}
		}
		names := make([]string, 0, len(m.Tables))
		for name := range m.Tables {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := d.restoreTable(name, m.Tables[name]); err != nil {
				return nil, err
			}
		}
		d.manifestTables = copyTables(d.tables)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	// Crash leftovers may hold block IDs above anything the manifest
	// references; seed the allocator past them so a new block can never
	// collide with a stray file.
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if id, ok := parseBlockID(e.Name()); ok && id > d.blockSeq.Load() {
				d.blockSeq.Store(id)
			}
		}
	}
	// Everything restored from blocks is flushed; everything the WAL tail
	// replays (below) commits after it and lands in the next delta.
	for _, meta := range d.tables {
		for _, tb := range meta.phys {
			tb.flushedTo(d.db.clock.Now())
		}
	}
	// Phase 2: replay the WAL tail. Replay stops at the first torn or
	// corrupt frame on its own; a record that fails to apply is counted
	// and skipped, never aborting recovery. Records carrying a transaction
	// id buffer until their commit record arrives — a transaction whose
	// OpTxnCommit never reached the log is an uncommitted tail and rolls
	// back (its buffered mutations are simply dropped).
	walPath := p.wal(d.walSeg)
	pending := make(map[uint64][]wal.Record)
	var maxTxn uint64
	applyCounted := func(rec wal.Record) {
		if aerr := d.apply(rec); aerr != nil {
			d.skipped++
			d.lastSkipErr = aerr
		}
	}
	err := wal.ReplayFrom(walPath, d.pubWALStart, func(rec wal.Record) error {
		if rec.Txn > maxTxn {
			maxTxn = rec.Txn
		}
		switch {
		case rec.Op == wal.OpTxnBegin:
			pending[rec.Txn] = nil
		case rec.Op == wal.OpTxnCommit:
			recs, ok := pending[rec.Txn]
			if !ok {
				d.skipped++
				d.lastSkipErr = fmt.Errorf("engine: commit for unknown txn %d", rec.Txn)
				return nil
			}
			for _, r := range recs {
				applyCounted(r)
			}
			delete(pending, rec.Txn)
		case rec.Txn != 0:
			// Buffered records outlive the callback (until their commit
			// arrives, possibly forever via d.recPending), but rec.Payload
			// aliases replay's reused scratch — copy it.
			rec.Payload = append([]byte(nil), rec.Payload...)
			pending[rec.Txn] = append(pending[rec.Txn], rec)
		default:
			applyCounted(rec)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.uncommitted = len(pending)
	d.recPending = pending
	d.txnSeq.Store(maxTxn)
	// Phase 3: open the log for appending — wal.OpenWith truncates any
	// crash-torn tail, which is what keeps post-recovery appends reachable
	// — clear stale-epoch leftovers, and start the compactor.
	wo := opts.walOptions()
	wo.BaseLSN = d.walBase
	log, err := wal.OpenWith(walPath, wo)
	if err != nil {
		return nil, err
	}
	d.log = log
	d.gcStale()
	if !opts.DisableAutoCompact {
		go d.compactor()
	} else {
		close(d.compactDone)
	}
	opened = true
	return d, nil
}

// openBlock opens the file of a block the blocklist names and holds it to
// what the blocklist says of it.
func openBlock(p durablePaths, desc block.Desc) (*block.Handle, error) {
	h, err := block.Open(p.block(desc.ID))
	if err != nil {
		return nil, err
	}
	if h.Count() != desc.Count {
		h.Close()
		return nil, fmt.Errorf("engine: block %016x holds %d entries, blocklist says %d", desc.ID, h.Count(), desc.Count)
	}
	return h, nil
}

// closeBlocks closes every open block handle; a cold read after it fails
// with os.ErrClosed. Caller holds d.mu, or owns d alone.
func (d *DurableDB) closeBlocks() {
	for _, tier := range d.tiers {
		for _, h := range tier {
			h.Close()
		}
	}
}

// parseBlockID extracts the ID from a block filename ("block.<16hex>.blk").
func parseBlockID(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "block.") || !strings.HasSuffix(name, ".blk") {
		return 0, false
	}
	id, err := strconv.ParseUint(name[len("block."):len(name)-len(".blk")], 16, 64)
	return id, err == nil
}

// RecoverySkipped reports how many WAL records failed to apply during the
// last open (with the last such error), e.g. records from a log written by
// a buggy earlier version. Zero on a clean recovery.
func (d *DurableDB) RecoverySkipped() (int, error) { return d.skipped, d.lastSkipErr }

// RecoveryUncommitted reports how many transactions were rolled back
// during the last open because their commit record never reached the log —
// the crash-interrupted tails recovery must discard. These are not
// failures: an unacknowledged commit has made no durability promise.
func (d *DurableDB) RecoveryUncommitted() int { return d.uncommitted }

// Snapshot registers a consistent read snapshot on the database's commit
// clock (see DB.Snapshot).
func (d *DurableDB) Snapshot() *Snapshot { return d.db.Snapshot() }

// Clock returns the commit clock ordering every table in this database.
func (d *DurableDB) Clock() *Clock { return d.db.Clock() }

// GC reclaims whatever backlog of ended versions a released snapshot left
// behind, down to the oldest live snapshot (see DB.GC). It does not wait for
// a flush: a reclaimed delete reaches the next delta block through its
// table's delete list.
func (d *DurableDB) GC() int { return d.db.GC() }

// restoreTable rebuilds one logical table from its blocklists, its
// partitions side by side (Parallel): a partition's rows, RIDs and
// indexes are a function of its own blocks alone.
func (d *DurableDB) restoreTable(name string, meta *durableMeta) error {
	if err := d.createPhysical(name, meta); err != nil {
		return err
	}
	for _, err := range Parallel(meta.phys, 0, func(tb *Table) error { return d.restorePartition(meta, tb) }) {
		if err != nil {
			return err
		}
	}
	d.tables[name] = meta
	return nil
}

// restorePartition rebuilds one physical table: block.Merge folds its blocks
// — later entries winning per key, tombstones deleting — a buffer of each at
// a time, and hands the surviving rows over in primary-key order, so every
// recovery of one directory gives a key the same RID and loads the primary
// B+-tree ascending (full leaves, as a bulk load leaves them); then the
// indexes.
func (d *DurableDB) restorePartition(meta *durableMeta, tb *Table) error {
	phys := tb.name
	tier := d.tiers[phys]
	for i, h := range tier {
		if h.Width() != len(meta.Cols) {
			return fmt.Errorf("engine: restoring %q: block %016x width %d != schema %d",
				phys, d.lists[phys][i].ID, h.Width(), len(meta.Cols))
		}
	}
	err := block.Merge(tier, func(_ float64, row []float64) error {
		if row == nil {
			return nil
		}
		_, err := tb.Insert(row)
		return err
	})
	if err != nil {
		return fmt.Errorf("engine: restoring %q: %w", phys, err)
	}
	for _, def := range meta.Defs {
		if err := applyIndexDef(tb, def); err != nil {
			return err
		}
	}
	return nil
}

// physicalNames lists the engine tables backing a logical table: the name
// itself for a plain table, one PartitionName per partition otherwise.
func physicalNames(name string, meta *durableMeta) []string {
	if meta.Partitions <= 0 {
		return []string{name}
	}
	names := make([]string, meta.Partitions)
	for i := range names {
		names[i] = PartitionName(name, i)
	}
	return names
}

// applyIndexDef builds the index def describes. Zero-valued Params — a
// definition that names none, as the wire DDL, advisor and HTTP paths
// produce — mean the TRS-Tree defaults: sanitizing the zero value instead
// would clamp the tree to one leaf holding every row as an outlier.
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

// apply executes one WAL record against the in-memory state (no logging).
func (d *DurableDB) apply(rec wal.Record) error {
	switch rec.Op {
	case wal.OpCreateTable:
		var ddl ddlTable
		if err := json.Unmarshal(rec.Payload, &ddl); err != nil {
			return err
		}
		meta := &durableMeta{Cols: ddl.Cols, PKCol: ddl.PKCol}
		if err := d.createPhysical(rec.Table, meta); err != nil {
			return err
		}
		d.tables[rec.Table] = meta
		return nil
	case wal.OpCreatePartitioned:
		var ddl ddlTable
		if err := json.Unmarshal(rec.Payload, &ddl); err != nil {
			return err
		}
		if ddl.Parts < 1 {
			return fmt.Errorf("engine: partitioned table %q with %d partitions", rec.Table, ddl.Parts)
		}
		meta := &durableMeta{Cols: ddl.Cols, PKCol: ddl.PKCol, Partitions: ddl.Parts}
		if err := d.createPhysical(rec.Table, meta); err != nil {
			return err
		}
		d.tables[rec.Table] = meta
		return nil
	case wal.OpCreateIndex:
		var ddl ddlIndex
		if err := json.Unmarshal(rec.Payload, &ddl); err != nil {
			return err
		}
		meta := d.tables[rec.Table]
		if meta == nil {
			return fmt.Errorf("%w: %q", ErrNoSuchTable, rec.Table)
		}
		for _, tb := range meta.phys {
			if err := applyIndexDef(tb, ddl.Def); err != nil {
				return err
			}
		}
		meta.Defs = append(meta.Defs, ddl.Def)
		return nil
	case wal.OpDropIndex:
		var ddl ddlDropIndex
		if err := json.Unmarshal(rec.Payload, &ddl); err != nil {
			return err
		}
		meta := d.tables[rec.Table]
		if meta == nil {
			return fmt.Errorf("%w: %q", ErrNoSuchTable, rec.Table)
		}
		kind, err := kindFromString(ddl.Kind)
		if err != nil {
			return err
		}
		for _, tb := range meta.phys {
			if err := tb.DropIndex(ddl.Col, kind); err != nil {
				return err
			}
		}
		d.removeDef(rec.Table, ddl.Col, ddl.Kind)
		return nil
	case wal.OpInsert:
		tb, err := d.applyTarget(rec)
		if err != nil {
			return err
		}
		row := decodeFloats(rec.Payload)
		_, err = tb.Insert(row)
		return err
	case wal.OpDelete:
		tb, err := d.applyTarget(rec)
		if err != nil {
			return err
		}
		vals := decodeFloats(rec.Payload)
		if len(vals) != 1 {
			return fmt.Errorf("engine: malformed delete record")
		}
		_, err = tb.Delete(vals[0])
		return err
	case wal.OpUpdate:
		tb, err := d.applyTarget(rec)
		if err != nil {
			return err
		}
		vals := decodeFloats(rec.Payload)
		if len(vals) != 3 {
			return fmt.Errorf("engine: malformed update record")
		}
		return tb.UpdateColumn(vals[0], int(vals[1]), vals[2])
	default:
		return fmt.Errorf("engine: unknown WAL op %d", rec.Op)
	}
}

// applyTarget resolves the engine table a replayed mutation applies to,
// routing by the record's partition id for partitioned tables.
func (d *DurableDB) applyTarget(rec wal.Record) (*Table, error) {
	meta := d.tables[rec.Table]
	if meta == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, rec.Table)
	}
	if meta.Partitions == 0 {
		return meta.phys[0], nil
	}
	if int(rec.Part) >= meta.Partitions {
		return nil, fmt.Errorf("engine: record partition %d out of range for %q (%d partitions)",
			rec.Part, rec.Table, meta.Partitions)
	}
	return meta.phys[rec.Part], nil
}

// CreateTable creates and logs a table. Names containing '#' are rejected:
// the character is reserved for the per-partition tables backing
// CreatePartitionedTable.
func (d *DurableDB) CreateTable(name string, cols []string, pkCol int) (*Table, error) {
	if strings.Contains(name, "#") {
		return nil, fmt.Errorf("engine: table name %q: '#' is reserved for partitions", name)
	}
	d.mu.Lock()
	// Check the durable catalog, not just the engine one: a partitioned
	// logical table exists only as name#i tables in the engine, so the
	// engine-level duplicate check would miss it and the plain table
	// would silently overwrite the partitioned metadata.
	if d.tables[name] != nil {
		d.mu.Unlock()
		return nil, ErrDupTable
	}
	meta := &durableMeta{Cols: cols, PKCol: pkCol}
	if err := d.createPhysical(name, meta); err != nil {
		d.mu.Unlock()
		return nil, err
	}
	d.tables[name] = meta
	payload, err := json.Marshal(ddlTable{Cols: cols, PKCol: pkCol})
	if err != nil {
		d.mu.Unlock()
		return nil, err
	}
	tk, err := d.log.Submit(wal.Record{Op: wal.OpCreateTable, Table: name, Payload: payload})
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if _, err := tk.Wait(); err != nil {
		return nil, err
	}
	return meta.phys[0], nil
}

// CreatePartitionedTable creates and logs a hash-partitioned table: parts
// engine tables (each with its own indexes, latches and planner state)
// behind one logical name. Mutations on the logical name route by
// PartitionOf over the primary key and are WAL-logged with their partition
// id; checkpoints flush one block stream per partition and recovery
// rebuilds each partition from its blocklist plus the routed WAL tail.
// Queries scatter-gather through the internal/partition wrapper (see
// partition.OpenDurable), which is also how per-partition handles are
// obtained.
func (d *DurableDB) CreatePartitionedTable(name string, cols []string, pkCol, parts int) error {
	if strings.Contains(name, "#") {
		return fmt.Errorf("engine: table name %q: '#' is reserved for partitions", name)
	}
	if parts < 1 {
		return fmt.Errorf("engine: partitioned table %q needs at least 1 partition, got %d", name, parts)
	}
	d.mu.Lock()
	if d.tables[name] != nil {
		d.mu.Unlock()
		return ErrDupTable
	}
	meta := &durableMeta{Cols: append([]string(nil), cols...), PKCol: pkCol, Partitions: parts}
	if err := d.createPhysical(name, meta); err != nil {
		d.mu.Unlock()
		return err
	}
	d.tables[name] = meta
	payload, err := json.Marshal(ddlTable{Cols: cols, PKCol: pkCol, Parts: parts})
	if err != nil {
		d.mu.Unlock()
		return err
	}
	tk, err := d.log.Submit(wal.Record{Op: wal.OpCreatePartitioned, Table: name, Payload: payload})
	d.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = tk.Wait()
	return err
}

// Partitions reports the partition count of the named logical table: 0 for
// a plain table, >= 1 for one created by CreatePartitionedTable.
func (d *DurableDB) Partitions(name string) (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	meta := d.tables[name]
	if meta == nil {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return meta.Partitions, nil
}

// Table returns the named table. Queries through it are safe; mutations
// through it bypass the WAL and the durable layer's latching — use the
// DurableDB mutation methods instead.
func (d *DurableDB) Table(name string) (*Table, error) { return d.db.Table(name) }

// CreateIndex creates and logs an index per def. On a partitioned table
// the definition is applied to every partition (indexes are uniform across
// partitions, so routing never changes which access paths exist); only
// single-column kinds are supported there, because a partial failure is
// unwound with DropIndex and composites are not droppable.
func (d *DurableDB) CreateIndex(table string, def IndexDef) error {
	d.mu.Lock()
	meta := d.tables[table]
	if meta == nil {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	if meta.Partitions > 0 && (def.Kind == "composite-btree" || def.Kind == "composite-hermit") {
		d.mu.Unlock()
		return fmt.Errorf("engine: %s indexes are not supported on partitioned tables", def.Kind)
	}
	errs := Parallel(meta.phys, 0, func(tb *Table) error { return applyIndexDef(tb, def) })
	for _, err := range errs {
		if err == nil {
			continue
		}
		// Unwind the partitions that were indexed so state stays uniform.
		if kind, kerr := kindFromString(def.Kind); kerr == nil {
			for i, tb := range meta.phys {
				if errs[i] == nil {
					tb.DropIndex(def.Col, kind)
				}
			}
		}
		d.mu.Unlock()
		return err
	}
	meta.Defs = append(meta.Defs, def)
	payload, err := json.Marshal(ddlIndex{Def: def})
	if err != nil {
		d.mu.Unlock()
		return err
	}
	tk, err := d.log.Submit(wal.Record{Op: wal.OpCreateIndex, Table: table, Payload: payload})
	d.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = tk.Wait()
	return err
}

// kindFromString maps an IndexDef kind string to the engine's IndexKind
// vocabulary (single-column kinds only; composites are not droppable).
func kindFromString(s string) (IndexKind, error) {
	switch s {
	case "btree":
		return KindBTree, nil
	case "hermit":
		return KindHermit, nil
	case "cm":
		return KindCM, nil
	default:
		return KindNone, fmt.Errorf("engine: unknown droppable index kind %q", s)
	}
}

// removeDef deletes the first recorded index definition matching (col,
// kind) so post-drop checkpoints no longer rebuild the index.
func (d *DurableDB) removeDef(table string, col int, kind string) {
	meta := d.tables[table]
	if meta == nil {
		return
	}
	for i, def := range meta.Defs {
		if def.Col == col && def.Kind == kind {
			meta.Defs = append(meta.Defs[:i], meta.Defs[i+1:]...)
			return
		}
	}
}

// DropIndex drops and logs the removal of the index of the given kind
// ("btree", "hermit" or "cm") on col: the advisor's durable reclamation
// path. Like all durable DDL it quiesces mutations via the exclusive
// latch, and the drop is WAL-logged so recovery replays it; the index
// also leaves the recorded definitions, so later checkpoints do not
// resurrect it.
func (d *DurableDB) DropIndex(table string, col int, kind string) error {
	d.mu.Lock()
	meta := d.tables[table]
	if meta == nil {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	k, err := kindFromString(kind)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	for _, tb := range meta.phys {
		if err := tb.DropIndex(col, k); err != nil {
			// DDL is uniform across partitions, so a drop that fails on one
			// partition fails on the first — before any partition changed.
			d.mu.Unlock()
			return err
		}
	}
	d.removeDef(table, col, kind)
	payload, err := json.Marshal(ddlDropIndex{Col: col, Kind: kind})
	if err != nil {
		d.mu.Unlock()
		return err
	}
	tk, err := d.log.Submit(wal.Record{Op: wal.OpDropIndex, Table: table, Payload: payload})
	d.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = tk.Wait()
	return err
}

// submit applies one auto-commit mutation and hands its record to the log,
// holding the shared latch (vs the checkpoint swap window and DDL) and the
// primary key's stripe across both, so per-key log order equals apply
// order. On a partitioned table the mutation routes to the key's hash
// partition and the record carries the partition id. The outcome lands in
// res; the returned ticket (the zero Ticket when nothing was logged) is
// what awaitLogged waits on. A failed apply is not logged — validate-then-log,
// the fix for WAL poisoning — and neither is a delete of an absent key
// (nothing to replay).
func (d *DurableDB) submit(op *Op, res *OpResult) wal.Ticket {
	d.mu.RLock()
	defer d.mu.RUnlock()
	meta := d.tables[op.Table]
	if meta == nil {
		res.Err = fmt.Errorf("%w: %q", ErrNoSuchTable, op.Table)
		return wal.Ticket{}
	}
	tb, part, pk := meta.target(op)
	rec := wal.Record{Table: op.Table, Part: part}
	// Submit copies the payload into the log's buffer before it returns, so
	// the record is encoded in this frame (a wider row spills to the heap).
	var scratch [payloadScratch]byte
	stripe := d.rows.mu(pk)
	stripe.Lock()
	defer stripe.Unlock()
	switch op.Kind {
	case OpInsert:
		rec.Op = wal.OpInsert
		if res.rid, res.Err = tb.Insert(op.Row); res.Err == nil {
			rec.Payload = appendFloats(scratch[:0], op.Row...)
		}
	case OpDelete:
		rec.Op = wal.OpDelete
		if res.Found, res.Err = tb.Delete(pk); res.Found {
			rec.Payload = appendFloats(scratch[:0], pk)
		}
	case OpUpdate:
		rec.Op = wal.OpUpdate
		if res.Err = tb.UpdateColumn(pk, op.Col, op.Value); res.Err == nil {
			rec.Payload = appendFloats(scratch[:0], pk, float64(op.Col), op.Value)
		}
	default:
		res.Err = fmt.Errorf("engine: %v is not a mutation", op.Kind)
	}
	if rec.Payload == nil { // nothing applied, nothing to replay
		return wal.Ticket{}
	}
	tk, err := d.log.Submit(rec)
	if err != nil {
		res.Err = fmt.Errorf("engine: wal submit after apply (in-memory state ahead of log until next checkpoint): %w", err)
	}
	return tk
}

// payloadScratch is the record payload submit encodes on its stack: rows of
// up to 16 columns.
const payloadScratch = 128

// awaitLogged blocks until the record behind tk is acknowledged under the
// sync policy and folds a log failure into res.
func awaitLogged(tk wal.Ticket, res *OpResult) {
	if _, err := tk.Wait(); err != nil {
		res.Err = fmt.Errorf("engine: wal append after apply (in-memory state ahead of log until next checkpoint): %w", err)
	}
}

// ApplyEach applies a run of auto-commit mutations (OpInsert, OpDelete,
// OpUpdate) in order. Unlike ExecuteBatch it is not atomic: each op is
// its own mutation with its own WAL record and its own result, exactly as
// if Insert, Delete or UpdateColumn had been called for it, and a failed op
// does not stop the ones after it. What the run shares is the wait: every
// record is submitted before the first is awaited, and that first wait
// writes the run's frames in one write(2) (and, under the fsync policies,
// one fsync and one commit interval) — the waits after it find their record
// acknowledged, or the log poisoned below it, with one atomic load. Tickets
// name their own log, so a checkpoint that rotates the segment mid-run
// changes nothing here.
func (d *DurableDB) ApplyEach(ops []Op) []OpResult {
	results := make([]OpResult, len(ops))
	var stack [applyRunStack]wal.Ticket
	tks := stack[:0]
	for i := range ops {
		tks = append(tks, d.submit(&ops[i], &results[i]))
	}
	for i, tk := range tks {
		awaitLogged(tk, &results[i])
	}
	return results
}

// applyRunStack is the run length whose tickets ApplyEach keeps on its
// stack: the server's write runs are at most this long.
const applyRunStack = 64

// applyOne is the one-op run.
func (d *DurableDB) applyOne(op Op) (res OpResult) {
	awaitLogged(d.submit(&op, &res), &res)
	return res
}

// Insert validates+applies a row insert, then logs it.
func (d *DurableDB) Insert(table string, row []float64) (storage.RID, error) {
	res := d.applyOne(Op{Kind: OpInsert, Table: table, Row: row})
	return res.rid, res.Err
}

// Delete validates+applies a delete by primary key, then logs it. A delete
// of an absent key is applied but not logged (found=false, no record
// needed for replay).
func (d *DurableDB) Delete(table string, pk float64) (bool, error) {
	res := d.applyOne(Op{Kind: OpDelete, Table: table, PK: pk})
	return res.Found, res.Err
}

// UpdateColumn validates+applies a single-column update, then logs it.
func (d *DurableDB) UpdateColumn(table string, pk float64, col int, v float64) error {
	return d.applyOne(Op{Kind: OpUpdate, Table: table, PK: pk, Col: col, Value: v}).Err
}

// Sync forces an fsync covering every mutation acknowledged so far — a
// durability barrier regardless of the configured policy. The latch is
// held across the fsync so a concurrent checkpoint cannot rotate (and
// close) the segment out from under the barrier.
func (d *DurableDB) Sync() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.log.Sync()
}

// fp triggers the failpoint hook (tests only; no-op otherwise).
func (d *DurableDB) fp(step string) error {
	if d.failpoint != nil {
		return d.failpoint(step)
	}
	return nil
}

// flushCut is everything a checkpoint captures during its swap window:
// the state it needs to build and publish a new epoch without the latch.
type flushCut struct {
	flushTS uint64
	tables  map[string]*durableMeta
	phys    []physTable
	lists   map[string][]block.Desc
	tiers   map[string][]*block.Handle
	rotate  bool
	next    uint64
	// walSeg/walStart are the replay coordinates the manifest will record
	// (the current segment at its synced offset, or a fresh segment at 0
	// when rotating).
	walSeg   uint64
	walStart int64
	// walBase is the global LSN the manifest's segment continues from: the
	// current segment's base, or — when rotating — the old segment's last
	// LSN, which the fresh segment numbers onward from.
	walBase uint64
}

type physTable struct {
	name string
	tb   *Table
}

// Checkpoint flushes the delta since the last flush — only versions
// committed after the previous cut — as one sorted block per changed
// physical table, then atomically publishes a new epoch. The protocol,
// with the crash outcome of each window:
//
//  1. Swap window (exclusive latch, short): flush the WAL, capture the
//     cut — the flush snapshot and its timestamp, catalog copy, current
//     blocklists, and the replay offset (the synced WAL size). Crash: old
//     manifest, full old-window replay — nothing lost.
//  2. Unlatched write phase: harvest each table's delta (DeltaVersions)
//     and write it as an immutable block (tmp + fsync + rename).
//     Mutations proceed concurrently; they commit after the cut, so they
//     belong to the next delta and to the WAL tail both manifests replay,
//     and the flush snapshot keeps them from reclaiming a version the cut
//     sees before its row is in the block.
//     Crash: the new blocks are unreferenced garbage, GC'd later.
//  3. Write the next epoch's blocklist file naming old + new blocks.
//     Crash: same.
//  4. Write manifest.tmp and rename it over manifest.json, fsyncing file
//     and directory — the commit point. Before the rename recovery uses
//     the old epoch in full; after it, the blocks plus the tail past the
//     new cut. Replay can never start before its image's cut, so recovery
//     never double-applies.
//  5. Re-latch briefly to publish the new epoch in memory, tell the tables
//     what is flushed now (Table.flushedTo: unflushed bits and delete lists
//     up to the cut), delete stale files and kick the compactor.
//
// When the WAL segment has outgrown DurableOptions.WALRotateBytes the
// checkpoint instead rotates: it holds the latch across the whole flush
// (still only a delta) so no acknowledged record can land in the old
// segment after the cut, and the manifest names a fresh, empty segment.
func (d *DurableDB) Checkpoint() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return d.checkpointLocked()
}

func (d *DurableDB) checkpointLocked() error {
	p := durablePaths{d.dir}

	// --- Swap window: capture the cut under the exclusive latch. ---
	d.mu.Lock()
	latched := true
	unlatch := func() {
		if latched {
			d.mu.Unlock()
			latched = false
		}
	}
	defer unlatch()
	if err := d.fp("begin"); err != nil {
		return err
	}
	if err := d.log.Sync(); err != nil {
		return err
	}
	if err := d.fp("after-wal-sync"); err != nil {
		return err
	}
	// The flush snapshot: registered for as long as the delta is being
	// read, so the commits that run beside the write phase reclaim nothing
	// the cut can see.
	snap := d.db.Snapshot()
	defer snap.Release()
	rb := d.opts.rotateBytes()
	cut := flushCut{
		flushTS:  snap.TS(),
		tables:   copyTables(d.tables),
		lists:    maps.Clone(d.lists),
		tiers:    maps.Clone(d.tiers),
		rotate:   rb > 0 && d.log.Size() >= rb,
		next:     d.epoch + 1,
		walSeg:   d.walSeg,
		walStart: d.log.Size(),
		walBase:  d.walBase,
	}
	if cut.rotate {
		// The latch is held across the whole rotating flush, so the old
		// segment's last LSN is final here — the fresh segment continues
		// the global sequence from it.
		cut.walBase = d.log.LastLSN()
	}
	names := make([]string, 0, len(cut.tables))
	for name := range cut.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, tb := range cut.tables[name].phys {
			cut.phys = append(cut.phys, physTable{tb.name, tb})
		}
	}
	// An incremental (non-rotating) checkpoint releases the latch here:
	// the delta is frozen by the cut timestamps, not by quiescence, so
	// mutations and the block writes proceed in parallel. Rotation keeps
	// the latch — the manifest will abandon the current segment, so
	// nothing may append to it past the cut.
	if !cut.rotate {
		unlatch()
		if err := d.fp("after-swap"); err != nil {
			return err
		}
	}

	// --- Write phase: delta blocks, blocklist, manifest. ---
	newLog, flushed, err := d.writeEpoch(p, &cut)
	if err != nil {
		return err
	}

	// --- Publish: commit point passed, swap the in-memory state. ---
	if !latched {
		d.mu.Lock()
		latched = true
	}
	d.epoch = cut.next
	d.setLists(cut.lists, cut.tiers)
	d.manifestTables = cut.tables
	d.pubWALSeg = cut.walSeg
	d.pubWALStart = cut.walStart
	var oldLog *wal.Log
	var rotatedWatchers []chan struct{}
	if cut.rotate {
		oldLog, d.log = d.log, newLog
		d.walSeg = cut.next
		d.walBase = cut.walBase
		// Re-home registered tailer wakeups onto the successor segment and
		// remember them for a post-swap nudge, so a tailer parked at the old
		// segment's EOF notices the rotation.
		rotatedWatchers = append(rotatedWatchers, d.walWatchers...)
		for _, ch := range rotatedWatchers {
			newLog.Watch(ch)
		}
	}
	for _, pt := range cut.phys {
		pt.tb.flushedTo(cut.flushTS)
	}
	unlatch()
	for _, ch := range rotatedWatchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	d.flushes.Add(1)
	d.flushedBytes.Add(flushed)
	if err := d.fp("after-manifest-rename"); err != nil {
		if oldLog != nil {
			d.mu.Lock()
			d.orphans = append(d.orphans, oldLog) // closed by Close; simulated crash
			d.mu.Unlock()
		}
		return err
	}
	if oldLog != nil {
		if err := oldLog.Close(); err != nil {
			return fmt.Errorf("engine: closing rotated wal: %w", err)
		}
	}
	d.gcStale()
	d.kickCompactor()
	return d.fp("after-gc")
}

// writeBlock streams the entries fill adds, in key order, into a new block
// file at the given level and opens it. The file and its ID exist only once
// fill adds an entry: a fill that adds none yields a nil handle.
func (d *DurableDB) writeBlock(p durablePaths, width int, level uint32, fill func(add func(pk float64, row []float64) error) error) (block.Desc, *block.Handle, error) {
	var w *block.Writer
	var id uint64
	err := fill(func(pk float64, row []float64) error {
		if w == nil {
			id = d.blockSeq.Add(1)
			var err error
			if w, err = block.Create(p.block(id), width); err != nil {
				return err
			}
		}
		return w.Add(pk, row)
	})
	if w == nil || err != nil {
		if w != nil {
			w.Abort()
		}
		return block.Desc{}, nil, err
	}
	desc, err := w.Finish()
	if err != nil {
		return block.Desc{}, nil, err
	}
	desc.ID, desc.Level = id, level
	h, err := openBlock(p, desc)
	return desc, h, err
}

// writeEpoch writes the cut's delta blocks, blocklist and manifest, adding
// the new blocks and their open handles to the cut's lists and tiers, and
// returns the new segment's log (rotation only) and the flushed byte count.
// On error nothing has been published: any files already written are
// unreferenced and will be garbage-collected.
func (d *DurableDB) writeEpoch(p durablePaths, cut *flushCut) (newLog *wal.Log, flushed int64, err error) {
	var fresh []*block.Handle
	defer func() {
		if err == nil {
			return
		}
		if newLog != nil {
			newLog.Close()
		}
		for _, h := range fresh {
			h.Close()
		}
	}()
	for _, pt := range cut.phys {
		// The table's rows go from its store to the file a page at a time.
		desc, h, werr := d.writeBlock(p, pt.tb.Store().Width(), 0, func(add func(float64, []float64) error) error {
			return pt.tb.DeltaVersions(cut.flushTS, add)
		})
		if werr != nil {
			return newLog, 0, werr
		}
		if h == nil {
			continue // unchanged since the last flush: no block
		}
		fresh = append(fresh, h)
		cut.lists[pt.name] = append(slices.Clip(cut.lists[pt.name]), desc)
		cut.tiers[pt.name] = append(slices.Clip(cut.tiers[pt.name]), h)
		flushed += desc.Bytes
		if ferr := d.fp("after-block:" + pt.name); ferr != nil {
			return newLog, 0, ferr
		}
	}
	if cut.rotate {
		wo := d.opts.walOptions()
		wo.BaseLSN = cut.walBase
		var werr error
		newLog, werr = wal.OpenWith(p.wal(cut.next), wo)
		if werr != nil {
			return newLog, 0, werr
		}
		cut.walSeg, cut.walStart = cut.next, 0
		if ferr := d.fp("after-new-wal"); ferr != nil {
			return newLog, 0, ferr
		}
	}
	m := manifest{
		Epoch:    cut.next,
		WALSeg:   cut.walSeg,
		WALStart: cut.walStart,
		WALBase:  cut.walBase,
		Tables:   cut.tables,
	}
	return newLog, flushed, d.publishEpoch(p, "", m, cut.lists)
}

// publishEpoch makes epoch m durable: the blocklist naming lists, then the
// manifest — m, stamped with the layout version and the pointer scheme —
// through manifest.tmp and a rename, the commit point. On error nothing has
// been published. step prefixes the failpoint names ("" for a checkpoint,
// "compact-" for a compaction).
func (d *DurableDB) publishEpoch(p durablePaths, step string, m manifest, lists map[string][]block.Desc) error {
	m.Version, m.Scheme = manifestVersion, int(d.db.Scheme())
	rawList, err := block.EncodeBlocklist(listsFor(lists, m.Tables))
	if err != nil {
		return err
	}
	if err := writeFileSync(p.blocklist(m.Epoch), rawList); err != nil {
		return err
	}
	// Make the block renames, the blocklist and (on rotation) the new
	// segment durable before the manifest can name them: without this
	// ordering, a power loss right after the manifest rename could
	// publish an epoch whose files the directory lost.
	syncDir(d.dir)
	if err := d.fp(step + "after-blocklist"); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := p.manifest() + ".tmp"
	if err := writeFileSync(tmp, raw); err != nil {
		return err
	}
	if err := d.fp(step + "after-manifest-tmp"); err != nil {
		return err
	}
	if err := os.Rename(tmp, p.manifest()); err != nil {
		return err
	}
	syncDir(d.dir)
	return nil
}

// listsFor shapes the per-phys blocklist map for encoding: one List per
// physical table that has blocks, sorted by name for determinism. Only
// tables present in the catalog are included, so a block list cannot
// outlive its table.
func listsFor(lists map[string][]block.Desc, tables map[string]*durableMeta) []block.List {
	known := make(map[string]bool)
	for name, meta := range tables {
		for _, phys := range physicalNames(name, meta) {
			known[phys] = true
		}
	}
	out := make([]block.List, 0, len(lists))
	for phys, descs := range lists {
		if len(descs) > 0 && known[phys] {
			out = append(out, block.List{Table: phys, Blocks: descs})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// setLists publishes new blocklists with their open handles, and closes the
// handles the new epoch no longer names: a cold read that loaded the old
// tier and has a page read in flight finishes it, one that has not yet
// started fails with os.ErrClosed and retries on the new tier (BlockRead).
// Caller holds d.mu.
func (d *DurableDB) setLists(newLists map[string][]block.Desc, newTiers map[string][]*block.Handle) {
	kept := make(map[*block.Handle]bool)
	for _, tier := range newTiers {
		for _, h := range tier {
			kept[h] = true
		}
	}
	for _, tier := range d.tiers {
		for _, h := range tier {
			if !kept[h] {
				h.Close()
			}
		}
	}
	d.lists, d.tiers = newLists, newTiers
}

// Compact runs one compaction round: it merges the first contiguous run
// of CompactFanIn same-level blocks found in any table's blocklist into
// one block at the next level (dropping superseded entries, and
// tombstones when the run starts at the bottom of the list), publishes
// the result as a new epoch — reusing the last published catalog and
// replay coordinates verbatim, so the WAL tail is untouched. It reports
// whether a merge happened. The background compactor calls this in a loop;
// it is also the manual hook for deterministic tests.
func (d *DurableDB) Compact() (bool, error) {
	merged, err := d.compact()
	d.compactErrMu.Lock()
	d.compactErr = err
	d.compactErrMu.Unlock()
	if err != nil {
		d.compactErrs.Add(1)
	}
	return merged, err
}

// compact performs at most one merge.
func (d *DurableDB) compact() (bool, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	p := durablePaths{d.dir}
	d.mu.RLock()
	lists, tiers := maps.Clone(d.lists), maps.Clone(d.tiers)
	next := d.epoch + 1
	tables := d.manifestTables
	walSeg, walStart := d.pubWALSeg, d.pubWALStart
	walBase := d.walBase
	d.mu.RUnlock()

	phys, start, n := pickRun(lists, d.opts.fanIn())
	if n == 0 {
		return false, nil
	}
	if err := d.fp("compact-begin"); err != nil {
		return false, err
	}
	run := lists[phys][start : start+n]
	desc, merged, err := d.mergeBlocks(p, tiers[phys][start:start+n], maxLevel(run)+1, start == 0)
	if err != nil {
		return false, err
	}
	// The run's place in the stack is taken by the merged block, or — every
	// entry a tombstone with nothing beneath it — by nothing.
	var replacement []block.Desc
	var replacementTier []*block.Handle
	if merged != nil {
		replacement, replacementTier = []block.Desc{desc}, []*block.Handle{merged}
	}
	lists[phys] = slices.Replace(slices.Clone(lists[phys]), start, start+n, replacement...)
	tiers[phys] = slices.Replace(slices.Clone(tiers[phys]), start, start+n, replacementTier...)
	if len(lists[phys]) == 0 {
		delete(lists, phys)
		delete(tiers, phys)
	}
	// The manifest republishes the last published catalog and replay
	// coordinates verbatim: compaction changes how the flushed state is
	// stored, never what it is or where the tail begins.
	m := manifest{
		Epoch:    next,
		WALSeg:   walSeg,
		WALStart: walStart,
		WALBase:  walBase,
		Tables:   tables,
	}
	err = d.fp("compact-after-block")
	if err == nil {
		err = d.publishEpoch(p, "compact-", m, lists)
	}
	if err != nil {
		if merged != nil {
			merged.Close()
		}
		return false, err
	}
	d.mu.Lock()
	d.epoch = next
	d.setLists(lists, tiers)
	d.mu.Unlock()
	d.compactions.Add(1)
	d.compactedBytes.Add(desc.Bytes)
	if err := d.fp("compact-after-manifest-rename"); err != nil {
		return true, err
	}
	// As at the end of a checkpoint ("after-gc"), the gc is that of the
	// files the new epoch no longer names.
	d.gcStale()
	return true, d.fp("compact-after-gc")
}

// pickRun finds the first contiguous run of fanIn blocks at one level in
// any table's blocklist (tables scanned in sorted order for determinism).
func pickRun(lists map[string][]block.Desc, fanIn int) (phys string, start, n int) {
	names := make([]string, 0, len(lists))
	for name := range lists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		descs := lists[name]
		i := 0
		for i < len(descs) {
			j := i + 1
			for j < len(descs) && descs[j].Level == descs[i].Level {
				j++
			}
			if j-i >= fanIn {
				return name, i, j - i
			}
			i = j
		}
	}
	return "", 0, 0
}

func maxLevel(run []block.Desc) uint32 {
	var lvl uint32
	for _, d := range run {
		if d.Level > lvl {
			lvl = d.Level
		}
	}
	return lvl
}

// mergeBlocks merges a run, given oldest first, into one block at level:
// later entries win per key. Tombstones are dropped when the run is at the
// bottom of the blocklist (nothing older exists for them to shadow);
// otherwise they are preserved so older blocks stay masked. The run's
// blocks are already sorted, so the merge is block.Merge's walk fed straight
// to the writer — a read-ahead buffer of each input in memory, never a run. A merge that
// leaves no entry writes no block: the handle is nil.
func (d *DurableDB) mergeBlocks(p durablePaths, run []*block.Handle, level uint32, bottom bool) (block.Desc, *block.Handle, error) {
	desc, h, err := d.writeBlock(p, run[0].Width(), level, func(add func(float64, []float64) error) error {
		return block.Merge(run, func(pk float64, row []float64) error {
			if row == nil && bottom {
				return nil
			}
			return add(pk, row)
		})
	})
	if err != nil {
		return block.Desc{}, nil, fmt.Errorf("engine: compacting: %w", err)
	}
	return desc, h, nil
}

// compactor is the background merge goroutine: it sleeps until a
// checkpoint kicks it, then compacts until no run is ready.
func (d *DurableDB) compactor() {
	defer close(d.compactDone)
	for {
		select {
		case <-d.compactStop:
			return
		case <-d.compactKick:
			for {
				select {
				case <-d.compactStop:
					return
				default:
				}
				merged, err := d.Compact()
				if err != nil || !merged {
					break
				}
			}
		}
	}
}

func (d *DurableDB) kickCompactor() {
	select {
	case d.compactKick <- struct{}{}:
	default:
	}
}

// stopCompactor shuts the background compactor down (idempotent) and
// waits for any in-flight round to finish.
func (d *DurableDB) stopCompactor() {
	d.stopOnce.Do(func() { close(d.compactStop) })
	<-d.compactDone
}

// StorageStats summarises the block storage tier and the reclamation of
// dead row versions (see /v1/stats on the serving side).
type StorageStats struct {
	// Epoch is the published manifest epoch; WALSegment the segment
	// currently appended to.
	Epoch      uint64 `json:"epoch"`
	WALSegment uint64 `json:"wal_segment"`
	// Blocks/BlockEntries/BlockBytes describe the live block set;
	// MaxLevel is the deepest compaction tier present.
	Blocks       int    `json:"blocks"`
	BlockEntries uint64 `json:"block_entries"`
	BlockBytes   int64  `json:"block_bytes"`
	MaxLevel     uint32 `json:"max_level"`
	// CompactionBacklog counts the same-level runs currently eligible to
	// merge (0 = fully compacted).
	CompactionBacklog int `json:"compaction_backlog"`
	// Flushes/Compactions count completed operations; FlushedBytes and
	// CompactedBytes the block bytes they wrote. WriteAmplification is
	// (flushed+compacted)/flushed — 1.0 means no rewrite cost yet.
	Flushes            int64   `json:"flushes"`
	Compactions        int64   `json:"compactions"`
	FlushedBytes       int64   `json:"flushed_bytes"`
	CompactedBytes     int64   `json:"compacted_bytes"`
	WriteAmplification float64 `json:"write_amplification"`
	// BlockResidentBytes is the memory the open blocks hold: per block a
	// footer and — once a cold read has probed it — a page index and a
	// bloom filter, never entries. BlockPageReads
	// counts the pages BlockRead has read from block files — one per block
	// whose fence and bloom let a key through.
	BlockResidentBytes int64 `json:"block_resident_bytes"`
	BlockPageReads     int64 `json:"block_page_reads"`
	// CompactErrors counts failed compaction rounds; LastCompactError is
	// the most recent failure, empty once a later round succeeds. A
	// growing CompactionBacklog alongside a non-empty LastCompactError
	// means the compactor is stalled, not idle.
	CompactErrors    int64  `json:"compact_errors"`
	LastCompactError string `json:"last_compact_error,omitempty"`
	// VersionsPending counts, over all tables, the row versions ended and
	// not yet reclaimed: pinned by an open snapshot, or the backlog a
	// released one left for the next commits to work off. It is near zero
	// on a database nobody holds a snapshot on; one that only grows names a
	// leaked snapshot. VersionsReclaimed counts the versions reclaimed since
	// open. UnflushedDeletes counts the deletes the next checkpoint has
	// still to write as tombstones (16 bytes each until then), and
	// VersionsUnflushed the row versions it has still to write — the live rows
	// no block holds, a bit each: together the footprint of the WAL tail.
	// VersionsUnfrozen counts the rows that carry a 24-byte version header — a
	// row needs none once no snapshot predates it, flushed or not, so it too is
	// near zero unless a snapshot is held — and VersionBytes the heap the
	// version tables hold, headers and bits included.
	VersionsPending   int    `json:"versions_pending"`
	VersionsReclaimed uint64 `json:"versions_reclaimed"`
	UnflushedDeletes  int    `json:"unflushed_deletes"`
	VersionsUnflushed int    `json:"versions_unflushed"`
	VersionsUnfrozen  int    `json:"versions_unfrozen"`
	VersionBytes      uint64 `json:"version_bytes"`
}

// StorageStats snapshots the block storage tier's counters.
func (d *DurableDB) StorageStats() StorageStats {
	d.mu.RLock()
	st := StorageStats{
		Epoch:      d.epoch,
		WALSegment: d.walSeg,
	}
	for _, descs := range d.lists {
		st.Blocks += len(descs)
		for _, desc := range descs {
			st.BlockEntries += desc.Count
			st.BlockBytes += desc.Bytes
			if desc.Level > st.MaxLevel {
				st.MaxLevel = desc.Level
			}
		}
	}
	for _, tier := range d.tiers {
		for _, h := range tier {
			st.BlockResidentBytes += h.ResidentBytes()
		}
	}
	st.CompactionBacklog = countBacklog(d.lists, d.opts.fanIn())
	for _, meta := range d.tables {
		for _, tb := range meta.phys {
			vs := tb.VersionStats()
			st.VersionsPending += vs.Pending
			st.VersionsReclaimed += vs.Reclaimed
			st.UnflushedDeletes += vs.UnflushedDeletes
			st.VersionsUnflushed += vs.Unflushed
			st.VersionsUnfrozen += vs.Unfrozen
			st.VersionBytes += vs.Bytes
		}
	}
	d.mu.RUnlock()
	st.BlockPageReads = d.pageReads.Load()
	st.Flushes = d.flushes.Load()
	st.Compactions = d.compactions.Load()
	st.FlushedBytes = d.flushedBytes.Load()
	st.CompactedBytes = d.compactedBytes.Load()
	if st.FlushedBytes > 0 {
		st.WriteAmplification = float64(st.FlushedBytes+st.CompactedBytes) / float64(st.FlushedBytes)
	}
	st.CompactErrors = d.compactErrs.Load()
	d.compactErrMu.Lock()
	if d.compactErr != nil {
		st.LastCompactError = d.compactErr.Error()
	}
	d.compactErrMu.Unlock()
	return st
}

// countBacklog counts merge-eligible same-level runs across all lists.
func countBacklog(lists map[string][]block.Desc, fanIn int) int {
	backlog := 0
	for _, descs := range lists {
		i := 0
		for i < len(descs) {
			j := i + 1
			for j < len(descs) && descs[j].Level == descs[i].Level {
				j++
			}
			if j-i >= fanIn {
				backlog++
			}
			i = j
		}
	}
	return backlog
}

// TableBlockStats describes one physical table's blocklist.
type TableBlockStats struct {
	// Table is the physical table name (partitions appear individually).
	Table string `json:"table"`
	// Blocks/Entries/Bytes/MaxLevel summarise its live blocks.
	Blocks   int    `json:"blocks"`
	Entries  uint64 `json:"entries"`
	Bytes    int64  `json:"bytes"`
	MaxLevel uint32 `json:"max_level"`
}

// TableBlocks reports the blocklist behind each physical table of the
// named logical table (one element per partition for partitioned tables).
func (d *DurableDB) TableBlocks(name string) ([]TableBlockStats, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	meta := d.tables[name]
	if meta == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	out := make([]TableBlockStats, 0, len(physicalNames(name, meta)))
	for _, phys := range physicalNames(name, meta) {
		st := TableBlockStats{Table: phys}
		for _, desc := range d.lists[phys] {
			st.Blocks++
			st.Entries += desc.Count
			st.Bytes += desc.Bytes
			if desc.Level > st.MaxLevel {
				st.MaxLevel = desc.Level
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// BlockRead answers a point read from the block tier alone — the path a
// cold (evicted or larger-than-RAM) table would take. Blocks are probed
// newest to oldest; each block's key fence and bloom filter, both resident
// from the block's first probe on, exclude it before any page is touched, so a read outside a block's key
// range costs nothing, and a block they let through costs one page read.
// probed counts those pages. The answer reflects the last flush cut, not
// the WAL tail: found=false means the key was absent (or deleted) as of the
// last checkpoint.
func (d *DurableDB) BlockRead(table string, pk float64) (row []float64, found bool, probed int, err error) {
	for {
		d.mu.RLock()
		meta := d.tables[table]
		if meta == nil {
			d.mu.RUnlock()
			return nil, false, probed, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
		}
		tb, _ := meta.route(pk)
		epoch := d.epoch
		tier := d.tiers[tb.name]
		d.mu.RUnlock()
		row, found, n, perr := probeBlocks(tier, pk)
		probed += n
		d.pageReads.Add(int64(n))
		if perr == nil || !errors.Is(perr, os.ErrClosed) {
			return row, found, probed, perr
		}
		// The probe raced a compaction: between loading the tier above and
		// the page read, a new epoch was published and setLists closed a
		// merged-away block this tier still names. The freshly published
		// blocklist describes the same flushed state, so retry against it.
		// If the epoch has not moved, the database itself was closed —
		// surface the error.
		d.mu.RLock()
		cur := d.epoch
		d.mu.RUnlock()
		if cur == epoch {
			return nil, false, probed, perr
		}
	}
}

// probeBlocks probes a table's open blocks newest to oldest for pk,
// returning the first entry found. probed counts the blocks a page was read
// from (fence/bloom exclusions are free).
func probeBlocks(tier []*block.Handle, pk float64) (row []float64, found bool, probed int, err error) {
	for i := len(tier) - 1; i >= 0; i-- {
		h := tier[i]
		if !h.MaybeContains(pk) {
			continue
		}
		probed++
		row, ok, gerr := h.Get(pk)
		if gerr != nil {
			return nil, false, probed, gerr
		}
		if !ok {
			continue // bloom false positive
		}
		return row, row != nil, probed, nil // a nil row is a tombstone
	}
	return nil, false, probed, nil
}

// gcStale removes artifacts no longer referenced by the published epoch:
// temp files, WAL segments other than the appended-to one (minus the
// ReplRetainWALSegments newest predecessors kept for replication
// catch-up), blocklists of other epochs, unreferenced block files, and
// rows files from the pre-block layout. Best-effort: failures leave
// garbage that the next pass retries.
func (d *DurableDB) gcStale() {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	d.mu.RLock()
	epoch, walSeg := d.epoch, d.walSeg
	referenced := make(map[uint64]bool)
	for _, descs := range d.lists {
		for _, desc := range descs {
			referenced[desc.ID] = true
		}
	}
	d.mu.RUnlock()
	// Retention keeps the newest K segments older than the current one;
	// anything older still, plus any segment numbered past the current
	// (a crash leftover from an unpublished rotation), is stale.
	retained := make(map[uint64]bool)
	if k := d.opts.ReplRetainWALSegments; k > 0 {
		var old []uint64
		for _, e := range entries {
			name := e.Name()
			if strings.HasPrefix(name, "wal.") && strings.HasSuffix(name, ".log") {
				if seg, ok := parseEpoch(name[len("wal.") : len(name)-len(".log")]); ok && seg < walSeg {
					old = append(old, seg)
				}
			}
		}
		sort.Slice(old, func(i, j int) bool { return old[i] > old[j] })
		if len(old) > k {
			old = old[:k]
		}
		for _, seg := range old {
			retained[seg] = true
		}
	}
	for _, e := range entries {
		name := e.Name()
		stale := false
		switch {
		case strings.HasSuffix(name, ".tmp"):
			stale = true
		case strings.HasPrefix(name, "wal.") && strings.HasSuffix(name, ".log"):
			seg, ok := parseEpoch(name[len("wal.") : len(name)-len(".log")])
			stale = ok && seg != walSeg && !retained[seg]
		case strings.HasPrefix(name, "blocklist."):
			ep, ok := parseEpoch(name[len("blocklist."):])
			stale = ok && ep != epoch
		case strings.HasSuffix(name, ".blk"):
			id, ok := parseBlockID(name)
			stale = ok && !referenced[id]
		case strings.HasPrefix(name, "table_") && strings.HasSuffix(name, ".rows"):
			// Pre-block layout leftovers; a v5 manifest never names them.
			stale = true
		}
		if stale {
			os.Remove(filepath.Join(d.dir, name))
		}
	}
}

func parseEpoch(s string) (uint64, bool) {
	epoch, err := strconv.ParseUint(s, 10, 64)
	return epoch, err == nil
}

// Close stops the compactor, syncs and closes the WAL. The checkpoint
// files stay on disk.
func (d *DurableDB) Close() error {
	d.stopCompactor()
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, o := range d.orphans {
		o.Close()
	}
	d.orphans = nil
	d.closeBlocks()
	return d.log.Close()
}

func encodeFloats(vals []float64) []byte {
	return appendFloats(make([]byte, 0, 8*len(vals)), vals...)
}

// appendFloats appends the little-endian bits of vals to dst.
func appendFloats(dst []byte, vals ...float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func decodeFloats(raw []byte) []float64 {
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out
}

// writeFileSync writes data and fsyncs before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename within it is durable. Best-effort
// (some platforms reject directory fsync).
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}
