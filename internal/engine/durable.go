package engine

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hermit/internal/block"
	"hermit/internal/hermit"
	"hermit/internal/storage"
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
// a new epoch — a manifest naming every live block plus the (WAL segment,
// offset) pair replay resumes from — by renaming manifest.json. A crash
// anywhere leaves either the old manifest (old blocks + old replay window,
// nothing lost) or the new one (new blocks + the tail past the new cut),
// never a double apply. A background
// compactor merges same-level block runs (size-tiered), dropping
// superseded entries and bottom-level tombstones, off the checkpoint
// critical path. (Dead row versions are no business of either: the commit
// that ends a version reclaims it, see mvcc.go.) The WAL
// segment rotates only when it exceeds DurableOptions.WALRotateBytes;
// rotation quiesces mutations for the whole flush (still only a delta)
// so no acknowledged record can land in a segment the manifest no longer
// replays.
//
// OpenDurableOptions recovers by replaying the manifest's block stacks —
// oldest block to newest, later entries winning per key — truncating the
// current WAL segment to its last valid frame, and replaying the tail
// through the one replay path replication uses too (replay.go): a
// transaction applies all-or-nothing at its commit record. Records whose
// replay fails are counted and skipped — surfaced through RecoverySkipped
// — rather than permanently aborting recovery. Indexes,
// including Hermit's TRS-Trees, are rebuilt from their recorded
// definitions, the cheap option the paper's construction numbers (§7.5)
// justify. Manifests of earlier layouts (a separate blocklist file, or one
// rows file per table) are rejected loudly, naming their version.
type DurableDB struct {
	db   *DB
	dir  string
	opts DurableOptions

	// mu is the durable layer's latch: mutations hold it shared (plus a
	// rows stripe); DDL and the checkpoint swap window hold it
	// exclusively. It protects tables (map and Defs slices), the log
	// pointer, and the published storage state (pub and stacks).
	mu      sync.RWMutex
	log     *wal.Log
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

	// pub is the last published manifest: its epoch, the segment appended
	// to (a rotation publishes the fresh one), the replay coordinates and
	// the catalog it recorded. Compaction republishes its catalog and
	// replay start (never the live d.tables), so a manifest rewritten for a
	// block merge cannot shift the replay window past DDL or mutations that
	// only the WAL tail records.
	pub manifest
	// stacks is the published block stack per physical table: the open
	// blocks the current epoch names, oldest first — each one's file
	// descriptor, manifest entry and fence, its page index and bloom once
	// probed, never its entries. A stack is replaced whole, never written
	// in place, so a reader may keep the one it loaded under mu after
	// releasing it; setStacks closes the handles a new epoch drops.
	stacks map[string]block.Stack

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
	// framing; replay (fold) raises it to every id it sees.
	txnSeq atomic.Uint64

	skipped     int
	lastSkipErr error
	uncommitted int // transactions whose commit record never hit the log

	// open is the replay state machine's (fold, replay.go): the frames of
	// every transaction whose commit has not been replayed, by id — after
	// recovery the uncommitted tails, which a follower's ReplApply goes on
	// from. replMu serialises ReplApply; recovery owns d alone.
	replMu sync.Mutex
	open   map[uint64][]wal.Record

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

// durableMeta is what the manifest records of one logical table: its
// schema, its partition count and the definitions recovery rebuilds its
// indexes from. The table itself is the DB's (tables.go).
type durableMeta struct {
	Cols  []string   `json:"cols"`
	PKCol int        `json:"pk"`
	Defs  []IndexDef `json:"defs"`
	// Partitions is the hash-partition count of a partitioned table (0 for
	// a plain table); every WAL record of one carries its partition id.
	Partitions int `json:"parts,omitempty"`
}

// copyTables deep-copies the catalog: each table's metadata, with the slices
// a concurrent DDL could grow while an unlatched flush is marshalling the
// manifest.
func copyTables(src map[string]*durableMeta) map[string]*durableMeta {
	out := make(map[string]*durableMeta, len(src))
	for name, m := range src {
		cp := *m
		cp.Cols = append([]string(nil), m.Cols...)
		cp.Defs = append([]IndexDef(nil), m.Defs...)
		out[name] = &cp
	}
	return out
}

// manifestVersion identifies the on-disk layout. Version 3 added
// hash-partitioned tables; version 4 moved the WAL to frame format v4
// (txn framing). Version 5 replaced the one-rows-file-per-table
// checkpoint image with tiered block storage and recorded the WAL segment
// number separately from the epoch, because incremental checkpoints share
// a segment and only rotation opens a new one. Version 6 moved each
// physical table's block stack from a separate blocklist file into the
// manifest, under one CRC. Other versions are rejected loudly.
const manifestVersion = 6

// manifest is the durably-published checkpoint descriptor. Epoch numbers
// the publication; WALSeg/WALStart are the segment and byte offset replay
// resumes from. With the block stacks the file records beside it (image),
// the triple makes recovery idempotent: the blocks reproduce exactly the
// rows live at the flush cut and the tail replays only records committed
// after it.
type manifest struct {
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

// image is what manifest.json publishes: the manifest and each physical
// table's block stack, oldest first (a table without blocks has no entry).
type image struct {
	manifest
	Blocks map[string][]blockEntry `json:"blocks"`
}

// blockEntry is a block.Desc as the manifest records it. The fences are
// IEEE-754 bit patterns: JSON has no NaN or ±Inf, and the bits keep −0 and
// NaN payloads exact.
type blockEntry struct {
	ID      uint64 `json:"id"`
	Level   uint32 `json:"level"`
	Count   uint64 `json:"count"`
	Bytes   int64  `json:"bytes"`
	MinBits uint64 `json:"min_key_bits"`
	MaxBits uint64 `json:"max_key_bits"`
}

func (e blockEntry) desc() block.Desc {
	return block.Desc{ID: e.ID, Level: e.Level, Count: e.Count, Bytes: e.Bytes,
		MinKey: math.Float64frombits(e.MinBits), MaxKey: math.Float64frombits(e.MaxBits)}
}

// manifestFile is manifest.json: the layout version, then the image and a
// CRC-32 of exactly the image's bytes as the file holds them.
type manifestFile struct {
	Version int             `json:"version"`
	CRC     uint32          `json:"crc32"`
	Image   json.RawMessage `json:"image"`
}

// imageOf is m with the stacks of its physical tables. Only tables in m's
// catalog are named, so a stack cannot outlive its table.
func (d *DurableDB) imageOf(m manifest, stacks map[string]block.Stack) image {
	img := image{manifest: m, Blocks: make(map[string][]blockEntry)}
	for name := range m.Tables {
		for _, tb := range d.db.lookup(name).phys {
			for _, desc := range stacks[tb.name].Descs() {
				img.Blocks[tb.name] = append(img.Blocks[tb.name], blockEntry{desc.ID, desc.Level, desc.Count, desc.Bytes,
					math.Float64bits(desc.MinKey), math.Float64bits(desc.MaxKey)})
			}
		}
	}
	return img
}

// encodeManifest renders img as manifest.json.
func encodeManifest(img image) ([]byte, error) {
	raw, err := json.MarshalIndent(img, "  ", "  ")
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, "{\n  \"version\": %d,\n  \"crc32\": %d,\n  \"image\": %s\n}\n",
		manifestVersion, crc32.ChecksumIEEE(raw), raw), nil
}

// decodeManifest parses manifest.json. A file of another layout version is
// refused naming its version; any other byte that differs from what
// encodeManifest wrote fails the JSON grammar, the version or the CRC.
func decodeManifest(raw []byte) (image, error) {
	var f manifestFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return image{}, fmt.Errorf("engine: corrupt manifest: %w", err)
	}
	if f.Version != manifestVersion {
		return image{}, fmt.Errorf("engine: checkpoint manifest version %d, want %d (older layouts must be migrated or discarded)", f.Version, manifestVersion)
	}
	if crc32.ChecksumIEEE(f.Image) != f.CRC {
		return image{}, fmt.Errorf("engine: corrupt manifest: image checksum mismatch")
	}
	var img image
	if err := json.Unmarshal(f.Image, &img); err != nil {
		return image{}, fmt.Errorf("engine: corrupt manifest: %w", err)
	}
	return img, nil
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

func (f durablePaths) manifest() string { return filepath.Join(f.dir, "manifest.json") }
func (f durablePaths) wal(seg uint64) string {
	return filepath.Join(f.dir, fmt.Sprintf("wal.%08d.log", seg))
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
		db:          db,
		dir:         dir,
		opts:        opts,
		tables:      make(map[string]*durableMeta),
		stacks:      make(map[string]block.Stack),
		open:        make(map[uint64][]wal.Record),
		compactKick: make(chan struct{}, 1),
		compactStop: make(chan struct{}),
		compactDone: make(chan struct{}),
	}
	opened := false
	defer func() {
		if !opened {
			d.closeBlocks()
		}
	}()
	// Phase 1: the checkpoint image — block stack replay per table.
	if raw, err := os.ReadFile(p.manifest()); err == nil {
		img, err := decodeManifest(raw)
		if err != nil {
			return nil, err
		}
		m := img.manifest
		if m.Scheme != int(scheme) {
			return nil, fmt.Errorf("engine: checkpoint scheme %d != requested %d", m.Scheme, scheme)
		}
		d.pub = m
		d.walBase = m.WALBase
		for _, phys := range slices.Sorted(maps.Keys(img.Blocks)) {
			for _, e := range img.Blocks[phys] {
				h, err := block.Open(p.block(e.ID), e.desc())
				if err != nil {
					return nil, fmt.Errorf("engine: restoring %q: %w", phys, err)
				}
				d.stacks[phys] = append(d.stacks[phys], h)
			}
		}
		for _, name := range slices.Sorted(maps.Keys(m.Tables)) {
			if err := d.restoreTable(name, m.Tables[name]); err != nil {
				return nil, err
			}
		}
		d.pub.Tables = copyTables(d.tables)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	// Seed the block ID allocator past every block file in the directory —
	// the manifest's, and crash leftovers that may hold IDs above anything
	// it references — so a new block can never collide with a stray file.
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if id, ok := parseBlockID(e.Name()); ok && id > d.blockSeq.Load() {
				d.blockSeq.Store(id)
			}
		}
	}
	// Everything restored from blocks is flushed; everything the WAL tail
	// replays (below) commits after it and lands in the next delta.
	for _, l := range *d.db.tables.Load() {
		for _, tb := range l.phys {
			tb.flushedTo(d.db.clock.Now())
		}
	}
	// Phase 2: replay the WAL tail.
	walPath := p.wal(d.pub.WALSeg)
	if err := d.replayTail(walPath); err != nil {
		return nil, err
	}
	// Phase 3: open the log for appending — wal.OpenWith truncates any
	// crash-torn tail, which is what keeps post-recovery appends reachable
	// — clear stale-epoch leftovers, and start the compactor.
	log, err := d.openWAL(d.pub.WALSeg, d.walBase)
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

// openWAL opens WAL segment seg for appending under the configured sync
// policy, its LSNs continuing from base.
func (d *DurableDB) openWAL(seg, base uint64) (*wal.Log, error) {
	wo := wal.Options{Policy: d.opts.Policy, GroupInterval: d.opts.GroupInterval, BaseLSN: base}
	return wal.OpenWith(durablePaths{d.dir}.wal(seg), wo)
}

// closeBlocks closes every open block handle; a cold read after it fails
// with os.ErrClosed. Caller holds d.mu, or owns d alone.
func (d *DurableDB) closeBlocks() {
	for _, stack := range d.stacks {
		for _, h := range stack {
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

// ExecuteBatch runs a batch of operations with the same atomicity contract
// as DB.ExecuteBatch, durably: a batch containing mutations executes as
// one logged Txn (queries read the batch-start snapshot; mutations apply
// and are WAL-logged all-or-nothing under one transaction id), while a
// read-only batch drains across a pool of workers goroutines sharing one
// snapshot. Every query is the database's read (DB.Exec).
func (d *DurableDB) ExecuteBatch(ops []Op, workers int) []OpResult {
	return d.Begin().execBatch(ops, workers)
}

// Exec is the database's read of the named table (DB.Exec).
func (d *DurableDB) Exec(table string, q Query, workers int, dst []float64) ([]float64, GatherStats, error) {
	return d.db.Exec(table, q, workers, dst)
}

// Lookup is Exec keeping the rows' partitioned RIDs (DB.Lookup).
func (d *DurableDB) Lookup(table string, q Query, workers int, dst []PartRID) ([]PartRID, GatherStats, error) {
	return d.db.Lookup(table, q, workers, dst)
}

// Clock returns the commit clock ordering every table in this database.
func (d *DurableDB) Clock() *Clock { return d.db.Clock() }

// GC reclaims whatever backlog of ended versions a released snapshot left
// behind, down to the oldest live snapshot (see DB.GC). It does not wait for
// a flush: a reclaimed delete reaches the next delta block through its
// table's delete list.
func (d *DurableDB) GC() int { return d.db.GC() }

// restoreTable rebuilds one logical table from its block stacks, its
// partitions side by side (Parallel): a partition's rows, RIDs and
// indexes are a function of its own blocks alone.
func (d *DurableDB) restoreTable(name string, meta *durableMeta) error {
	l, err := d.db.create(name, meta.Cols, meta.PKCol, meta.Partitions)
	if err != nil {
		return err
	}
	for _, err := range Parallel(l.phys, 0, func(tb *Table) error { return d.restorePartition(meta, tb) }) {
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
	stack := d.stacks[phys]
	for _, h := range stack {
		if h.Width() != len(meta.Cols) {
			return fmt.Errorf("engine: restoring %q: block %016x width %d != schema %d",
				phys, h.Desc().ID, h.Width(), len(meta.Cols))
		}
	}
	err := block.Merge(stack, func(_ float64, row []float64) error {
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

// ddl runs one DDL statement the way replay does — its record applied
// through applyRecord, the replay applier — and logs that record, under the
// exclusive latch: what recovery and followers replay is what ran.
func (d *DurableDB) ddl(op wal.Op, table string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	rec := wal.Record{Op: op, Table: table, Payload: payload}
	d.mu.Lock()
	if err := d.applyRecord(rec); err != nil {
		d.mu.Unlock()
		return err
	}
	tk, err := d.log.Submit(rec)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = tk.Wait()
	return err
}

// CreateTable creates and logs a plain table (see DB.CreateTable).
func (d *DurableDB) CreateTable(name string, cols []string, pkCol int) (*Table, error) {
	if err := d.ddl(wal.OpCreateTable, name, ddlTable{Cols: cols, PKCol: pkCol}); err != nil {
		return nil, err
	}
	return d.db.Table(name)
}

// CreatePartitionedTable creates and logs a hash-partitioned table (see
// DB.CreatePartitionedTable). Mutations on it are WAL-logged with their
// partition id; checkpoints flush one block stream per partition and
// recovery rebuilds each partition from its block stack plus the routed
// WAL tail.
func (d *DurableDB) CreatePartitionedTable(name string, cols []string, pkCol, parts int) error {
	return d.ddl(wal.OpCreatePartitioned, name, ddlTable{Cols: cols, PKCol: pkCol, Parts: parts})
}

// Partitions reports the partition count of the named table (see
// DB.Partitions).
func (d *DurableDB) Partitions(name string) (int, error) { return d.db.Partitions(name) }

// Table returns the engine table a name denotes (see DB.Table). Queries
// through it are safe; mutations through it bypass the WAL and the durable
// layer's latching — use the DurableDB mutation methods instead.
func (d *DurableDB) Table(name string) (*Table, error) { return d.db.Table(name) }

// CreateIndex creates and logs an index per def (see DB.CreateIndex): a
// definition that fails to build is not logged.
func (d *DurableDB) CreateIndex(table string, def IndexDef) error {
	return d.ddl(wal.OpCreateIndex, table, ddlIndex{Def: def})
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
	return d.ddl(wal.OpDropIndex, table, ddlDropIndex{Col: col, Kind: kind})
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
	tb, part, pk, err := d.db.target(op)
	if err != nil {
		res.Err = err
		return wal.Ticket{}
	}
	stripe := d.rows.mu(pk)
	stripe.Lock()
	defer stripe.Unlock()
	if res.rid, res.Found, res.Err = mutate(tb, op); res.Err != nil || op.Kind == OpDelete && !res.Found {
		return wal.Ticket{} // nothing applied, nothing to replay
	}
	// Submit copies the payload into the log's buffer before it returns, so
	// the record is encoded in this frame (a wider row spills to the heap).
	var scratch [payloadScratch]byte
	rec := wal.Record{Table: op.Table, Part: part}
	rec.Op, rec.Payload = encodeOp(scratch[:0], op)
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
// puts the run's frames in the log in one copy (and, under the fsync
// policies, one fsync and one commit interval) — the waits after it find their record
// acknowledged, or the log poisoned below it, with one atomic load. Tickets
// name their own log, so a checkpoint that rotates the segment mid-run
// changes nothing here. Op i's outcome overwrites results[i], which must
// exist: a caller that runs one run after another reuses one slice.
func (d *DurableDB) ApplyEach(ops []Op, results []OpResult) {
	results = results[:len(ops)]
	var stack [applyRunStack]wal.Ticket
	tks := stack[:0]
	for i := range ops {
		results[i] = OpResult{}
		tks = append(tks, d.submit(&ops[i], &results[i]))
	}
	for i, tk := range tks {
		awaitLogged(tk, &results[i])
	}
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
