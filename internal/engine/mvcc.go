package engine

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"hermit/internal/block"
	"hermit/internal/btree"
	"hermit/internal/hermit"
	"hermit/internal/storage"
)

// This file is the multi-version concurrency-control substrate. Every
// logical row is a chain of immutable versions, newest first, each stamped
// with the half-open commit-timestamp interval [beginTS, endTS) during
// which it is the row's visible incarnation (endTS == 0 means "still
// live"). Versions live in the ordinary row store — one storage RID per
// version — and every secondary index keeps one entry per version, so
// index code is untouched by MVCC: indexes return candidate RIDs and
// visibility is decided at row resolution against a Snapshot (see
// query.go). The primary index is the exception and the anchor: it keeps
// one entry per key, the RID of the key's newest version — the head of its
// chain — and is the only key→head structure the table has. Older
// versions are reached from the head through the headers' prev links.
//
// The commit protocol (shared by the auto-commit paths in engine.go and
// Txn.Commit in txn.go):
//
//  1. Acquire the primary-key stripes of every written key (sorted, so
//     multi-key committers never deadlock). Chain heads are stable while a
//     key's stripe is held — every committer of that key holds it.
//  2. Validate against the chain heads (duplicate keys, write-write
//     conflicts) and apply the heavy work: append version rows to the
//     store, insert secondary-index entries. Unstamped versions are
//     invisible to every reader, so this phase runs outside the commit
//     lock. The primary index is not touched here.
//  3. Under the clock's commit lock: stamp all the transaction's versions
//     with commitTS = clock+1 (ending the superseded versions at the same
//     instant) and, in the same latch hold, swap each key's primary entry
//     to its new head; then publish the clock. Readers snapshot the clock
//     without taking the lock, so a commit becomes visible atomically — a
//     snapshot sees all of a transaction's writes or none of them.
//
// Publication rule: the primary entry of a key always names a stamped
// version. The swap and the stamp happen under primaryMu and verMu held
// together (stampInsert, stampUpdate), so a reader that finds a head
// through the primary can always walk from it to the version its snapshot
// sees. Were the entry moved earlier — when the version row is applied —
// a reader would reach a head whose header is still zero, read the zero
// header as the end of the chain, and lose the older version behind it.
//
// Version garbage collection (GCVersions) reclaims versions whose endTS is
// at or below the oldest timestamp any live snapshot could read, removing
// their index entries and freeing their store rows. The durable layer
// runs it during block compaction — off the checkpoint critical path — and
// caps the horizon at its last flush cut so GC can never erase a change
// (in particular a whole-chain delete) that no block has recorded yet; it
// is also exported via DB.GC.
//
// Reuse rule: a freed row slot, and the header slot that goes with it, is
// taken by the next insert, so a RID names a version only until GC
// reclaims it. Nothing the table keeps may name a reclaimed slot: before a
// version's row is freed GC removes its index entries, drops the primary
// entry if the version is its chain's head, and otherwise cuts the prev
// link that leads to it (sever), so a chain walk never steps from one key's
// versions into the slot's next tenant. A reader keeps its RIDs good by
// holding its snapshot: no version visible at a registered snapshot is
// reclaimed. A reused slot's header is zero until its new version commits,
// and that commit is later than every snapshot that could have met the
// slot's RID under its old tenant, so to them it stays invisible.

// Clock is the global commit clock a database (or a set of partitioned
// databases) orders its transactions with. It also registers live
// snapshots so version GC never reclaims a version a reader could still
// resolve.
type Clock struct {
	ts atomic.Uint64 // last published commit timestamp

	// commitMu serialises the stamp-and-publish step of every commit.
	commitMu sync.Mutex

	// regMu guards the live-snapshot registry and the free-list.
	regMu  sync.Mutex
	active map[uint64]int // snapshot ts -> open snapshot count
	// free recycles Snapshot objects returned through Recycle, so the
	// register/deregister cycle of every auto-commit read stops feeding
	// the allocator. Objects only enter via Recycle (whose contract
	// forbids further use), so a pooled object can never receive a stale
	// Release from a previous holder.
	free []*Snapshot
}

// maxSnapshotFree bounds the per-clock snapshot free-list; beyond it
// released snapshots are left to the garbage collector.
const maxSnapshotFree = 64

// NewClock creates a commit clock starting at timestamp 0.
func NewClock() *Clock {
	return &Clock{active: make(map[uint64]int)}
}

// Now returns the last published commit timestamp: the timestamp a new
// snapshot would read at.
func (c *Clock) Now() uint64 { return c.ts.Load() }

// Snapshot registers and returns a read snapshot at the current commit
// timestamp. The caller must Release (or Recycle) it, or version GC will
// treat it as live forever. The returned object may come from the clock's
// free-list — a recycled registration slot rather than a fresh allocation.
func (c *Clock) Snapshot() *Snapshot {
	c.regMu.Lock()
	ts := c.ts.Load()
	c.active[ts]++
	var s *Snapshot
	if n := len(c.free); n > 0 {
		s, c.free[n-1] = c.free[n-1], nil
		c.free = c.free[:n-1]
	}
	c.regMu.Unlock()
	if s == nil {
		return &Snapshot{clock: c, ts: ts}
	}
	s.ts = ts
	s.released.Store(false)
	return s
}

// release drops one registration of ts.
func (c *Clock) release(ts uint64) {
	c.regMu.Lock()
	if n := c.active[ts]; n <= 1 {
		delete(c.active, ts)
	} else {
		c.active[ts] = n - 1
	}
	c.regMu.Unlock()
}

// OldestActive returns the oldest timestamp any live snapshot reads at, or
// the current clock when no snapshot is open: the horizon below which
// version GC may reclaim.
func (c *Clock) OldestActive() uint64 {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	oldest := c.ts.Load()
	for ts := range c.active {
		if ts < oldest {
			oldest = ts
		}
	}
	return oldest
}

// Snapshot is a consistent read view: it resolves exactly the row versions
// committed at or before its timestamp, unaffected by later commits. A
// snapshot either observes all of a committed transaction's writes or none
// of them. Obtain one with DB.Snapshot (or Clock.Snapshot) and Release it
// when done.
type Snapshot struct {
	clock    *Clock
	ts       uint64
	released atomic.Bool
}

// TS returns the snapshot's commit timestamp.
func (s *Snapshot) TS() uint64 { return s.ts }

// Release unregisters the snapshot, allowing version GC to reclaim
// versions only it could see. Releasing twice is a no-op.
func (s *Snapshot) Release() {
	if s != nil && !s.released.Swap(true) {
		s.clock.release(s.ts)
	}
}

// Recycle is Release plus free-list return: the Snapshot object goes back
// to its clock for reuse by a later Snapshot call. Unlike Release it is
// NOT idempotent-safe — the caller must drop every reference and must not
// touch the snapshot (including calling Release) afterwards, because the
// object may already be serving another reader. The engine's auto-snapshot
// query paths use it; prefer Release when the snapshot's lifetime is not
// strictly scoped.
func (s *Snapshot) Recycle() {
	if s == nil || s.released.Swap(true) {
		return
	}
	c := s.clock
	c.regMu.Lock()
	if n := c.active[s.ts]; n <= 1 {
		delete(c.active, s.ts)
	} else {
		c.active[s.ts] = n - 1
	}
	if len(c.free) < maxSnapshotFree {
		c.free = append(c.free, s)
	}
	c.regMu.Unlock()
}

// verHeader is the visibility record of one version row: the half-open
// commit-timestamp interval [beginTS, endTS) during which the row is its
// key's visible incarnation, and the RID of the version it superseded.
// The zero header means "unstamped" — a row applied and not yet committed,
// or a slot GC reclaimed and no commit has refilled — and is invisible at
// every timestamp (the clock's first commit is 1). Headers are pointer-free,
// written at commit under both the clock's commit lock and the table's
// verMu; GC rewrites prev (sever) and zeroes the header under verMu.
type verHeader struct {
	beginTS uint64
	endTS   uint64      // 0 while this is the live version
	prev    storage.RID // superseded version; noRID when there is none
}

// noRID is the prev of a chain's oldest version — the oldest ever, or the
// oldest GC has left: a RID beyond any block the store can hold, so its
// header reads as zero and ends a chain walk.
const noRID = ^storage.RID(0)

// verChunk holds the headers of one storage block, indexed by slot.
type verChunk [storage.BlockRows]verHeader

// visibleAt reports whether the version is the visible incarnation at ts.
func (h verHeader) visibleAt(ts uint64) bool {
	return h.beginTS != 0 && h.beginTS <= ts && (h.endTS == 0 || ts < h.endTS)
}

// live reports whether the version is stamped and not yet ended.
func (h verHeader) live() bool { return h.beginTS != 0 && h.endTS == 0 }

// header returns rid's version header; t.verMu is held. A RID the table
// never stamped — out of range, or applied but not yet committed — reads
// as the zero header.
func (t *Table) header(rid storage.RID) verHeader {
	if b, s := rid.Block(), rid.Slot(); b < uint64(len(t.vers)) && t.vers[b] != nil && s < storage.BlockRows {
		return t.vers[b][s]
	}
	return verHeader{}
}

// stamp writes rid's header, allocating its block's chunk on first use;
// t.verMu is held exclusively.
func (t *Table) stamp(rid storage.RID, h verHeader) {
	b := rid.Block()
	for uint64(len(t.vers)) <= b {
		t.vers = append(t.vers, nil)
	}
	if t.vers[b] == nil {
		t.vers[b] = new(verChunk)
	}
	t.vers[b][rid.Slot()] = h
}

// Snapshot registers a read snapshot on the database's commit clock.
func (db *DB) Snapshot() *Snapshot { return db.clock.Snapshot() }

// Snapshot registers a read snapshot on the table's commit clock — the
// handle the *At query variants read through. Release it when done.
func (t *Table) Snapshot() *Snapshot { return t.clock.Snapshot() }

// Clock returns the database's commit clock (shared across partitions of a
// partitioned table so cross-partition snapshots are consistent).
func (db *DB) Clock() *Clock { return db.clock }

// GC runs one version-garbage-collection pass over every table: versions
// no snapshot can resolve any more — endTS at or below the oldest live
// snapshot — lose their index entries and store rows. It returns the
// number of versions reclaimed.
func (db *DB) GC() int { return db.GCBelow(^uint64(0)) }

// GCBelow is GC with an additional horizon cap: versions are reclaimed
// only below min(oldest live snapshot, limit). The durable layer uses the
// cap to keep every change committed after its last flush cut alive until
// a delta block has recorded it, without registering a snapshot that
// would pin Clock.OldestActive for everyone else.
func (db *DB) GCBelow(limit uint64) int {
	horizon := db.clock.OldestActive()
	if limit < horizon {
		horizon = limit
	}
	db.mu.RLock()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.mu.RUnlock()
	n := 0
	for _, t := range tables {
		n += t.GCVersions(horizon)
	}
	return n
}

// head returns pk's newest version (live or not) and its header; the zero
// header when the key has never existed (or was fully reclaimed). The
// result stays the head for as long as the caller holds pk's stripe.
func (t *Table) head(pk float64) (storage.RID, verHeader) {
	t.primaryMu.RLock()
	id, ok := t.primary.Get(pk)
	t.handOver()
	var h verHeader
	if ok {
		h = t.header(storage.RID(id))
	}
	t.verMu.RUnlock()
	return storage.RID(id), h
}

// handOver trades the primary latch for the version latch, both shared,
// taking the second before it lets go of the first. A reader that carries
// chain heads from the primary index to the version table must not leave a
// gap between the two holds: GC could drop a dead chain's entry, free its
// head's slot and a commit stamp another key's version into it, and the
// walk that set out from the stale head would continue down that key's
// chain. GC changes both structures under both latches held exclusively,
// so with the holds overlapping every head read is still its key's when
// its header is.
func (t *Table) handOver() {
	t.verMu.RLock()
	t.primaryMu.RUnlock()
}

// resolveVisible walks pk's chain to the version visible at ts; false
// when the key has no visible incarnation. A commit between the caller's
// snapshot and this walk only adds newer heads in front of the version the
// walk is after.
func (t *Table) resolveVisible(pk float64, ts uint64) (storage.RID, bool) {
	t.primaryMu.RLock()
	head, ok := t.primary.Get(pk)
	t.handOver()
	defer t.verMu.RUnlock()
	if !ok {
		return 0, false
	}
	return t.visibleFrom(storage.RID(head), ts)
}

// resolveKeys is resolveVisible for a harvest of logical identifiers (what
// a secondary index stores under logical pointers, hermit.LogicalID): the
// primary-index hop of the paper's §5.1 cost model, batched. ids is sorted
// and deduplicated in place — identifiers sort in key order — so the heads
// are fetched front to back under one primaryMu hold, a run of keys that
// share a leaf costing one descent, and resolved under one verMu hold (see
// handOver). The visible versions are appended to dst[:0]; the second result
// is the number of distinct keys.
func (t *Table) resolveKeys(ids []uint64, ts uint64, dst []storage.RID) ([]storage.RID, int) {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	dst = dst[:0]
	var f btree.Finger
	t.primaryMu.RLock()
	for _, id := range ids {
		if head, ok := t.primary.GetAscending(&f, hermit.LogicalKey(id)); ok {
			dst = append(dst, storage.RID(head))
		}
	}
	t.handOver()
	dst = t.visibleFromAll(dst, ts)
	t.verMu.RUnlock()
	return dst, len(ids)
}

// visibleFromAll replaces each chain head in heads by the version of its
// chain visible at ts, dropping the chains that have none; it filters in
// place. t.verMu is held, taken over from the primaryMu hold the heads were
// read under (handOver).
func (t *Table) visibleFromAll(heads []storage.RID, ts uint64) []storage.RID {
	out := heads[:0]
	for _, head := range heads {
		if rid, ok := t.visibleFrom(head, ts); ok {
			out = append(out, rid)
		}
	}
	return out
}

// visibleFrom walks a chain from rid towards older versions to the one
// visible at ts; t.verMu is held. A zero header (noRID's) ends the chain.
func (t *Table) visibleFrom(rid storage.RID, ts uint64) (storage.RID, bool) {
	for {
		h := t.header(rid)
		if h.visibleAt(ts) {
			return rid, true
		}
		if h.beginTS == 0 {
			return 0, false
		}
		rid = h.prev
	}
}

// versionVisible reports whether the version row rid is visible at ts.
func (t *Table) versionVisible(rid storage.RID, ts uint64) bool {
	t.verMu.RLock()
	defer t.verMu.RUnlock()
	return t.header(rid).visibleAt(ts)
}

// stampInsert publishes rid as pk's new chain head at commitTS, linked to
// the (dead) head it replaces, if any. Called with the key's stripe held
// and the clock's commit lock held. The primary entry and the header
// change under both latches (see the publication rule above).
func (t *Table) stampInsert(rid storage.RID, pk float64, commitTS uint64) {
	t.primaryMu.Lock()
	prev := noRID
	if old, ok := t.primary.Swap(pk, uint64(rid)); ok {
		prev = storage.RID(old)
	}
	t.verMu.Lock()
	t.stamp(rid, verHeader{beginTS: commitTS, prev: prev})
	t.liveRows++
	t.verMu.Unlock()
	t.primaryMu.Unlock()
}

// stampUpdate ends pk's live head and publishes its replacement rid at
// commitTS.
func (t *Table) stampUpdate(pk float64, rid storage.RID, commitTS uint64) {
	t.primaryMu.Lock()
	id, _ := t.primary.Swap(pk, uint64(rid))
	old := storage.RID(id)
	t.verMu.Lock()
	t.end(old, commitTS)
	t.stamp(rid, verHeader{beginTS: commitTS, prev: old})
	t.verMu.Unlock()
	t.primaryMu.Unlock()
}

// stampDelete ends the head old at commitTS without a successor.
func (t *Table) stampDelete(old storage.RID, commitTS uint64) {
	t.verMu.Lock()
	t.end(old, commitTS)
	t.liveRows--
	t.verMu.Unlock()
}

// end closes old's visibility interval at commitTS and queues it for GC;
// t.verMu is held exclusively. Commit timestamps only grow, so the queue
// stays sorted by endTS.
func (t *Table) end(old storage.RID, commitTS uint64) {
	t.vers[old.Block()][old.Slot()].endTS = commitTS
	t.ended = append(t.ended, old)
}

// versionBytes estimates the heap the version table holds: the header
// chunks (one per store block, reused with the block's slots) and the GC
// queue's array, which GC compacts in place and so keeps at the size of
// the longest backlog it has seen. (The key→head mapping is the primary
// index, accounted as PrimaryBytes.)
func (t *Table) versionBytes() uint64 {
	t.verMu.RLock()
	defer t.verMu.RUnlock()
	b := uint64(cap(t.vers)+cap(t.ended)) * 8
	for _, c := range t.vers {
		if c != nil {
			b += uint64(unsafe.Sizeof(*c))
		}
	}
	return b
}

// Len returns the number of live rows (at the latest commit timestamp).
func (t *Table) Len() int {
	t.verMu.RLock()
	n := t.liveRows
	t.verMu.RUnlock()
	return n
}

// ScanLive calls fn for every row live at the latest commit timestamp, in
// primary-key order. The row slice is reused between calls; fn must not
// retain it. Scanning stops early if fn returns false. It is the
// MVCC-aware replacement for scanning the row store directly (which also
// holds superseded and deleted versions awaiting GC).
func (t *Table) ScanLive(fn func(rid storage.RID, row []float64) bool) {
	// The snapshot keeps the harvested versions from being reclaimed, and
	// their slots refilled, before their rows are fetched.
	snap := t.clock.Snapshot()
	defer snap.Recycle()
	ts := snap.ts
	t.primaryMu.RLock()
	t.verMu.RLock()
	rids := make([]storage.RID, 0, t.liveRows)
	t.primary.Each(func(_ float64, head uint64) bool {
		// Walk to the version visible at ts: a commit racing between the
		// clock read above and this walk may already have stamped a newer
		// head, in which case its predecessor is the one live at ts.
		if rid, ok := t.visibleFrom(storage.RID(head), ts); ok {
			rids = append(rids, rid)
		}
		return true
	})
	t.verMu.RUnlock()
	t.primaryMu.RUnlock()
	var buf []float64
	for _, rid := range rids {
		row, err := t.store.Get(rid, buf)
		if err != nil {
			continue // unreachable with the snapshot pinned; defensive
		}
		buf = row
		if !fn(rid, row) {
			return
		}
	}
}

// DeltaVersions harvests the changes committed in the half-open window
// (prevTS, ts] and hands them to emit in key order: for every key whose
// visible-at-ts incarnation began after prevTS the full row, and for every
// key whose chain died in the window a nil row — a tombstone. Replaying the
// entries on top of the state at prevTS reproduces exactly the live rows at
// ts. The order is the one a block.Writer requires: the primary index's
// leaves are walked in that order (keyorder), so nothing is sorted here.
// The row is emit's only for the call; emit's first error ends the harvest
// and is returned.
//
// The caller must pin a snapshot at or below prevTS for the duration (the
// durable layer's flush snapshot), so no version visible at ts can be
// reclaimed between the chain walk and the row fetch.
func (t *Table) DeltaVersions(prevTS, ts uint64, emit func(pk float64, row []float64) error) error {
	type cand struct {
		rid  storage.RID
		pk   float64
		tomb bool
	}
	cands := make([]cand, 0, 64)
	t.primaryMu.RLock()
	t.verMu.RLock()
	t.primary.Each(func(pk float64, head uint64) bool {
		// Walk to the newest version begun at or before ts: the key's
		// incarnation as of the flush cut (a commit racing past ts may
		// already have stamped newer heads).
		rid := storage.RID(head)
		h := t.header(rid)
		for h.beginTS > ts {
			rid = h.prev
			h = t.header(rid)
		}
		if h.beginTS == 0 {
			return true
		}
		// The entry carries the key as first inserted; blocks identify
		// keys by their normalised bits (-0 is +0).
		pk = math.Float64frombits(block.KeyBits(pk))
		if h.endTS == 0 || ts < h.endTS {
			if h.beginTS > prevTS {
				cands = append(cands, cand{rid: rid, pk: pk})
			}
		} else if h.endTS > prevTS {
			// Dead at ts, and the death is inside the window: the key was
			// deleted since the last flush.
			cands = append(cands, cand{pk: pk, tomb: true})
		}
		return true
	})
	t.verMu.RUnlock()
	t.primaryMu.RUnlock()
	var row []float64
	for _, c := range cands {
		if c.tomb {
			if err := emit(c.pk, nil); err != nil {
				return err
			}
			continue
		}
		var err error
		if row, err = t.store.Get(c.rid, row); err != nil {
			continue // unreachable with the flush snapshot pinned; defensive
		}
		if err := emit(c.pk, row); err != nil {
			return err
		}
	}
	return nil
}

// GCVersions reclaims every version whose endTS is at or below horizon:
// its secondary-index entries are removed, its header zeroed and its store
// row freed — slot and header slot go to the next insert. A fully dead
// chain (deleted key old enough to reclaim) also gives up its primary-index
// entry. It returns the number of versions reclaimed. The pass drains the
// queue of ended versions, so it costs O(versions reclaimed), not O(table).
// Safe to run concurrently with readers and writers: each version is
// reclaimed under its key's stripe, and only versions invisible to every
// snapshot at or after horizon are touched.
func (t *Table) GCVersions(horizon uint64) int {
	t.catalog.RLock()
	defer t.catalog.RUnlock()

	t.verMu.Lock()
	n := 0
	for n < len(t.ended) && t.header(t.ended[n]).endTS <= horizon {
		n++
	}
	if n == 0 {
		t.verMu.Unlock()
		return 0
	}
	// The queue keeps its array (appends refill the front that the copy
	// vacates), so the batch is copied out of it.
	dead := slices.Clone(t.ended[:n])
	t.ended = t.ended[:copy(t.ended, t.ended[n:])]
	t.verMu.Unlock()

	// Newest first: a chain's versions end in order, so the first of a
	// chain's versions met here is the newest the pass reclaims. Cutting the
	// link to it takes every older one off the chain with it, and their
	// turns find nothing left to cut after a walk over the versions that
	// stay — in queue order each would walk the whole backlog of its chain.
	var row []float64
	for i := n - 1; i >= 0; i-- {
		rid := dead[i]
		var err error
		if row, err = t.store.Get(rid, row); err != nil {
			continue // unreachable: only this pass frees version rows
		}
		pk := row[t.pkCol]
		// Writers of this key hold its stripe from reading the head to
		// stamping over it, so they never see the head entry vanish.
		stripe := t.rows.mu(pk)
		stripe.Lock()
		// A dead version that is still its key's head is the whole chain
		// (everything older ended earlier and is unreachable without it): the
		// exact-entry delete removes the primary entry in that case alone.
		// Otherwise the version hangs off a newer one, whose link to it goes
		// before the slot does (the reuse rule).
		t.primaryMu.Lock()
		t.verMu.Lock()
		if !t.primary.Delete(pk, uint64(rid)) {
			t.sever(pk, rid)
		}
		t.stamp(rid, verHeader{})
		t.verMu.Unlock()
		t.primaryMu.Unlock()
		t.removeIndexEntries(rid, row)
		t.store.Delete(rid)
		stripe.Unlock()
	}
	return n
}

// sever cuts the prev link that names victim, a version of pk about to be
// reclaimed, out of pk's chain; t.primaryMu and t.verMu are held
// exclusively. The walk from the head passes only versions that stay — no
// link names a reclaimed slot — and finds none to cut when an earlier turn
// of the pass already took victim off the chain.
func (t *Table) sever(pk float64, victim storage.RID) {
	head, ok := t.primary.Get(pk)
	if !ok {
		return
	}
	for rid := storage.RID(head); t.header(rid).beginTS != 0; {
		h := &t.vers[rid.Block()][rid.Slot()]
		if h.prev == victim {
			h.prev = noRID
			return
		}
		rid = h.prev
	}
}
