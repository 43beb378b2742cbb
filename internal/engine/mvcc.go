package engine

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"hermit/internal/btree"
	"hermit/internal/hermit"
	"hermit/internal/keyorder"
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
// A version's header (verHeader: beginTS, endTS, prev) is kept only while it
// says something. The version table has, per store slot, one bit, and headers
// in granules of 64 that exist while one of their slots needs one (verBlock).
// A slot is in one of four states:
//
//   - free or unstamped — never used, reclaimed, or holding a row applied and
//     not yet committed: bit clear, no header (or the zero header), invisible
//     at every timestamp. This is what a slot is when nothing has been said
//     about it, so neither the apply phase nor reclamation has anything to
//     maintain, and the reuse rule below can lean on it.
//   - stamped — committed, live or ended: bit clear, a header in its granule.
//   - frozen — committed, live, nothing behind it, and begun at or below every
//     snapshot that exists or can exist: bit set, no header. Table.header
//     answers {beginTS: 1, prev: noRID} for it, which every reader of a header
//     already takes the right way: visible at every snapshot, live, the end of
//     its chain, not begun after any transaction's snapshot.
//     Every row that was loaded, restored from blocks, or last written before
//     the oldest snapshot is in this state; 24 bytes a row is what that saves.
//   - thawed — a frozen version that an update or a delete ends gets a header
//     back first, {1, commitTS, noRID} (end), and is a stamped version from
//     there on: queued, reclaimed, its slot free.
//
// The freeze rule has three preconditions, each of which is why a reader could
// otherwise be shown something wrong. The version is live: an end is a fact a
// header must keep. It has no prev: whatever older version hangs behind it is
// what an older snapshot resolves to, or what reclamation has still to cut
// loose. And its beginTS is at or below the horizon — Clock.OldestActive, the
// oldest timestamp a registered snapshot reads at, asked after the commit has
// published the clock, never at stamp: a snapshot registered between a
// commit's stamp and its publish reads at commitTS-1 and must not see the
// version, and OldestActive reports it; one registered after the publish reads
// at commitTS or later. Whether a block holds the row is no part of the rule:
// a table that flushes deltas keeps that in a bit of its own (below), and
// freezes at commit exactly like an in-memory one.
//
// Who freezes: the commit, after its publish (settle). An auto-commit insert
// of a key with no chain behind it, with no snapshot below its commitTS once
// the clock is published, is born frozen: stampInsert publishes the clock
// inside its exclusive hold of mvccMu, asks the horizon there, and sets the
// bit without writing a header or taking a granule. A version a commit
// cannot freeze yet — a snapshot is open below it, or it still has a
// predecessor that one pins — is late (verHeader.late once the predecessor
// is gone; the cut of the link, unlink, is where such a version is looked
// at again), and the late ones are frozen by the same budgeted step at the
// end of every commit that drains the queue of ended versions
// (reclaimAfter): a hand sweeps the granules that exist, one per unit of
// budget, so whatever became freezable is frozen within one revolution
// (sweep). DB.GC is that sweep without the budget. There is no goroutine
// and no pass to schedule.
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
// Publication rule: the primary entry of a key always names a stamped (or
// born-frozen) version. The swap and the stamp happen in one exclusive
// hold of mvccMu (stampInsert, stampUpdate), so a reader that finds a head
// through the primary can always walk from it to the version its snapshot
// sees. Were the entry moved earlier — when the version row is applied — a
// reader would reach a head whose header is still zero, read the zero
// header as the end of the chain, and lose the older version behind it.
//
// Reclamation is part of the commit that causes it. Every commit — the
// auto-commit writes, Txn.Commit, and through them the durable layer's
// submits, WAL replay and follower apply — ends, once it has published and
// let go of its key stripes, by draining from the front of the queue of
// ended versions (Table.ended, in endTS order) at most as many versions as
// it ended plus one (reclaimAfter): each loses its index entries, its header
// and its store row, and the version that superseded it, with nothing behind
// it any more, is frozen if the horizon allows. The horizon is Clock.OldestActive — the oldest
// timestamp a registered snapshot reads at, the clock itself when none is
// open — and a version goes when its endTS is at or below it, so with no
// snapshot pinned a superseded or deleted version is gone before the next
// write, and the backlog a long snapshot leaves behind shrinks by at least
// one version per commit once the snapshot is released. Every commit takes
// the usual case by a shorter road (settle): when no snapshot can see a
// version it has just ended it reclaims it before it lets go of its key's
// stripe, its row at hand, and drains one version fewer afterwards. There is
// no GC pass to schedule and none to wait for;
// DB.GC and GCVersions are the same drain without the budget, for a caller
// that wants a backlog gone now.
//
// What a table of a durable DB owes its next delta block is kept in two places,
// neither of them a header. A row no block holds yet has its unflushed bit set
// (verBlock.unflushed, allocated only when trackDeletes is): every stamp of a
// live version sets it (stampInsert, stampUpdate — whoever commits), reclaiming
// the slot clears it, and so does the checkpoint that wrote the row, once it
// has published (flushedTo: the versions begun at or before its cut, no others;
// a checkpoint that fails clears none, and its retry harvests the same delta).
// DeltaVersions reads the set bits, not the table. And a reclaimed whole-chain
// delete leaves neither chain nor bit behind, so stampDelete appends (key,
// commitTS) to Table.deletes, DeltaVersions makes a tombstone of every entry
// whose key has no row at its cut, and flushedTo trims the list: 16 bytes a
// delete record of the WAL tail no manifest has cut off yet, so whatever bounds
// the log bounds the list; the bits are 1/8 byte a slot whatever the log holds.
//
// Reuse rule: a freed row slot, and the bit and header slot that go with it, is
// taken by the next insert, so a RID names a version only until it is
// reclaimed. Nothing the table keeps may name a reclaimed slot: before a
// version's row is freed its index entries are removed, the primary entry
// is dropped if the version is its chain's head, and otherwise the prev
// link that leads to it is cut (unlink), so a chain walk never steps from
// one key's versions into the slot's next tenant. A reader keeps its RIDs
// good by holding its snapshot: no version visible at a registered snapshot
// is reclaimed. Without one, a RID is good until the next commit. A reused
// slot's bit is clear and its header zero until its new version commits, and that commit is
// later than every snapshot that could have met the slot's RID under its
// old tenant, so to them it stays invisible.

// Clock is the global commit clock a database (or a set of partitioned
// databases) orders its transactions with. It also registers live
// snapshots so no commit reclaims a version a reader could still resolve.
type Clock struct {
	ts atomic.Uint64 // last published commit timestamp

	// commitMu serialises the stamp-and-publish step of every commit.
	commitMu sync.Mutex

	// open counts the snapshots registered or about to be: it is raised
	// before a snapshot reads the clock and lowered after it has left the
	// registry, so a reader of the clock that then finds it zero knows that no
	// snapshot is registered below what it read, and none will be
	// (OldestActive's fast path — every commit asks).
	open atomic.Int64

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

// newClock creates a commit clock starting at timestamp 0.
func newClock() *Clock {
	return &Clock{active: make(map[uint64]int)}
}

// Now returns the last published commit timestamp: the timestamp a new
// snapshot would read at.
func (c *Clock) Now() uint64 { return c.ts.Load() }

// Snapshot registers and returns a read snapshot at the current commit
// timestamp. The caller must Release (or Recycle) it, or everything ended
// after it stays pinned for ever. The returned object may come from the
// clock's free-list — a recycled registration slot rather than a fresh
// allocation.
func (c *Clock) Snapshot() *Snapshot {
	c.open.Add(1)
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
	c.open.Add(-1)
}

// OldestActive returns the oldest timestamp any live snapshot reads at, or
// the current clock when no snapshot is open: the horizon at or below which
// an ended version may be reclaimed.
func (c *Clock) OldestActive() uint64 {
	if ts := c.ts.Load(); c.open.Load() == 0 {
		return ts
	}
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

// Release unregisters the snapshot, allowing the versions only it could see
// to be reclaimed. Releasing twice is a no-op.
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
	c.open.Add(-1)
}

// verHeader is the visibility record of one version row: the half-open
// commit-timestamp interval [beginTS, endTS) during which the row is its
// key's visible incarnation, and the RID of the version it superseded.
// The zero header means "unstamped" — a row applied and not yet committed,
// or a reclaimed slot no commit has refilled — and is invisible at
// every timestamp (the clock's first commit is 1). Headers are pointer-free,
// written by Table.stamp alone: at commit under both the clock's commit lock
// and the table's mvccMu, and under mvccMu when reclamation cuts a prev link
// (unlink) or zeroes the header, and when a freeze drops it.
type verHeader struct {
	beginTS uint64
	endTS   uint64      // 0 while this is the live version
	prev    storage.RID // superseded version; noRID when there is none
}

// noRID is the prev of a chain's oldest version — the oldest ever, or the
// oldest not yet reclaimed: a RID beyond any block the store can hold, so
// its header reads as zero and ends a chain walk.
const noRID = ^storage.RID(0)

// frozenHeader is what header answers for a frozen slot (see the freeze rule
// in the file comment): begun before every snapshot, live, nothing behind it.
var frozenHeader = verHeader{beginTS: 1, prev: noRID}

// granuleSlots is the number of version headers allocated together: the
// slots of one word of a block's frozen bitmap.
const (
	granuleSlots  = 64
	blockGranules = storage.BlockRows / granuleSlots
)

// verGranule holds the headers of granuleSlots consecutive slots. It exists
// only while one of them says something: a granule whose headers are all
// zero goes back to the table's free list (Table.granFree).
type verGranule [granuleSlots]verHeader

// verBlock is the version state of one store block: a frozen bit per slot,
// and the granules of the slots that keep a header. A clear bit — the state
// of a slot never used, freed, applied and not yet stamped, or stamped and
// not (yet) frozen — means "read the header", and no granule means the header
// is zero; a set bit means there is no header to read. said counts the
// non-zero headers of each granule. unflushed, nil unless the table flushes
// deltas, has a bit per slot too: set while it holds a version no block records.
type verBlock struct {
	frozen    [blockGranules]uint64
	gran      [blockGranules]*verGranule
	said      [blockGranules]uint8
	unflushed *[blockGranules]uint64
}

// maxGranuleFree bounds Table.granFree. A commit that freezes what it wrote
// takes a granule and gives it back, so a handful serve any number of
// writers; beyond the bound emptied granules are left to the collector.
const maxGranuleFree = 16

// visibleAt reports whether the version is the visible incarnation at ts.
func (h verHeader) visibleAt(ts uint64) bool {
	return h.beginTS != 0 && h.beginTS <= ts && (h.endTS == 0 || ts < h.endTS)
}

// live reports whether the version is stamped and not yet ended.
func (h verHeader) live() bool { return h.beginTS != 0 && h.endTS == 0 }

// late reports whether the version is one the freeze rule is waiting on:
// live, nothing behind it, and still carrying a header only because a
// snapshot is below its beginTS.
func (h verHeader) late() bool { return h.beginTS != 0 && h.endTS == 0 && h.prev == noRID }

// header returns rid's version header; t.mvccMu is held. A frozen slot
// answers frozenHeader. A RID the table never stamped — out of range, or
// applied but not yet committed — reads as the zero header.
func (t *Table) header(rid storage.RID) verHeader {
	b, s := rid.Block(), rid.Slot()
	if b >= uint64(len(t.vers)) || s >= storage.BlockRows || t.vers[b] == nil {
		return verHeader{}
	}
	vb := t.vers[b]
	g, i := s/granuleSlots, s%granuleSlots
	if vb.frozen[g]>>i&1 != 0 {
		return frozenHeader
	}
	if gr := vb.gran[g]; gr != nil {
		return gr[i]
	}
	return verHeader{}
}

// stamp writes rid's header — it is the one place a header is written — and
// keeps the books that follow from it: the granule that holds it is taken
// from the free list when the slot is the first of its 64 to say something
// and returned when it was the last, and the counts of headers and of late
// versions move with the change. rid is not frozen; t.mvccMu is held
// exclusively.
func (t *Table) stamp(rid storage.RID, h verHeader) {
	vb, s := t.verBlock(rid.Block()), rid.Slot()
	g, i := s/granuleSlots, s%granuleSlots
	gr := vb.gran[g]
	if gr == nil {
		if h == (verHeader{}) {
			return
		}
		if n := len(t.granFree); n > 0 {
			gr, t.granFree[n-1] = t.granFree[n-1], nil
			t.granFree = t.granFree[:n-1]
		} else {
			gr = new(verGranule)
		}
		vb.gran[g] = gr
	}
	old := gr[i]
	gr[i] = h
	switch was, is := old.late(), h.late(); {
	case is && !was:
		if t.late.Load() == 0 || h.beginTS < t.lateFloor {
			t.lateFloor = h.beginTS
		}
		t.handSeen = min(t.handSeen, h.beginTS)
		t.late.Add(1)
	case was && !is:
		t.late.Add(-1)
	}
	switch {
	case old.beginTS == 0 && h.beginTS != 0:
		vb.said[g]++
		t.headers++
	case old.beginTS != 0 && h.beginTS == 0:
		vb.said[g]--
		t.headers--
		if vb.said[g] == 0 {
			vb.gran[g] = nil
			if len(t.granFree) < maxGranuleFree {
				t.granFree = append(t.granFree, gr)
			}
		}
	}
}

// verBlock returns store block b's version state, made on first use;
// t.mvccMu is held exclusively.
func (t *Table) verBlock(b uint64) *verBlock {
	for uint64(len(t.vers)) <= b {
		t.vers = append(t.vers, nil)
	}
	vb := t.vers[b]
	if vb == nil {
		vb = new(verBlock)
		t.vers[b] = vb
	}
	return vb
}

// freezeIf freezes rid if the freeze rule allows it at horizon — a timestamp
// no registered snapshot reads below, and none will: the version is live, has
// nothing behind it, and began at or below horizon. Its header is dropped and
// its bit set. t.mvccMu is held exclusively.
func (t *Table) freezeIf(rid storage.RID, horizon uint64) bool {
	b, s := rid.Block(), rid.Slot()
	if b >= uint64(len(t.vers)) || t.vers[b] == nil {
		return false
	}
	vb, g, i := t.vers[b], s/granuleSlots, s%granuleSlots
	if vb.gran[g] == nil {
		return false // frozen already, or nothing stamped
	}
	if h := vb.gran[g][i]; !h.late() || h.beginTS > horizon {
		return false
	}
	t.stamp(rid, verHeader{})
	vb.frozen[g] |= 1 << i
	return true
}

// freezeGranule freezes what the rule allows at horizon among the slots of
// granule g of block b, and returns the lowest beginTS of the late versions
// it had to leave. t.mvccMu is held exclusively.
func (t *Table) freezeGranule(b, g int, horizon uint64) (left uint64) {
	left = math.MaxUint64
	vb := t.vers[b]
	for i := 0; i < granuleSlots && vb.gran[g] != nil; i++ {
		h := vb.gran[g][i]
		if h.late() && !t.freezeIf(storage.MakeRID(uint64(b), uint16(g*granuleSlots+i)), horizon) {
			left = min(left, h.beginTS)
		}
	}
	return left
}

// sweep is GCVersions' freeze on a budget, for the end of a commit: the hand
// moves on over the table's granules, round and round, and each unit of budget
// takes it across one granule that exists — freezing there what the rule allows
// at horizon — or across a block's worth of absent ones. A version that became
// freezable is therefore frozen within one revolution. When the hand comes
// round, lateFloor becomes the lowest beginTS it had to leave (or was told of
// meanwhile, stamp), which is what stops the sweeping while everything late is
// still above the horizon. t.mvccMu is held exclusively.
func (t *Table) sweep(horizon uint64, budget int) {
	for ; budget > 0 && t.late.Load() > 0 && horizon >= t.lateFloor; budget-- {
		for n := 0; n < blockGranules; n++ {
			if t.hand >= len(t.vers)*blockGranules {
				t.lateFloor, t.hand, t.handSeen = t.handSeen, 0, math.MaxUint64
				break
			}
			b, g := t.hand/blockGranules, t.hand%blockGranules
			t.hand++
			if vb := t.vers[b]; vb != nil && vb.gran[g] != nil {
				t.handSeen = min(t.handSeen, t.freezeGranule(b, g, horizon))
				break
			}
		}
	}
}

// Snapshot registers a read snapshot on the database's commit clock.
func (db *DB) Snapshot() *Snapshot { return db.clock.Snapshot() }

// Snapshot registers a read snapshot on the table's commit clock — the
// handle the *At query variants read through. Release it when done.
func (t *Table) Snapshot() *Snapshot { return t.clock.Snapshot() }

// Clock returns the database's commit clock (one for every table and
// partition, so cross-partition snapshots are consistent).
func (db *DB) Clock() *Clock { return db.clock }

// GC drains every table's queue of ended versions down to the oldest live
// snapshot, freezes what that snapshot no longer keeps from freezing, and
// returns the number of versions reclaimed. Commits reclaim and freeze as
// they go (reclaimAfter), so this finds work only after a snapshot that
// pinned a backlog has been released and before later commits have worked
// it off. On a durable database it does not wait for a flush: a reclaimed
// delete reaches the next delta block through its table's delete list.
func (db *DB) GC() int {
	horizon := db.clock.OldestActive()
	n := 0
	for _, l := range *db.tables.Load() {
		for _, t := range l.phys {
			n += t.GCVersions(horizon)
		}
	}
	return n
}

// head returns pk's newest version (live or not) and its header; the zero
// header when the key has never existed (or was fully reclaimed). The
// result stays the head for as long as the caller holds pk's stripe.
func (t *Table) head(pk float64) (storage.RID, verHeader) {
	t.mvccMu.RLock()
	id, ok := t.primary.Get(pk)
	var h verHeader
	if ok {
		h = t.header(storage.RID(id))
	}
	t.mvccMu.RUnlock()
	return storage.RID(id), h
}

// resolveVisible walks pk's chain to the version visible at ts; false
// when the key has no visible incarnation. A commit between the caller's
// snapshot and this walk only adds newer heads in front of the version the
// walk is after.
func (t *Table) resolveVisible(pk float64, ts uint64) (storage.RID, bool) {
	t.mvccMu.RLock()
	defer t.mvccMu.RUnlock()
	head, ok := t.primary.Get(pk)
	if !ok {
		return 0, false
	}
	return t.visibleFrom(storage.RID(head), ts)
}

// resolveKeys is resolveVisible for a harvest of logical identifiers (what
// a secondary index stores under logical pointers, hermit.LogicalID): the
// primary-index hop of the paper's §5.1 cost model, batched. ids is turned
// into the ranks of its keys (hermit.LogicalRank), sorted and deduplicated
// in place, so the heads are fetched in key order, front to back, a run of
// keys that share a leaf costing one descent, and resolved in the same
// mvccMu hold. The visible versions are appended to dst[:0]; the second
// result is the number of distinct keys.
func (t *Table) resolveKeys(ids []uint64, ts uint64, dst []storage.RID) ([]storage.RID, int) {
	for i, id := range ids {
		ids[i] = hermit.LogicalRank(id)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	dst = dst[:0]
	var f btree.Finger
	t.mvccMu.RLock()
	for _, r := range ids {
		if head, ok := t.primary.GetAscending(&f, keyorder.Unrank(r)); ok {
			dst = append(dst, storage.RID(head))
		}
	}
	dst = t.visibleFromAll(dst, ts)
	t.mvccMu.RUnlock()
	return dst, len(ids)
}

// visibleFromAll replaces each chain head in heads by the version of its
// chain visible at ts, dropping the chains that have none; it filters in
// place. t.mvccMu is held, the hold the heads were read under: between two
// holds one commit could drop a dead chain's entry and free its head's slot,
// the next stamp another key's version into it, and a walk from the stale
// head would continue down that key's chain.
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
// visible at ts; t.mvccMu is held. A zero header (noRID's) ends the chain.
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

// stampInsert publishes rid as pk's new chain head at commitTS, linked to
// the (dead) head it replaces, if any. Called with the key's stripe held
// and the clock's commit lock held. The primary entry and the header
// change in one hold of mvccMu (see the publication rule above); a key the
// swap adds raises the table's key ceiling in the same hold. A commit that
// stamps nothing else — the auto-commit insert — passes its clock as
// publish: commitTS is then published before the latch is let go, which
// is after the publish all the same and saves the commit a second hold of
// it, and a version the freeze rule allows at once — nothing behind it, no
// snapshot below commitTS once the clock says commitTS — is born frozen:
// its bit is set and no header is ever written for it.
func (t *Table) stampInsert(rid storage.RID, pk float64, commitTS uint64, publish *Clock) {
	t.mvccMu.Lock()
	prev := noRID
	if old, ok := t.primary.Swap(pk, uint64(rid)); ok {
		prev = storage.RID(old)
	} else if pk > t.ceiling() {
		t.keyCeiling.Store(math.Float64bits(pk))
	}
	if publish != nil {
		publish.ts.Store(commitTS)
	}
	if prev == noRID && publish != nil && publish.OldestActive() >= commitTS {
		vb, s := t.verBlock(rid.Block()), rid.Slot()
		vb.frozen[s/granuleSlots] |= 1 << (s % granuleSlots)
	} else {
		t.stamp(rid, verHeader{beginTS: commitTS, prev: prev})
	}
	t.setUnflushed(rid, true)
	t.liveRows++
	t.mvccMu.Unlock()
}

// ceiling is the table's key ceiling: the greatest non-NaN key the primary
// index has ever been given, −Inf while there is none. It only rises
// (stampInsert, under mvccMu), and a key strictly above it was never added,
// so it names no chain: an auto-commit insert of such a key has no
// duplicate to look for (applyInsert). A NaN compares above nothing, so a
// NaN key never raises it and always takes the probe; ±0 are one key and
// neither is above the other, so a zero at a zero ceiling takes it too.
// Read without mvccMu; see latches.go for why the key's stripe suffices.
func (t *Table) ceiling() float64 { return math.Float64frombits(t.keyCeiling.Load()) }

// stampUpdate ends pk's live head and publishes its replacement rid at
// commitTS.
func (t *Table) stampUpdate(pk float64, rid storage.RID, commitTS uint64) {
	t.mvccMu.Lock()
	id, _ := t.primary.Swap(pk, uint64(rid))
	old := storage.RID(id)
	t.end(old, commitTS)
	t.stamp(rid, verHeader{beginTS: commitTS, prev: old})
	t.setUnflushed(rid, true)
	t.mvccMu.Unlock()
}

// stampDelete ends the head old of pk at commitTS without a successor. A
// table that flushes deltas (trackDeletes) notes the death: the chain may be
// reclaimed before the next flush, and the flush must still write the
// tombstone.
func (t *Table) stampDelete(old storage.RID, pk float64, commitTS uint64) {
	t.mvccMu.Lock()
	t.end(old, commitTS)
	t.liveRows--
	if t.trackDeletes {
		t.deletes.push(keyDeath{pk: pk, ts: commitTS})
	}
	t.mvccMu.Unlock()
}

// end closes old's visibility interval at commitTS and queues it for
// reclamation; t.mvccMu is held exclusively. A frozen version is thawed: its
// bit is cleared and it gets back a header, the one header answered for it
// with the end filled in. Commit timestamps only grow, so the queue stays
// sorted by endTS.
func (t *Table) end(old storage.RID, commitTS uint64) {
	h := t.header(old)
	h.endTS = commitTS
	t.vers[old.Block()].frozen[old.Slot()/granuleSlots] &^= 1 << (old.Slot() % granuleSlots)
	t.stamp(old, h)
	t.ended.push(old)
	t.pending.Store(int64(t.ended.len()))
}

// keyDeath is one entry of Table.deletes: pk's live version ended at ts
// without a successor.
type keyDeath struct {
	pk float64
	ts uint64
}

// setUnflushed sets or clears rid's unflushed bit and keeps the count of set
// bits; on a table that flushes nothing it does nothing. A version was stamped
// at rid, so its verBlock exists; t.mvccMu is held exclusively.
func (t *Table) setUnflushed(rid storage.RID, on bool) {
	if !t.trackDeletes {
		return
	}
	vb, g, i := t.vers[rid.Block()], rid.Slot()/granuleSlots, rid.Slot()%granuleSlots
	if vb.unflushed == nil {
		vb.unflushed = new([blockGranules]uint64)
	}
	// Out of the word and the count, and back in if on.
	t.unflushed -= int(vb.unflushed[g] >> i & 1)
	if vb.unflushed[g] &^= 1 << i; on {
		vb.unflushed[g] |= 1 << i
		t.unflushed++
	}
}

// unflushedSlots ranges over the slots whose unflushed bit is set, in RID
// order, each with its header. t.mvccMu is held; a holder of it exclusively may
// clear the bit of the slot it is at.
func (t *Table) unflushedSlots() iter.Seq2[storage.RID, verHeader] {
	return func(yield func(storage.RID, verHeader) bool) {
		for b, vb := range t.vers {
			if vb == nil || vb.unflushed == nil {
				continue
			}
			for g, w := range vb.unflushed {
				for ; w != 0; w &= w - 1 {
					rid := storage.MakeRID(uint64(b), uint16(g*granuleSlots+bits.TrailingZeros64(w)))
					if !yield(rid, t.header(rid)) {
						return
					}
				}
			}
		}
	}
}

// flushedTo tells a table that flushes deltas that a published delta block —
// or, at recovery, the blocks it was restored from — records everything
// committed at or before ts: the deletes up to ts leave the list, and the
// versions begun at or before ts are unflushed no longer. One begun after ts —
// a commit that ran beside the checkpoint's write phase — keeps its bit. The
// caller still pins the snapshot at ts it harvested under (at recovery it is
// alone), so a frozen slot, which reads as begun at 1, did begin by ts.
func (t *Table) flushedTo(ts uint64) {
	t.mvccMu.Lock()
	n := 0
	for n < t.deletes.len() && t.deletes.items()[n].ts <= ts {
		n++
	}
	t.deletes.drop(n)
	for rid, h := range t.unflushedSlots() {
		if h.beginTS <= ts {
			t.setUnflushed(rid, false)
		}
	}
	t.mvccMu.Unlock()
}

// VersionStats is the state of a table's version table.
type VersionStats struct {
	// Pending counts the versions ended and still queued: pinned by a
	// snapshot, or waiting for the next commits' budgets.
	Pending int
	// Reclaimed counts the versions reclaimed so far.
	Reclaimed uint64
	// UnflushedDeletes counts the deletes no flush has recorded yet (zero on
	// a table that flushes nothing).
	UnflushedDeletes int
	// Unfrozen counts the slots that hold a version header: Pending, plus the
	// live versions a snapshot keeps from freezing, plus those with a pending
	// version still behind them.
	Unfrozen int
	// Unflushed counts the versions no block holds (zero on a table that
	// flushes nothing): the live rows written since the last checkpoint's cut —
	// the WAL tail's footprint — and any predecessor of theirs a snapshot pins.
	Unflushed int
	// Bytes is MemoryStats.VersionBytes.
	Bytes uint64
}

// VersionStats reports the table's reclamation and freezing state.
func (t *Table) VersionStats() VersionStats {
	t.mvccMu.RLock()
	defer t.mvccMu.RUnlock()
	return VersionStats{
		Pending:          t.ended.len(),
		Reclaimed:        t.reclaimed,
		UnflushedDeletes: t.deletes.len(),
		Unfrozen:         t.headers,
		Unflushed:        t.unflushed,
		Bytes:            t.versionBytesLocked(),
	}
}

// fifo is a first-in-first-out queue in one array: push appends, drop
// removes from the front by advancing head. The consumed front is closed up
// once it is more than half of what the array holds, so a drop costs O(1)
// amortised however long the queue; and an array grown for a long backlog is
// given back as the backlog drains — when that closing-up finds less than a
// quarter of the capacity in use, the rest moves to an array of twice its
// size. Arrays of fifoFloor elements or fewer are kept: a queue that
// hovers around empty never allocates.
type fifo[T comparable] struct {
	buf  []T
	head int
}

const fifoFloor = 64

func (q *fifo[T]) len() int         { return len(q.buf) - q.head }
func (q *fifo[T]) items() []T       { return q.buf[q.head:] }
func (q *fifo[T]) push(v T)         { q.buf = append(q.buf, v) }
func (q *fifo[T]) capBytes() uint64 { return uint64(cap(q.buf)) * uint64(unsafe.Sizeof(*new(T))) }

// remove takes the newest element equal to v out of the queue, wherever it
// stands, and reports whether there was one.
func (q *fifo[T]) remove(v T) bool {
	for i := len(q.buf) - 1; i >= q.head; i-- {
		if q.buf[i] == v {
			q.buf = append(q.buf[:i], q.buf[i+1:]...)
			if q.head == len(q.buf) {
				q.buf, q.head = q.buf[:0], 0
			}
			return true
		}
	}
	return false
}

func (q *fifo[T]) drop(n int) {
	q.head += n
	if q.head <= len(q.buf)/2 {
		return
	}
	rest := q.buf[q.head:]
	if c := cap(q.buf); c > fifoFloor && len(rest) < c/4 {
		q.buf = append(make([]T, 0, max(2*len(rest), fifoFloor)), rest...)
	} else {
		q.buf = q.buf[:copy(q.buf, rest)]
	}
	q.head = 0
}

// versionBytes estimates the heap the version table holds: per store block
// the frozen bitmap, the granule pointers and (on a table that flushes deltas)
// the unflushed bitmap, a granule for every 64 slots of which one keeps a
// header, the granules on the free list, the queue of ended versions and the
// list of unflushed deletes. (The key→head mapping is the
// primary index, accounted as PrimaryBytes.)
func (t *Table) versionBytes() uint64 {
	t.mvccMu.RLock()
	defer t.mvccMu.RUnlock()
	return t.versionBytesLocked()
}

func (t *Table) versionBytesLocked() uint64 {
	b := uint64(cap(t.vers))*8 + uint64(cap(t.granFree))*8 + t.ended.capBytes() + t.deletes.capBytes()
	granules := len(t.granFree)
	for _, vb := range t.vers {
		if vb == nil {
			continue
		}
		b += uint64(unsafe.Sizeof(*vb))
		if vb.unflushed != nil {
			b += uint64(unsafe.Sizeof(*vb.unflushed))
		}
		for _, gr := range vb.gran {
			if gr != nil {
				granules++
			}
		}
	}
	return b + uint64(granules)*uint64(unsafe.Sizeof(verGranule{}))
}

// Len returns the number of live rows (at the latest commit timestamp).
func (t *Table) Len() int {
	t.mvccMu.RLock()
	n := t.liveRows
	t.mvccMu.RUnlock()
	return n
}

// ScanLive calls fn for every row live at the latest commit timestamp, in
// primary-key order. The row slice is reused between calls; fn must not
// retain it. Scanning stops early if fn returns false. It is the
// MVCC-aware replacement for scanning the row store directly (which also
// holds the superseded and deleted versions a snapshot pins).
func (t *Table) ScanLive(fn func(rid storage.RID, row []float64) bool) {
	// The snapshot keeps the harvested versions from being reclaimed, and
	// their slots refilled, before their rows are fetched.
	snap := t.clock.Snapshot()
	defer snap.Recycle()
	ts := snap.ts
	t.mvccMu.RLock()
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
	t.mvccMu.RUnlock()
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

// DeltaVersions harvests what a table that flushes deltas has committed up to
// ts and no block records yet, and hands it to emit in key order: for every
// key whose visible-at-ts incarnation is unflushed the full row, and for every
// other key on the delete list up to ts a nil row — a tombstone. Replaying the
// entries on top of what the blocks hold reproduces exactly the live rows at
// ts. The order is the one a block.Writer requires (keyorder; -0 is emitted as
// +0, as blocks identify keys). The row is emit's only for the call; emit's
// first error ends the harvest and is returned.
//
// The rows are the slots whose unflushed bit is set and whose version is
// visible at ts: one begun after ts belongs to the next delta, and one ended at
// or before ts was deleted, or superseded by a version with a bit of its own. A
// frozen slot is visible at ts: it is live, and nothing begun above a
// registered snapshot freezes. A listed key that has a row at ts all the same
// was re-inserted after the delete, and the row is what the block must say. The
// cost is that of the unflushed rows, not of the table, and t.mvccMu is
// held, shared, for the scan of the bitmaps alone.
//
// The caller pins a snapshot at or below ts for the duration (the durable
// layer's flush snapshot), so no version visible at ts is reclaimed before its
// row is fetched, and calls flushedTo(ts) before it lets go of it if it
// published the block — and not at all if it did not.
func (t *Table) DeltaVersions(ts uint64, emit func(pk float64, row []float64) error) error {
	// A tombstone is an entry without a RID. Sorted by (key, RID) it comes
	// after the row of its key, if there is one, and is dropped for it.
	t.mvccMu.RLock()
	rids := make([]uint64, 0, t.unflushed+t.deletes.len())
	for rid, h := range t.unflushedSlots() {
		if h.visibleAt(ts) {
			rids = append(rids, uint64(rid))
		}
	}
	rows := len(rids)
	keys := make([]float64, rows, cap(rids))
	for _, d := range t.deletes.items() {
		if d.ts > ts {
			break
		}
		keys, rids = append(keys, d.pk), append(rids, uint64(noRID))
	}
	t.mvccMu.RUnlock()
	harvestErr := func(err error) error {
		return fmt.Errorf("engine: delta harvest of %q at %d: %w (no snapshot pinned at the cut?)", t.name, ts, err)
	}
	// Keys, then rows, are read a run at a time, one hold of the store's
	// latch each.
	const run = 256
	fetch := make([]storage.RID, 0, run)
	for at := 0; at < rows; at += run {
		fetch = ridRun(fetch, rids[at:min(at+run, rows)])
		if _, err := t.store.ValueRun(fetch, t.pkCol, keys[at:]); err != nil {
			return harvestErr(err)
		}
	}
	keyorder.SortPairs(keys, rids)

	var buf []float64
	width, last := t.store.Width(), uint64(0)
	for at := 0; at < len(keys); {
		chunk := rids[at:min(at+run, len(rids))]
		var err error
		if buf, err = t.store.GetRun(ridRun(fetch, chunk), buf); err != nil {
			return harvestErr(err)
		}
		next := buf
		for _, rid := range chunk {
			rank := keyorder.Rank(keys[at])
			dup := at > 0 && rank == last
			last = rank
			at++
			var row []float64
			if storage.RID(rid) != noRID {
				row, next = next[:width:width], next[width:]
			} else if dup {
				continue // the key has a row at ts, or died twice
			}
			if err := emit(keyorder.Unrank(rank), row); err != nil {
				return err
			}
		}
	}
	return nil
}

// ridRun returns in fetch's array the RIDs of chunk that name a row: all
// but the tombstones' noRID.
func ridRun(fetch []storage.RID, chunk []uint64) []storage.RID {
	fetch = fetch[:0]
	for _, rid := range chunk {
		if storage.RID(rid) != noRID {
			fetch = append(fetch, storage.RID(rid))
		}
	}
	return fetch
}

// GCVersions reclaims every version whose endTS is at or below horizon and
// returns their number, and freezes every late version begun at or below it:
// what the end of a commit does (reclaimAfter) without a budget, for a caller
// that wants a backlog gone at once (DB.GC). Safe to run concurrently with
// readers, writers and other drains.
func (t *Table) GCVersions(horizon uint64) int {
	t.catalog.RLock()
	defer t.catalog.RUnlock()
	n := t.reclaim(horizon, math.MaxInt)
	// The freeze rule applied to every header the table holds; it leaves
	// lateFloor exact.
	t.mvccMu.Lock()
	floor := uint64(math.MaxUint64)
	for b, vb := range t.vers {
		for g := 0; vb != nil && g < blockGranules; g++ {
			if vb.gran[g] != nil {
				floor = min(floor, t.freezeGranule(b, g, horizon))
			}
		}
	}
	t.lateFloor, t.hand, t.handSeen = floor, 0, math.MaxUint64
	t.mvccMu.Unlock()
	return n
}

// reclaimAfter is the last step of a commit to t: it reclaims at most budget
// versions from the front of the queue — the number the commit ended, and
// one more — so the queue is empty again after a commit that found it empty,
// and a backlog left by a snapshot since released shrinks with every commit.
// The versions such a snapshot kept from freezing go the same way, on the
// same budget (sweep). The caller holds t.catalog shared and none of t's
// stripes. Whether there is anything to do is read from the counts' atomic
// copies, without the latch: a commit sees what it queued itself, and work
// another commit queued meanwhile is that commit's to do.
func (t *Table) reclaimAfter(budget int) {
	pending, late := t.pending.Load() > 0, t.late.Load() > 0
	if !pending && !late {
		return
	}
	horizon := t.clock.OldestActive()
	if pending {
		t.reclaim(horizon, budget)
	}
	if late {
		t.mvccMu.Lock()
		t.sweep(horizon, budget)
		t.mvccMu.Unlock()
	}
}

// settle is what a commit at commitTS does for one key it wrote, after it has
// published the clock and before it lets go of the key's stripe: born is the
// version it stamped (noRID for a delete), dead the one it ended (noRID for an
// insert) and deadRow dead's row. quiet says that no snapshot is registered
// below commitTS, and so none will be (Clock.OldestActive() >= commitTS, asked
// after the publish: a snapshot registered between stamp and publish reads at
// commitTS-1 and must see dead, not born). A quiet commit reclaims dead here —
// the stripe is held and the row at hand, which is most of what reclaim would
// have to get again — unless a concurrent drain took it off the queue first,
// and freezes born, which has nothing behind it once dead is gone. settle
// returns how many versions it left on the queue, none or one. (The
// auto-commit insert, with one version to stamp and none to reclaim, is born
// frozen inside the hold it stamps under instead: stampInsert.)
func (t *Table) settle(commitTS uint64, quiet bool, born, dead storage.RID, deadRow []float64) (left int) {
	switch {
	case dead == noRID:
		if quiet {
			t.mvccMu.Lock()
			t.freezeIf(born, commitTS)
			t.mvccMu.Unlock()
		}
		return 0
	case !quiet:
		return 1
	}
	t.mvccMu.Lock()
	mine := t.ended.remove(dead)
	t.pending.Store(int64(t.ended.len()))
	t.mvccMu.Unlock()
	if mine {
		t.reclaimVersion(dead, deadRow, born, commitTS)
	}
	return 0
}

// reclaimStack is the batch reclaim keeps on its stack — an auto-commit
// write's budget is at most 2 — and rowStack the row width it does.
const (
	reclaimStack = 8
	rowStack     = 16
)

// reclaim takes up to budget versions whose endTS is at or below horizon off
// the front of the queue and reclaims them (reclaimVersion), each under its
// key's stripe. It returns the number of versions reclaimed, and costs
// O(that number), not O(table). The caller holds t.catalog shared. Only
// versions invisible to every snapshot at or after horizon are touched;
// batches taken by concurrent drains are disjoint, and the order in which a
// chain's versions go does not matter (see unlink).
func (t *Table) reclaim(horizon uint64, budget int) int {
	t.mvccMu.Lock()
	n := 0
	for n < budget && n < t.ended.len() && t.header(t.ended.items()[n]).endTS <= horizon {
		n++
	}
	if n == 0 {
		t.mvccMu.Unlock()
		return 0
	}
	// The batch is copied out of the queue, whose array appends go on
	// refilling.
	var stack [reclaimStack]storage.RID
	dead := stack[:0]
	if n > len(stack) {
		dead = make([]storage.RID, 0, n)
	}
	dead = append(dead, t.ended.items()[:n]...)
	t.ended.drop(n)
	t.pending.Store(int64(t.ended.len()))
	t.mvccMu.Unlock()

	// Newest first: a chain's versions end in order, so the first of a
	// chain's versions met here is the newest of the batch. Cutting the link
	// to it takes every older one off the chain with it, and their turns find
	// nothing left to cut after a walk over the versions that stay — in queue
	// order each would walk the whole backlog of its chain.
	var buf [rowStack]float64
	row := buf[:0]
	for i := n - 1; i >= 0; i-- {
		rid := dead[i]
		var err error
		if row, err = t.store.Get(rid, row); err != nil {
			continue // unreachable: a version's row is freed by whoever took it off the queue
		}
		// Writers of this key hold its stripe from reading the head to
		// stamping over it, so they never see the head entry vanish.
		stripe := t.rows.mu(row[t.pkCol])
		stripe.Lock()
		t.reclaimVersion(rid, row, noRID, horizon)
		stripe.Unlock()
	}
	return n
}

// reclaimVersion reclaims the version rid, off the queue already, whose row
// is row and whose key's stripe the caller holds: its secondary-index
// entries are removed, its header zeroed and its store row freed — slot and
// header slot go to the next insert. A fully dead chain (a deleted key) also
// gives up its primary-index entry. succ is the version that superseded rid
// when the caller has just stamped it, noRID otherwise (see unlink). The
// version rid was cut loose from has nothing behind it any more, and is frozen
// if the rule allows it at horizon. The caller holds t.catalog shared.
func (t *Table) reclaimVersion(rid storage.RID, row []float64, succ storage.RID, horizon uint64) {
	t.mvccMu.Lock()
	if cut := t.unlink(row[t.pkCol], rid, succ); cut != noRID {
		t.freezeIf(cut, horizon)
	}
	t.stamp(rid, verHeader{})
	t.setUnflushed(rid, false)
	t.reclaimed++
	t.mvccMu.Unlock()
	t.removeIndexEntries(rid, row)
	t.store.Delete(rid)
}

// unlink takes victim, a version of pk about to be reclaimed, out of what
// the table can reach (the reuse rule); t.mvccMu is held exclusively. A caller that knows the version whose prev names victim —
// the update that has just stamped it, still inside the key's stripe —
// passes it as succ, and the link is cut there. Otherwise: a dead version
// that is still its key's head is the whole chain — everything older ended
// earlier and is unreachable without it — and the exact-entry delete removes
// the primary entry in that case alone; any other hangs off a newer one, and
// the walk from the head, which passes only versions that stay — no link
// names a reclaimed slot — cuts the link to it, or finds nothing to cut when
// the reclamation of a newer version already took victim off the chain.
// unlink returns the version whose link it cut, noRID when it cut none.
func (t *Table) unlink(pk float64, victim, succ storage.RID) (cut storage.RID) {
	if succ == noRID {
		if t.primary.Delete(pk, uint64(victim)) {
			return noRID
		}
		head, ok := t.primary.Get(pk)
		if !ok {
			return noRID
		}
		succ = storage.RID(head)
		for {
			h := t.header(succ)
			if h.beginTS == 0 {
				return noRID
			}
			if h.prev == victim {
				break
			}
			succ = h.prev
		}
	}
	h := t.header(succ)
	h.prev = noRID
	t.stamp(succ, h)
	return succ
}
