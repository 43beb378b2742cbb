package engine

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"hermit/internal/block"
	"hermit/internal/wal"
)

// flushCut is everything a checkpoint captures during its swap window:
// the state it needs to build and publish a new epoch without the latch.
type flushCut struct {
	flushTS uint64
	// pub is the manifest the checkpoint will publish: the next epoch, the
	// catalog copy, and the replay coordinates — the current segment at its
	// synced offset, or, when rotating, a fresh segment numbered after the
	// epoch at 0 whose global LSNs continue from the old segment's last.
	pub    manifest
	stacks map[string]block.Stack
	rotate bool
}

// Checkpoint flushes the delta since the last flush — only versions
// committed after the previous cut — as one sorted block per changed
// physical table, then atomically publishes a new epoch. The protocol,
// with the crash outcome of each window:
//
//  1. Swap window (exclusive latch, short): flush the WAL, capture the
//     cut — the flush snapshot and its timestamp, catalog copy, current
//     block stacks, and the replay offset (the synced WAL size). Crash: old
//     manifest, full old-window replay — nothing lost.
//  2. Unlatched write phase: harvest each table's delta (DeltaVersions)
//     and write it as an immutable block (tmp + fsync + rename).
//     Mutations proceed concurrently; they commit after the cut, so they
//     belong to the next delta and to the WAL tail both manifests replay,
//     and the flush snapshot keeps them from reclaiming a version the cut
//     sees before its row is in the block.
//     Crash: the new blocks are unreferenced garbage, GC'd later.
//  3. Sync the directory, then write manifest.json.tmp — the next epoch's
//     catalog, replay coordinates and every table's block stack, old +
//     new blocks, under one CRC — and rename it over manifest.json,
//     fsyncing file and directory: the commit point. Before the rename
//     recovery uses the old epoch in full; after it, the blocks plus the
//     tail past the new cut. Replay can never start before its image's
//     cut, so recovery never double-applies.
//  4. Re-latch briefly to publish the new epoch in memory, tell the tables
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
		flushTS: snap.TS(),
		pub: manifest{
			Epoch:    d.pub.Epoch + 1,
			WALSeg:   d.pub.WALSeg,
			WALStart: d.log.Size(),
			WALBase:  d.walBase,
			Tables:   copyTables(d.tables),
		},
		stacks: maps.Clone(d.stacks),
		rotate: rb > 0 && d.log.Size() >= rb,
	}
	if cut.rotate {
		// The latch is held across the whole rotating flush, so the old
		// segment's last LSN is final here — the fresh segment continues
		// the global sequence from it.
		cut.pub.WALBase = d.log.LastLSN()
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

	// --- Write phase: delta blocks, manifest. ---
	newLog, flushed, err := d.writeEpoch(&cut)
	if err != nil {
		return err
	}

	// --- Publish: commit point passed, swap the in-memory state. ---
	if !latched {
		d.mu.Lock()
		latched = true
	}
	d.pub = cut.pub
	d.setStacks(cut.stacks)
	var oldLog *wal.Log
	var rotatedWatchers []chan struct{}
	if cut.rotate {
		oldLog, d.log = d.log, newLog
		d.walBase = cut.pub.WALBase
		// Re-home registered tailer wakeups onto the successor segment and
		// remember them for a post-swap nudge, so a tailer parked at the old
		// segment's EOF notices the rotation.
		rotatedWatchers = append(rotatedWatchers, d.walWatchers...)
		for _, ch := range rotatedWatchers {
			newLog.Watch(ch)
		}
	}
	for name := range cut.pub.Tables {
		for _, tb := range d.db.lookup(name).phys {
			tb.flushedTo(cut.flushTS)
		}
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
func (d *DurableDB) writeBlock(width int, level uint32, fill func(add func(pk float64, row []float64) error) error) (*block.Handle, error) {
	var w *block.Writer
	var id uint64
	err := fill(func(pk float64, row []float64) error {
		if w == nil {
			id = d.blockSeq.Add(1)
			var err error
			if w, err = block.Create(durablePaths{d.dir}.block(id), width); err != nil {
				return err
			}
		}
		return w.Add(pk, row)
	})
	if w == nil || err != nil {
		if w != nil {
			w.Abort()
		}
		return nil, err
	}
	desc, err := w.Finish()
	if err != nil {
		return nil, err
	}
	desc.ID, desc.Level = id, level
	return block.Open(durablePaths{d.dir}.block(id), desc)
}

// writeEpoch writes the cut's delta blocks and manifest, adding
// the new blocks' open handles to the cut's stacks, and returns the new
// segment's log (rotation only) and the flushed byte count. On error nothing
// has been published: any files already written are unreferenced and will
// be garbage-collected.
func (d *DurableDB) writeEpoch(cut *flushCut) (newLog *wal.Log, flushed int64, err error) {
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
	for _, name := range slices.Sorted(maps.Keys(cut.pub.Tables)) {
		for _, tb := range d.db.lookup(name).phys {
			// The table's rows go from its store to the file a page at a time.
			h, werr := d.writeBlock(tb.Store().Width(), 0, func(add func(float64, []float64) error) error {
				return tb.DeltaVersions(cut.flushTS, add)
			})
			if werr != nil {
				return newLog, 0, werr
			}
			if h == nil {
				continue // unchanged since the last flush: no block
			}
			fresh = append(fresh, h)
			cut.stacks[tb.name] = append(slices.Clip(cut.stacks[tb.name]), h)
			flushed += h.Desc().Bytes
			if ferr := d.fp("after-block:" + tb.name); ferr != nil {
				return newLog, 0, ferr
			}
		}
	}
	if cut.rotate {
		var werr error
		if newLog, werr = d.openWAL(cut.pub.Epoch, cut.pub.WALBase); werr != nil {
			return newLog, 0, werr
		}
		cut.pub.WALSeg, cut.pub.WALStart = cut.pub.Epoch, 0
		if ferr := d.fp("after-new-wal"); ferr != nil {
			return newLog, 0, ferr
		}
	}
	return newLog, flushed, d.publishEpoch("", cut.pub, cut.stacks)
}

// publishEpoch makes epoch m durable: the manifest — m, stamped with the
// pointer scheme and naming stacks — through manifest.json.tmp and a rename,
// the commit point. On error nothing has been published. step prefixes the
// failpoint names ("" for a checkpoint, "compact-" for a compaction).
func (d *DurableDB) publishEpoch(step string, m manifest, stacks map[string]block.Stack) error {
	p := durablePaths{d.dir}
	m.Scheme = int(d.db.Scheme())
	raw, err := encodeManifest(d.imageOf(m, stacks))
	if err != nil {
		return err
	}
	// Make the block renames and (on rotation) the new segment durable
	// before the manifest can name them: without this ordering, a power
	// loss right after the manifest rename could publish an epoch whose
	// files the directory lost.
	syncDir(d.dir)
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

// setStacks publishes new block stacks and closes the handles the new epoch
// no longer names: a cold read that loaded the old stack and has a page
// read in flight finishes it, one that has not yet started fails with
// os.ErrClosed and retries on the new stack (BlockRead). Caller holds d.mu.
func (d *DurableDB) setStacks(stacks map[string]block.Stack) {
	kept := make(map[*block.Handle]bool)
	for _, stack := range stacks {
		for _, h := range stack {
			kept[h] = true
		}
	}
	for _, stack := range d.stacks {
		for _, h := range stack {
			if !kept[h] {
				h.Close()
			}
		}
	}
	d.stacks = stacks
}

// gcStale removes artifacts no longer referenced by the published epoch:
// temp files, WAL segments other than the appended-to one (minus the
// ReplRetainWALSegments newest predecessors kept for replication
// catch-up) and unreferenced block files. Best-effort: failures leave
// garbage that the next pass retries.
func (d *DurableDB) gcStale() {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	d.mu.RLock()
	walSeg := d.pub.WALSeg
	referenced := make(map[uint64]bool)
	for _, stack := range d.stacks {
		for _, h := range stack {
			referenced[h.Desc().ID] = true
		}
	}
	d.mu.RUnlock()
	// Retention keeps the current segment and the newest K older ones;
	// anything older still, plus any segment numbered past the current
	// (a crash leftover from an unpublished rotation), is stale.
	retained := map[uint64]bool{walSeg: true}
	segs := walSegments(entries)
	older := sort.Search(len(segs), func(i int) bool { return segs[i] >= walSeg })
	keep := min(older, max(d.opts.ReplRetainWALSegments, 0))
	for _, seg := range segs[older-keep : older] {
		retained[seg] = true
	}
	for _, e := range entries {
		name := e.Name()
		stale := false
		switch {
		case strings.HasSuffix(name, ".tmp"):
			stale = true
		case strings.HasPrefix(name, "wal.") && strings.HasSuffix(name, ".log"):
			seg, ok := walSegment(name)
			stale = ok && !retained[seg]
		case strings.HasSuffix(name, ".blk"):
			id, ok := parseBlockID(name)
			stale = ok && !referenced[id]
		}
		if stale {
			os.Remove(filepath.Join(d.dir, name))
		}
	}
}

// walSegment parses a WAL segment filename ("wal.<seg>.log").
func walSegment(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal.") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seg, err := strconv.ParseUint(name[len("wal."):len(name)-len(".log")], 10, 64)
	return seg, err == nil
}

// walSegments lists the WAL segments among a directory's entries, ascending.
func walSegments(entries []os.DirEntry) []uint64 {
	var segs []uint64
	for _, e := range entries {
		if seg, ok := walSegment(e.Name()); ok {
			segs = append(segs, seg)
		}
	}
	slices.Sort(segs)
	return segs
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
