package engine

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"

	"hermit/internal/block"
)

// Compact runs one compaction round: it merges the first contiguous run
// of CompactFanIn same-level blocks found in any table's block stack into
// one block at the next level (dropping superseded entries, and
// tombstones when the run starts at the bottom of the list), publishes
// the result as a new epoch — reusing the last published catalog and
// replay coordinates verbatim, so the WAL tail is untouched. It reports
// whether a merge happened. The background compactor calls this in a loop;
// it is also the manual hook for deterministic tests. A database without a
// log has no blocks: ErrNotDurable.
func (db *DB) Compact() (bool, error) {
	d := db.dur
	if d == nil {
		return false, ErrNotDurable
	}
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
func (d *durable) compact() (bool, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	d.mu.RLock()
	stacks := maps.Clone(d.stacks)
	// The manifest republishes the last published catalog and replay
	// coordinates verbatim: compaction changes how the flushed state is
	// stored, never what it is or where the tail begins.
	m := d.pub
	m.Epoch++
	m.WALBase = d.walBase
	d.mu.RUnlock()

	phys, start, n := "", 0, 0
	for _, name := range slices.Sorted(maps.Keys(stacks)) {
		if start, n = stacks[name].NextRun(d.opts.fanIn()); n > 0 {
			phys = name
			break
		}
	}
	if n == 0 {
		return false, nil
	}
	if err := d.fp("compact-begin"); err != nil {
		return false, err
	}
	run := stacks[phys][start : start+n]
	merged, err := d.mergeBlocks(run, run.Summary().MaxLevel+1, start == 0)
	if err != nil {
		return false, err
	}
	// The run's place in the stack is taken by the merged block, or — every
	// entry a tombstone with nothing beneath it — by nothing.
	var replacement block.Stack
	if merged != nil {
		replacement = block.Stack{merged}
	}
	stacks[phys] = slices.Replace(slices.Clone(stacks[phys]), start, start+n, replacement...)
	if len(stacks[phys]) == 0 {
		delete(stacks, phys)
	}
	err = d.fp("compact-after-block")
	if err == nil {
		err = d.publishEpoch("compact-", m, stacks)
	}
	if err != nil {
		if merged != nil {
			merged.Close()
		}
		return false, err
	}
	d.mu.Lock()
	d.pub = m
	d.setStacks(stacks)
	d.mu.Unlock()
	d.compactions.Add(1)
	d.compactedBytes.Add(replacement.Summary().Bytes)
	if err := d.fp("compact-after-manifest-rename"); err != nil {
		return true, err
	}
	// As at the end of a checkpoint ("after-gc"), the gc is that of the
	// files the new epoch no longer names.
	d.gcStale()
	return true, d.fp("compact-after-gc")
}

// mergeBlocks merges a run, given oldest first, into one block at level:
// later entries win per key. Tombstones are dropped when the run is at the
// bottom of the stack (nothing older exists for them to shadow);
// otherwise they are preserved so older blocks stay masked. The run's
// blocks are already sorted, so the merge is block.Merge's walk fed straight
// to the writer — a read-ahead buffer of each input in memory, never a run. A merge that
// leaves no entry writes no block: the handle is nil.
func (d *durable) mergeBlocks(run block.Stack, level uint32, bottom bool) (*block.Handle, error) {
	h, err := d.writeBlock(run[0].Width(), level, func(add func(float64, []float64) error) error {
		return block.Merge(run, func(pk float64, row []float64) error {
			if row == nil && bottom {
				return nil
			}
			return add(pk, row)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("engine: compacting: %w", err)
	}
	return h, nil
}

// compactor is the background merge goroutine: it sleeps until a
// checkpoint kicks it, then compacts until no run is ready.
func (d *durable) compactor() {
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
				merged, err := d.db.Compact()
				if err != nil || !merged {
					break
				}
			}
		}
	}
}

func (d *durable) kickCompactor() {
	select {
	case d.compactKick <- struct{}{}:
	default:
	}
}

// stopCompactor shuts the background compactor down (idempotent) and
// waits for any in-flight round to finish.
func (d *durable) stopCompactor() {
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

// StorageStats snapshots the block storage tier's counters: the zero
// StorageStats on a database without a log.
func (db *DB) StorageStats() StorageStats {
	d := db.dur
	if d == nil {
		return StorageStats{}
	}
	d.mu.RLock()
	st := StorageStats{
		Epoch:      d.pub.Epoch,
		WALSegment: d.pub.WALSeg,
	}
	for _, stack := range d.stacks {
		sum := stack.Summary()
		st.Blocks += sum.Blocks
		st.BlockEntries += sum.Entries
		st.BlockBytes += sum.Bytes
		st.MaxLevel = max(st.MaxLevel, sum.MaxLevel)
		st.BlockResidentBytes += sum.ResidentBytes
		st.CompactionBacklog += stack.Backlog(d.opts.fanIn())
	}
	for _, l := range *db.tables.Load() {
		for _, tb := range l.phys {
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

// BlockRead answers a point read from the block tier alone — the path a
// cold (evicted or larger-than-RAM) table would take. Blocks are probed
// newest to oldest; each block's key fence and bloom filter, both resident
// from the block's first probe on, exclude it before any page is touched, so a read outside a block's key
// range costs nothing, and a block they let through costs one page read.
// probed counts those pages. The answer reflects the last flush cut, not
// the WAL tail: found=false means the key was absent (or deleted) as of the
// last checkpoint. A database without a log has no block tier:
// ErrNotDurable.
func (db *DB) BlockRead(table string, pk float64) (row []float64, found bool, probed int, err error) {
	d := db.dur
	if d == nil {
		return nil, false, 0, ErrNotDurable
	}
	l, err := db.named(table)
	if err != nil {
		return nil, false, 0, err
	}
	tb, _ := l.route(pk)
	for {
		d.mu.RLock()
		epoch := d.pub.Epoch
		stack := d.stacks[tb.name]
		d.mu.RUnlock()
		row, found, n, perr := stack.Get(pk)
		probed += n
		d.pageReads.Add(int64(n))
		if perr == nil || !errors.Is(perr, os.ErrClosed) {
			return row, found, probed, perr
		}
		// The probe raced a compaction: between loading the stack above and
		// the page read, a new epoch was published and setStacks closed a
		// merged-away block this stack still names. The freshly published
		// stack describes the same flushed state, so retry against it.
		// If the epoch has not moved, the database itself was closed —
		// surface the error.
		d.mu.RLock()
		cur := d.pub.Epoch
		d.mu.RUnlock()
		if cur == epoch {
			return nil, false, probed, perr
		}
	}
}
