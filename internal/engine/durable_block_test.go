package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hermit/internal/block"
	"hermit/internal/hermit"
	"hermit/internal/keyorder"
	"hermit/internal/storage"
)

// Tests of the durable layer's use of the paged block tier: what a cold read
// leaves in memory, what a handle's lifetime costs in descriptors, and the
// streaming merge against the fold it replaced.

// refEntry is one block entry as the reference fold holds it: an upsert's
// row, or nil for a tombstone.
type refEntry struct {
	pk  float64
	row []float64
}

// foldReference is the merge and the recovery fold as they were before
// blocks streamed: every block of the stack read whole, oldest first, into
// one map keyed by the key's bits — a later entry replacing an earlier —
// then the survivors sorted. At the bottom of a stack tombstones have
// nothing left to shadow and are dropped. The streaming paths are held to
// its output.
func foldReference(stack [][]refEntry, bottom bool) []refEntry {
	live := make(map[uint64]refEntry)
	for _, blk := range stack {
		for _, e := range blk {
			live[block.KeyBits(e.pk)] = e
		}
	}
	merged := make([]refEntry, 0, len(live))
	for _, e := range live {
		if e.row == nil && bottom {
			continue
		}
		merged = append(merged, e)
	}
	sort.Slice(merged, func(i, j int) bool {
		return keyorder.Rank(merged[i].pk) < keyorder.Rank(merged[j].pk)
	})
	return merged
}

// mergeKeys is the key universe of the merge test: few enough that blocks
// of a stack share keys, with the keys the order is total over among them.
func mergeKeys() []float64 {
	keys := []float64{0, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000002), math.Float64frombits(0xfff8000000000001),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64}
	for i := 1; i <= 600; i++ {
		keys = append(keys, float64(i)/4, -float64(i))
	}
	return keys
}

// randomBlock draws a block's entries: a random subset of keys, a fifth of
// them tombstones, sorted as a writer wants them. Zero arrives under either
// sign; a block identifies it by one.
func randomBlock(rng *rand.Rand, keys []float64, width int) []refEntry {
	var entries []refEntry
	share := rng.Float64()
	for _, pk := range keys {
		if rng.Float64() > share {
			continue
		}
		if pk == 0 && rng.Intn(2) == 0 {
			pk = math.Copysign(0, -1)
		}
		e := refEntry{pk: math.Float64frombits(block.KeyBits(pk))}
		if rng.Intn(5) != 0 {
			e.row = make([]float64, width)
			for j := range e.row {
				e.row[j] = rng.NormFloat64()
			}
			e.row[0] = e.pk
		}
		entries = append(entries, e)
	}
	return foldReference([][]refEntry{entries}, false)
}

// writeEntries writes entries as a block of d's directory.
func writeEntries(t *testing.T, d *DB, width int, entries []refEntry) *block.Handle {
	t.Helper()
	h, err := d.dur.writeBlock(width, 0, func(add func(float64, []float64) error) error {
		for _, e := range entries {
			if err := add(e.pk, e.row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// Random stacks of 1–12 blocks — ±0, ±Inf and NaN-payload keys, tombstones,
// keys shared across blocks — must merge, at the bottom of a stack and
// above it, to the very file the fold's output makes, and recover to the
// very RIDs.
func TestStreamingMergeMatchesFold(t *testing.T) {
	const width = 3
	rng := rand.New(rand.NewSource(19))
	keys := mergeKeys()
	for round := 0; round < 40; round++ {
		d, err := OpenDurableOptions(t.TempDir(), hermit.LogicalPointers, DurableOptions{DisableAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := d.CreateTable("t", []string{"k", "a", "b"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := durablePaths{d.dur.dir}
		var stack [][]refEntry
		var blocks block.Stack
		for b, n := 0, 1+rng.Intn(12); b < n; b++ {
			entries := randomBlock(rng, keys, width)
			if len(entries) == 0 {
				continue
			}
			stack, blocks = append(stack, entries), append(blocks, writeEntries(t, d, width, entries))
		}
		if len(stack) == 0 {
			d.Close()
			continue
		}
		for _, bottom := range []bool{true, false} {
			want := foldReference(stack, bottom)
			h, err := d.dur.mergeBlocks(blocks, 1, bottom)
			if err != nil {
				t.Fatalf("round %d bottom=%v: %v", round, bottom, err)
			}
			if len(want) == 0 {
				if h != nil {
					t.Fatalf("round %d bottom=%v: a block of %d entries for an empty fold", round, bottom, h.Desc().Count)
				}
				continue
			}
			desc, wantH := h.Desc(), writeEntries(t, d, width, want)
			wantDesc := wantH.Desc()
			got, err := os.ReadFile(p.block(desc.ID))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := os.ReadFile(p.block(wantDesc.ID))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("round %d bottom=%v: %d blocks merged to %d entries in %d bytes, the fold to %d in %d",
					round, bottom, len(stack), desc.Count, len(got), wantDesc.Count, len(ref))
			}
			if desc.Level != 1 || desc.Count != wantDesc.Count || desc.Bytes != wantDesc.Bytes ||
				block.KeyBits(desc.MinKey) != block.KeyBits(wantDesc.MinKey) || block.KeyBits(desc.MaxKey) != block.KeyBits(wantDesc.MaxKey) {
				t.Fatalf("round %d bottom=%v: desc %+v, the fold's %+v", round, bottom, desc, wantDesc)
			}
			h.Close()
			wantH.Close()
		}

		// Recovery of the stack: every key at the RID the fold, inserted in
		// key order, gives it.
		d.dur.mu.Lock()
		d.dur.stacks["t"] = blocks
		d.dur.mu.Unlock()
		if err := d.dur.restorePartition(d.dur.tables["t"], tb); err != nil {
			t.Fatalf("round %d: restore: %v", round, err)
		}
		ref, err := NewDB(hermit.LogicalPointers).CreateTable("t", []string{"k", "a", "b"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range foldReference(stack, true) {
			if _, err := ref.Insert(e.row); err != nil {
				t.Fatal(err)
			}
		}
		type placed struct {
			rid storage.RID
			row [width]float64
		}
		rows := func(tb *Table) map[uint64]placed {
			out := make(map[uint64]placed)
			tb.ScanLive(func(rid storage.RID, row []float64) bool {
				out[block.KeyBits(row[0])] = placed{rid, [width]float64(row)}
				return true
			})
			return out
		}
		got, want := rows(tb), rows(ref)
		if len(got) != len(want) {
			t.Fatalf("round %d: recovered %d rows, the fold has %d", round, len(got), len(want))
		}
		for k, w := range want {
			g, ok := got[k]
			if !ok || g.rid != w.rid {
				t.Fatalf("round %d: key %x recovered at RID %v (found %v), the fold puts it at %v", round, k, g.rid, ok, w.rid)
			}
			for j := range w.row {
				if math.Float64bits(g.row[j]) != math.Float64bits(w.row[j]) {
					t.Fatalf("round %d: key %x recovered as %v, want %v", round, k, g.row, w.row)
				}
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}

// A handle holds its block's descriptor from the epoch that publishes it to
// the epoch that drops it, and no longer: through 50 checkpoint + compaction
// cycles under concurrent cold reads the open descriptors stay at the live
// blocks plus a constant (what the database held before it had any block,
// and a read in flight per reader), and no read sees a handle closed under
// it.
func TestBlockHandleLifetime(t *testing.T) {
	before := openFDs(t)
	d, err := OpenDurableOptions(t.TempDir(), hermit.LogicalPointers,
		DurableOptions{CompactFanIn: 3, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.CreateTable("t", []string{"k", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	const perCycle = 200
	if _, err := d.Insert("t", []float64{-1, -1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	held := openFDs(t) - before - 1 // the log, the directory: whatever is not a block

	stop := make(chan struct{})
	var hi atomic.Int64 // keys below it are flushed
	var failMu sync.Mutex
	var failure error // the first failed read's
	var wg sync.WaitGroup
	const readers = 3
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pk := float64(-1)
				if n := hi.Load(); n > 0 {
					pk = float64(rng.Int63n(n))
				}
				row, found, _, err := d.BlockRead("t", pk)
				if err != nil || !found || row[0] != pk {
					failMu.Lock()
					if failure == nil {
						failure = fmt.Errorf("cold read of flushed key %v: row %v found=%v: %w", pk, row, found, err)
					}
					failMu.Unlock()
					return
				}
			}
		}(r)
	}
	for cycle := 0; cycle < 50; cycle++ {
		for i := 0; i < perCycle; i++ {
			pk := float64(cycle*perCycle + i)
			if _, err := d.Insert("t", []float64{pk, pk}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for {
			merged, err := d.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if !merged {
				break
			}
		}
		hi.Store(int64((cycle + 1) * perCycle))
		// A retired block's descriptor outlives its handle by the page read
		// in flight on it, if there is one: at most one per reader.
		if open, live := openFDs(t)-before, d.StorageStats().Blocks; open > live+held+readers {
			t.Fatalf("cycle %d: %d descriptors open for %d live blocks, %d others and %d readers", cycle, open, live, held, readers)
		}
	}
	close(stop)
	wg.Wait()
	if errors.Is(failure, os.ErrClosed) {
		t.Fatalf("a cold read saw its handle closed: %v", failure)
	}
	if failure != nil {
		t.Fatal(failure)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if open := openFDs(t); open > before {
		t.Fatalf("%d descriptors open after Close, %d before Open", open, before)
	}
}

// loadFlushed builds a durable table of n 4-column rows, all of them in the
// block tier.
func loadFlushed(t testing.TB, n int) *DB {
	t.Helper()
	d, err := OpenDurableOptions(t.TempDir(), hermit.LogicalPointers, DurableOptions{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if _, err := d.CreateTable("t", []string{"k", "a", "b", "c"}, 0); err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 4)
	for i := 0; i < n; i++ {
		row[0], row[1], row[2], row[3] = float64(i), float64(i%97), float64(i)*0.5, 1
		if _, err := d.Insert("t", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return d
}

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// The block tier keeps no rows in memory: reading every key of a 100 000-row
// block back leaves the heap where it was, and what the open block holds —
// footer, index, bloom — is under 2 bytes a row. (A handle that decoded and
// kept its file held 41 bytes a row after this loop.)
func TestBlockTierHoldsNoRows(t *testing.T) {
	const n = 100_000
	d := loadFlushed(t, n)
	before := heapAlloc()
	for i := 0; i < n; i++ {
		row, found, probed, err := d.BlockRead("t", float64(i))
		if err != nil || !found || probed != 1 || row[0] != float64(i) || row[2] != float64(i)*0.5 {
			t.Fatalf("BlockRead(%d) = %v found=%v probed=%d err=%v", i, row, found, probed, err)
		}
	}
	if grown := int64(heapAlloc()) - int64(before); grown > 3*n {
		t.Fatalf("heap grew %d B over %d cold reads: %.1f B/row", grown, n, float64(grown)/n)
	}
	st := d.StorageStats()
	if st.BlockResidentBytes <= 0 || st.BlockResidentBytes > 2*n {
		t.Fatalf("open blocks hold %d B for %d rows: %.2f B/row", st.BlockResidentBytes, n, float64(st.BlockResidentBytes)/n)
	}
	if st.BlockPageReads != n {
		t.Fatalf("%d page reads for %d cold reads", st.BlockPageReads, n)
	}
}

// A warm cold read allocates the row it returns and nothing else.
func TestBlockReadAllocs(t *testing.T) {
	d := loadFlushed(t, 4096)
	i := 0
	allocs := measureAllocs(t, 500, func() {
		i = (i*31 + 17) % 4096
		if row, found, _, err := d.BlockRead("t", float64(i)); err != nil || !found || row[0] != float64(i) {
			t.Fatalf("BlockRead(%d) = %v found=%v err=%v", i, row, found, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("BlockRead allocates %.1f times a read, want the row alone", allocs)
	}
}

// The manifest's block entries are read from disk like the blocks they
// name: one whose entry disagrees with its block's file — here the size,
// resealed under a valid checksum — fails the open rather than reporting the
// wrong figures.
func TestOpenRejectsBlocklistMismatch(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, hermit.LogicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", []string{"k", "v"}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := d.Insert("t", []float64{float64(i), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := durablePaths{dir}.manifest()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img, err := decodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	entry := &img.Blocks["t"][0]
	entry.Bytes++
	if raw, err = encodeManifest(img); err != nil { // resealed under a new CRC
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("block.%016x.blk", entry.ID)
	d, err = OpenDurable(dir, hermit.LogicalPointers)
	if err == nil {
		d.Close()
		t.Fatal("opened a database whose manifest misstates a block's size")
	}
	if !errors.Is(err, block.ErrCorrupt) || !strings.Contains(err.Error(), name) {
		t.Fatalf("open: %v, want block.ErrCorrupt naming %s", err, name)
	}
}
