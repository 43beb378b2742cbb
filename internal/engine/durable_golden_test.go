package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hermit/internal/hermit"
)

// TestDurableDirGolden pins what a deterministic schedule of writes,
// checkpoints and compactions leaves on disk — the sha256 of every file in
// the database directory — and the storage figures it reports, so a change
// to how the durable layer keeps its blocks in memory cannot move a byte of
// what it writes. It also pins the failpoint labels of the three protocols
// the crash suites walk: a checkpoint that keeps its segment, one that
// rotates, and a compaction round.
func TestDurableDirGolden(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurableOptions(dir, hermit.LogicalPointers, DurableOptions{
		DisableAutoCompact: true,
		CompactFanIn:       2,
		WALRotateBytes:     4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cols := []string{"k", "a", "b"}
	if _, err := d.CreateTable("t", cols, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.CreatePartitionedTable("p", cols, 0, 3); err != nil {
		t.Fatal(err)
	}
	for _, def := range []IndexDef{{Kind: "btree", Col: 1}, {Kind: "hermit", Col: 2, Host: 1}} {
		if err := d.CreateIndex("t", def); err != nil {
			t.Fatal(err)
		}
	}

	// The labels of every Checkpoint and Compact call, kept per kind: the
	// first checkpoint that keeps its segment, the first that rotates, and
	// the first compaction round that merges.
	var steps []string
	d.dur.failpoint = func(step string) error {
		steps = append(steps, step)
		return nil
	}
	var plain, rotating, compaction []string
	rng := rand.New(rand.NewSource(37))
	next := 0.0
	for round := 0; round < 6; round++ {
		// Odd rounds write too little to outgrow the segment.
		inserts, deletes := 40, 12
		if round%2 == 1 {
			inserts, deletes = 8, 3
		}
		for _, table := range []string{"t", "p"} {
			for i := 0; i < inserts; i++ {
				a := float64(rng.Intn(1000))
				if _, err := d.Insert(table, []float64{next, a, 2*a + 1}); err != nil {
					t.Fatal(err)
				}
				next++
			}
			for i := 0; i < deletes; i++ {
				if _, err := d.Delete(table, float64(rng.Intn(int(next)))); err != nil {
					t.Fatal(err)
				}
			}
		}
		steps = nil
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		switch {
		case slices.Contains(steps, "after-new-wal"):
			if rotating == nil {
				rotating = steps
			}
		case plain == nil:
			plain = steps
		}
		for {
			steps = nil
			merged, err := d.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if !merged {
				break
			}
			if compaction == nil {
				compaction = steps
			}
		}
	}
	d.dur.failpoint = nil

	wantPlain := []string{
		"begin", "after-wal-sync", "after-swap", "after-block:p#0",
		"after-block:p#1", "after-block:p#2", "after-block:t",
		"after-manifest-tmp", "after-manifest-rename", "after-gc",
	}
	wantRotating := []string{
		"begin", "after-wal-sync", "after-block:p#0", "after-block:p#1",
		"after-block:p#2", "after-block:t", "after-new-wal",
		"after-manifest-tmp", "after-manifest-rename", "after-gc",
	}
	wantCompaction := []string{
		"compact-begin", "compact-after-block",
		"compact-after-manifest-tmp", "compact-after-manifest-rename",
		"compact-after-gc",
	}
	for _, c := range []struct {
		name      string
		got, want []string
	}{
		{"non-rotating checkpoint", plain, wantPlain},
		{"rotating checkpoint", rotating, wantRotating},
		{"compaction round", compaction, wantCompaction},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s labels:\n got %q\nwant %q", c.name, c.got, c.want)
		}
	}

	st := d.StorageStats()
	st.BlockResidentBytes = 0 // what a handle holds in memory is no part of the pin
	want := StorageStats{
		Epoch:              21,
		WALSegment:         15,
		Blocks:             8,
		BlockEntries:       257,
		BlockBytes:         9231,
		MaxLevel:           2,
		Flushes:            6,
		Compactions:        15,
		FlushedBytes:       11472,
		CompactedBytes:     15995,
		WriteAmplification: float64(11472+15995) / 11472,
		VersionsReclaimed:  51,
		VersionBytes:       13088,
	}
	if st != want {
		t.Errorf("storage stats:\n got %+v\nwant %+v", st, want)
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		got = append(got, e.Name()+" "+hex.EncodeToString(sum[:]))
	}
	wantFiles := []string{
		"block.0000000000000015.blk 553a8e3365b336e5fb2a25ec5613365e750327c0bb98d973a11b30065f56a3b7",
		"block.0000000000000017.blk d0076f530368fd2ae87c87c42bfdf99e6046b8faf0fe306cae0c109ddc56d7e8",
		"block.0000000000000019.blk aebfb506ee2202bdc9276f62cb4392d23ae5a4e7c5156fee13ef13f7179f1d32",
		"block.000000000000001f.blk 3f1fab9b96fe667021157dd2d8715400f3e6a8d0a585ae2fc6da773d79d56dec",
		"block.0000000000000022.blk 6c79717a6e2b41393d4531a3bd876857fd56551709d3bd3d3e58d7fe2fa6cdd2",
		"block.0000000000000024.blk e83e668cfa2fe7eb25cd15e4e33dd13791d8b814e9528ada911ba6f8b51fa5a3",
		"block.0000000000000025.blk fe4b27dcf4114a94aad534012a3e20e4a6176887a6beabde0c2f14ad8f55087d",
		"block.0000000000000026.blk 1d681874983f9b5b8bc2dbfa7e0c08d1e36a632805850dfc56d8cdc36becdc8d",
		"manifest.json 76eca627b4720522c12d26c265e2775ec2b9d1b13eed3753a4501753e6c51bee",
		"wal.00000015.log be9063cc66a05e02d23a284a4e50763a2714fc791b47d03a3802a475b81bea5d",
	}
	if !slices.Equal(got, wantFiles) {
		t.Errorf("directory:\n got %s\nwant %s", strings.Join(got, "\n     "), strings.Join(wantFiles, "\n     "))
	}
}
