package block

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openStack writes each entry list as a block of dir, at the given levels,
// and opens them as one stack, oldest first.
func openStack(t *testing.T, dir string, levels []uint32, blocks ...[]entry) Stack {
	t.Helper()
	var s Stack
	for i, entries := range blocks {
		path := filepath.Join(dir, fmt.Sprintf("%d.blk", i))
		desc := writeFile(t, path, 2, entries)
		desc.ID, desc.Level = uint64(i+1), levels[i]
		h, err := Open(path, desc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		s = append(s, h)
	}
	return s
}

// upsert and tombstone are one entry of a two-column block.
func upsert(pk, v float64) entry { return entry{pk: pk, row: []float64{pk, v}} }
func tombstone(pk float64) entry { return entry{pk: pk} }

func TestStackGet(t *testing.T) {
	dir := t.TempDir()
	var wide []entry
	for pk := 100.0; pk <= 1000; pk += 10 {
		wide = append(wide, upsert(pk, 0))
	}
	s := openStack(t, dir, []uint32{1, 0, 0},
		wide,
		[]entry{upsert(1, 1), upsert(2, 1), upsert(3, 1)},
		[]entry{upsert(1, 2), tombstone(2)},
	)
	for _, c := range []struct {
		pk     float64
		v      float64 // the row's second column when found
		found  bool
		probed int
	}{
		{pk: 1, v: 2, found: true, probed: 1},   // the newest upsert wins
		{pk: 2, found: false, probed: 1},        // the newest entry is a tombstone
		{pk: 3, v: 1, found: true, probed: 1},   // outside the newest fence: no probe there
		{pk: 500, v: 0, found: true, probed: 1}, // only the oldest block has it
		{pk: 5000, found: false, probed: 0},     // past every fence
		{pk: -1, found: false, probed: 0},
	} {
		row, found, probed, err := s.Get(c.pk)
		if err != nil || found != c.found || probed != c.probed || found && row[1] != c.v {
			t.Errorf("Get(%v) = %v found=%v probed=%d err=%v, want v=%v found=%v probed=%d",
				c.pk, row, found, probed, err, c.v, c.found, c.probed)
		}
	}
	// A key inside the oldest block's fence that its bloom rules out reads no
	// page either.
	missed := false
	for pk := 101.0; pk < 1000 && !missed; pk++ {
		if int(pk)%10 == 0 || s[0].MaybeContains(pk) {
			continue
		}
		missed = true
		if _, found, probed, err := s.Get(pk); err != nil || found || probed != 0 {
			t.Errorf("Get(%v), a bloom miss: found=%v probed=%d err=%v", pk, found, probed, err)
		}
	}
	if !missed {
		t.Fatal("the bloom let every absent key through")
	}

	// A closed handle fails the read with os.ErrClosed — whether the block
	// was probed before it closed (index and bloom resident) or not.
	fresh := openStack(t, t.TempDir(), []uint32{0}, []entry{upsert(7, 7)})
	for _, st := range []Stack{s, fresh} {
		newest := st[len(st)-1]
		pk := newest.Desc().MinKey
		if err := newest.Close(); err != nil {
			t.Fatal(err)
		}
		if _, _, probed, err := st.Get(pk); !errors.Is(err, os.ErrClosed) || probed != 1 {
			t.Errorf("Get(%v) on a closed block: probed=%d err=%v, want os.ErrClosed", pk, probed, err)
		}
	}
}

func TestStackRuns(t *testing.T) {
	for _, c := range []struct {
		levels  []uint32
		fanIn   int
		start   int
		n       int
		backlog int
	}{
		{levels: nil, fanIn: 2},
		{levels: []uint32{0}, fanIn: 2},
		{levels: []uint32{0, 0, 1, 1, 1, 0, 0, 0, 0}, fanIn: 2, start: 0, n: 2, backlog: 3},
		{levels: []uint32{0, 0, 1, 1, 1, 0, 0, 0, 0}, fanIn: 3, start: 2, n: 3, backlog: 2},
		{levels: []uint32{0, 0, 1, 1, 1, 0, 0, 0, 0}, fanIn: 4, start: 5, n: 4, backlog: 1},
		{levels: []uint32{0, 0, 1, 1, 1, 0, 0, 0, 0}, fanIn: 5},
		{levels: []uint32{2, 1, 0, 0}, fanIn: 2, start: 2, n: 2, backlog: 1},
		{levels: []uint32{1, 1, 1, 1}, fanIn: 2, start: 0, n: 4, backlog: 1}, // a run merges whole
		{levels: []uint32{0, 1, 0, 1, 0}, fanIn: 2},
		{levels: []uint32{3, 3, 2, 2, 2, 2, 1}, fanIn: 2, start: 0, n: 2, backlog: 2},
	} {
		s := make(Stack, len(c.levels))
		for i, l := range c.levels {
			s[i] = &Handle{desc: Desc{ID: uint64(i), Level: l}}
		}
		start, n := s.NextRun(c.fanIn)
		if start != c.start || n != c.n {
			t.Errorf("levels %v fan-in %d: NextRun = s[%d:+%d], want s[%d:+%d]", c.levels, c.fanIn, start, n, c.start, c.n)
		}
		if b := s.Backlog(c.fanIn); b != c.backlog {
			t.Errorf("levels %v fan-in %d: Backlog = %d, want %d", c.levels, c.fanIn, b, c.backlog)
		}
	}
}

func TestStackSummary(t *testing.T) {
	s := Stack{
		{desc: Desc{ID: 1, Level: 2, Count: 10, Bytes: 400}},
		{desc: Desc{ID: 2, Level: 0, Count: 3, Bytes: 120}},
		{desc: Desc{ID: 3, Level: 1, Count: 5, Bytes: 200}},
	}
	sum := s.Summary()
	if sum.Blocks != 3 || sum.Entries != 18 || sum.Bytes != 720 || sum.MaxLevel != 2 || sum.ResidentBytes <= 0 {
		t.Fatalf("summary %+v", sum)
	}
	for i, d := range s.Descs() {
		if d != s[i].desc {
			t.Fatalf("Descs()[%d] = %+v, want %+v", i, d, s[i].desc)
		}
	}
	if (Stack{}).Summary() != (Summary{}) {
		t.Fatal("an empty stack sums to something")
	}
}

// Open holds a file to the manifest's entry for it: a size, count or fence
// other than the file's is corruption, named by the file.
func TestOpenChecksDesc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.blk")
	desc := writeFile(t, path, 2, []entry{upsert(1, 1), upsert(5, 5), tombstone(9)})
	for _, c := range []struct {
		name string
		edit func(*Desc)
	}{
		{"bytes", func(d *Desc) { d.Bytes++ }},
		{"count", func(d *Desc) { d.Count-- }},
		{"min key", func(d *Desc) { d.MinKey = 0 }},
		{"max key", func(d *Desc) { d.MaxKey = 10 }},
	} {
		bad := desc
		c.edit(&bad)
		h, err := Open(path, bad)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: Open = %v, want ErrCorrupt naming %s", c.name, err, path)
		}
		if h != nil {
			h.Close()
		}
	}
	h, err := Open(path, desc)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
}
