package trstree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
)

// lookupsEqual compares two trees by their visible lookup results across a
// grid of predicates.
func lookupsEqual(t *testing.T, a, b *Tree, lo, hi float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		qlo := lo + rng.Float64()*(hi-lo)
		qhi := qlo + rng.Float64()*(hi-lo)/10
		ra := a.Lookup(qlo, qhi)
		rb := b.Lookup(qlo, qhi)
		if len(ra.Ranges) != len(rb.Ranges) || len(ra.IDs) != len(rb.IDs) {
			t.Fatalf("lookup mismatch for [%v,%v]: %d/%d ranges, %d/%d ids",
				qlo, qhi, len(ra.Ranges), len(rb.Ranges), len(ra.IDs), len(rb.IDs))
		}
		for i := range ra.Ranges {
			if ra.Ranges[i] != rb.Ranges[i] {
				t.Fatalf("range %d differs: %+v vs %+v", i, ra.Ranges[i], rb.Ranges[i])
			}
		}
		sort.Slice(ra.IDs, func(x, y int) bool { return ra.IDs[x] < ra.IDs[y] })
		sort.Slice(rb.IDs, func(x, y int) bool { return rb.IDs[x] < rb.IDs[y] })
		for i := range ra.IDs {
			if ra.IDs[i] != rb.IDs[i] {
				t.Fatalf("id %d differs", i)
			}
		}
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	pairs := genSigmoid(30000, 1000, 0.05, 1)
	orig := mustBuild(t, pairs, DefaultParams())
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lookupsEqual(t, orig, loaded, 0, 1000)
	so, sl := orig.Stats(), loaded.Stats()
	if so.Nodes != sl.Nodes || so.Leaves != sl.Leaves || so.Outliers != sl.Outliers {
		t.Fatalf("stats differ: %+v vs %+v", so, sl)
	}
	if loaded.Params() != orig.Params() {
		t.Fatalf("params differ: %+v vs %+v", loaded.Params(), orig.Params())
	}
}

func TestSnapshotFileRoundtrip(t *testing.T) {
	pairs := genLinear(5000, 500, 0.02, 2)
	orig := mustBuild(t, pairs, DefaultParams())
	path := filepath.Join(t.TempDir(), "trs.snap")
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lookupsEqual(t, orig, loaded, 0, 500)
	// The loaded tree remains fully mutable.
	loaded.Insert(250, 1e9, 424242)
	res := loaded.Lookup(250, 250)
	found := false
	for _, id := range res.IDs {
		if id == 424242 {
			found = true
		}
	}
	if !found {
		t.Fatal("insert after load not visible")
	}
}

func TestSnapshotAfterMutations(t *testing.T) {
	pairs := genLinear(5000, 500, 0, 3)
	tr := mustBuild(t, pairs, DefaultParams())
	for i := 0; i < 500; i++ {
		tr.Insert(float64(i%500), 1e8+float64(i), uint64(90000+i))
	}
	tr.Delete(100, 1e8+100, 90100)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lookupsEqual(t, tr, loaded, 0, 500)
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("TRST"),                        // truncated after magic
		append([]byte("TRST"), 0xFF, 0xFF),    // bad version
		append([]byte("TRST"), 1, 0, 1, 2, 3), // truncated params
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestLoadRejectsTruncatedTree(t *testing.T) {
	pairs := genSigmoid(10000, 1000, 0.02, 4)
	tr := mustBuild(t, pairs, DefaultParams())
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 3} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// Load derives every node's range and edge flags and checks the stored
// ones against them, and holds the parameters, the child counts and the
// leaf counters to what Save writes: a snapshot one bit away from a saved
// one is rejected with ErrBadSnapshot.
func TestLoadRejectsWhatSaveCannotWrite(t *testing.T) {
	save := func(tr *Tree) []byte {
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Offsets: magic 4, version 2, params 37, then the root's flags, lo, hi.
	const root = 43
	split := save(mustBuild(t, genSigmoid(10000, 1000, 0.02, 4), DefaultParams()))
	if split[root]&flagLeaf != 0 {
		t.Fatal("test data must split the root")
	}
	single := save(mustBuild(t, genLinear(2000, 1000, 0, 5), DefaultParams()))
	if single[root]&flagLeaf == 0 {
		t.Fatal("test data must fit one leaf")
	}
	const child0 = root + 17 + 4 // after the root's child count
	cases := []struct {
		name  string
		snap  []byte
		write func(b []byte)
	}{
		{"fanout 1", split, func(b []byte) { binary.LittleEndian.PutUint32(b[6:], 1) }},
		{"child count", split, func(b []byte) { binary.LittleEndian.PutUint32(b[root+17:], 7) }},
		{"child lo one ulp up", split, func(b []byte) {
			lo := math.Float64frombits(binary.LittleEndian.Uint64(b[child0+1:]))
			binary.LittleEndian.PutUint64(b[child0+1:], math.Float64bits(math.Nextafter(lo, math.Inf(1))))
		}},
		{"child hi", split, func(b []byte) { b[child0+9] ^= 1 }},
		{"child without its left edge", split, func(b []byte) { b[child0] &^= flagLeftEdge }},
		{"child with a right edge", split, func(b []byte) { b[child0] |= flagRightEdge }},
		{"unknown flag", split, func(b []byte) { b[child0] |= 8 }},
		{"root without an edge", single, func(b []byte) { b[root] &^= flagRightEdge }},
		{"count beyond 32 bits", single, func(b []byte) { binary.LittleEndian.PutUint64(b[root+17+24:], 1<<32) }},
		{"deleted beyond 32 bits", single, func(b []byte) { binary.LittleEndian.PutUint64(b[root+17+32:], 1<<40) }},
	}
	for _, c := range cases {
		b := append([]byte(nil), c.snap...)
		c.write(b)
		if _, err := Load(bytes.NewReader(b)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: Load returned %v, want ErrBadSnapshot", c.name, err)
		}
	}
	if _, err := Load(bytes.NewReader(append(append([]byte(nil), single...), 0))); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("a byte after the tree: Load returned %v, want ErrBadSnapshot", err)
	}
	for _, snap := range [][]byte{split, single} {
		if _, err := Load(bytes.NewReader(snap)); err != nil {
			t.Fatalf("the saved snapshot itself: %v", err)
		}
	}
}

// Property: save/load roundtrips preserve lookup results for arbitrary
// shapes and parameter combinations.
func TestQuickSnapshotRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		params := DefaultParams()
		params.ErrorBound = []float64{1, 2, 100}[rng.Intn(3)]
		params.NodeFanout = []int{2, 4, 8}[rng.Intn(3)]
		var pairs []Pair
		if seed%2 == 0 {
			pairs = genLinear(2000, 500, rng.Float64()*0.1, seed)
		} else {
			pairs = genSigmoid(2000, 500, rng.Float64()*0.1, seed)
		}
		cp := append([]Pair(nil), pairs...)
		tr, err := Build(cp, 1, 0, params)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			return false
		}
		loaded, err := Load(&buf)
		if err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			lo := rng.Float64() * 500
			hi := lo + rng.Float64()*50
			ra := tr.Lookup(lo, hi)
			rb := loaded.Lookup(lo, hi)
			if len(ra.Ranges) != len(rb.Ranges) || len(ra.IDs) != len(rb.IDs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// FuzzLoad: Load never panics, and every snapshot it accepts — its
// derived node ranges, edge flags, child counts and counter widths all
// checked — saves back to the same bytes and answers lookups. The seeds
// are the trees of the round-trip tests.
func FuzzLoad(f *testing.F) {
	tiny := DefaultParams()
	tiny.MinLeafPairs = 4
	tiny.NodeFanout = 2
	for _, tr := range []*Tree{
		mustBuild(f, genSigmoid(30000, 1000, 0.05, 1), DefaultParams()),
		mustBuild(f, genLinear(5000, 500, 0.02, 2), DefaultParams()),
		mustBuild(f, genSigmoid(300, 1000, 0.1, 3), tiny),
	} {
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("a loaded snapshot of %d B saves to %d B of other bytes", len(data), buf.Len())
		}
		lo, hi := tr.Bounds()
		tr.Lookup(lo, hi)
		tr.Lookup(math.Inf(-1), math.Inf(1))
		tr.Insert((lo+hi)/2, 0, 1)
		tr.Stats()
	})
}
