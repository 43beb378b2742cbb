package hermit

import (
	"math"
	"testing"

	"hermit/internal/btree"
	"hermit/internal/storage"
	"hermit/internal/trstree"
)

// fuzzValues are the odd values a fuzzed row or probe takes for a byte below
// len(fuzzValues): both zeros, both infinities, NaNs of either sign and two
// payloads, and subnormals. Every other byte b stands for 4·b.
var fuzzValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
}

func fuzzValue(b byte) float64 {
	if int(b) < len(fuzzValues) {
		return fuzzValues[b]
	}
	return 4 * float64(b)
}

// parkedSource holds a reorganization inside its scan, so the writes that
// arrive meanwhile are parked in the TRS-Tree's side buffer, until release
// is closed.
type parkedSource struct {
	inner   trstree.DataSource
	started chan struct{}
	release chan struct{}
}

func (p *parkedSource) ScanMRange(lo, hi float64, fn func(m, n float64, id uint64) bool) error {
	close(p.started)
	<-p.release
	return p.inner.ScanMRange(lo, hi, fn)
}

// oddKeys are the primary keys an insert may take besides the next whole
// one. The ranks of the first three lie below 2^53, where LogicalID swaps
// them with the ids of whole keys; 0.5's is its own id.
var oddKeys = []float64{math.Inf(-1), -math.MaxFloat64, math.Float64frombits(0xfff8000000000003), 0.5}

// hermitModel is FuzzHermit's world: a table (pk, host, target), the host
// B+-tree, the Hermit index on the target, and the rows the oracle knows
// live, by the bits of their primary key.
type hermitModel struct {
	scheme PointerScheme
	table  *storage.Table
	host   *btree.Tree
	idx    *Index
	live   map[uint64]storage.RID
	pks    []float64 // live keys in insertion order, for picking
	next   float64
	parked *parkedSource
	done   chan error
}

// key returns the primary key of a new row: oddKeys[b/2] when there is
// one and no live row has it, and else the next whole key.
func (h *hermitModel) key(b byte) float64 {
	if i := int(b / 2); i < len(oddKeys) {
		if _, taken := h.live[math.Float64bits(oddKeys[i])]; !taken {
			return oddKeys[i]
		}
	}
	pk := h.next
	h.next++
	return pk
}

func (h *hermitModel) id(pk float64, rid storage.RID) uint64 {
	if h.scheme == LogicalPointers {
		return LogicalID(pk)
	}
	return uint64(rid)
}

func (h *hermitModel) insert(t *testing.T, pk, m, n float64) {
	rid, err := h.table.Insert([]float64{pk, n, m})
	if err != nil {
		t.Fatal(err)
	}
	h.host.Insert(n, h.id(pk, rid))
	if h.idx != nil {
		h.idx.Insert(h.id(pk, rid), m, n)
	}
	h.live[math.Float64bits(pk)] = rid
	h.pks = append(h.pks, pk)
}

// pick returns the live key at position b of the live keys, modulo their
// number, and its position; false when the table is empty.
func (h *hermitModel) pick(b byte) (float64, int, bool) {
	if len(h.pks) == 0 {
		return 0, 0, false
	}
	i := int(b) % len(h.pks)
	return h.pks[i], i, true
}

func (h *hermitModel) row(t *testing.T, pk float64) (storage.RID, []float64) {
	rid := h.live[math.Float64bits(pk)]
	row, err := h.table.Get(rid, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rid, row
}

func (h *hermitModel) remove(t *testing.T, b byte) {
	pk, i, ok := h.pick(b)
	if !ok {
		return
	}
	rid, row := h.row(t, pk)
	h.idx.Delete(h.id(pk, rid), row[2], row[1])
	h.host.Delete(row[1], h.id(pk, rid))
	if err := h.table.Delete(rid); err != nil {
		t.Fatal(err)
	}
	delete(h.live, math.Float64bits(pk))
	h.pks = append(h.pks[:i], h.pks[i+1:]...)
}

func (h *hermitModel) updateHost(t *testing.T, b byte, n float64) {
	pk, _, ok := h.pick(b)
	if !ok {
		return
	}
	rid, row := h.row(t, pk)
	if err := h.table.Set(rid, 1, n); err != nil {
		t.Fatal(err)
	}
	h.host.Delete(row[1], h.id(pk, rid))
	h.host.Insert(n, h.id(pk, rid))
	h.idx.Update(h.id(pk, rid), row[2], row[1], n)
}

// park starts a reorganization of first-level subtree i and holds it in
// its scan; writes from now until unpark are parked in the side buffer.
// A tree with no subtree i has nothing to reorganize, and nothing parks.
func (h *hermitModel) park(t *testing.T, i int) {
	if h.parked != nil {
		return
	}
	h.parked = &parkedSource{inner: h.idx.Source(), started: make(chan struct{}), release: make(chan struct{})}
	h.done = make(chan error, 1)
	go func(p *parkedSource) { h.done <- h.idx.Tree().ReorgSubtree(i, p) }(h.parked)
	select {
	case <-h.parked.started:
	case err := <-h.done:
		if err != nil {
			t.Fatal(err)
		}
		h.parked = nil
	}
}

// unpark lets a parked reorganization finish: it scans, installs and
// replays the side buffer.
func (h *hermitModel) unpark(t *testing.T) {
	if h.parked == nil {
		return
	}
	close(h.parked.release)
	if err := <-h.done; err != nil {
		t.Fatal(err)
	}
	h.parked = nil
}

// check asserts the safety property for lo <= target <= hi: the harvest
// holds every live row whose target value lies in the range.
func (h *hermitModel) check(t *testing.T, step int, lo, hi float64) {
	var sc Scratch
	h.idx.Lookup(lo, hi, &sc, false)
	got := make(map[uint64]bool, len(sc.IDs))
	for _, id := range sc.IDs {
		got[id] = true
	}
	for _, pk := range h.pks {
		rid, row := h.row(t, pk)
		if row[2] >= lo && row[2] <= hi && !got[h.id(pk, rid)] {
			t.Fatalf("step %d (%v pointers): [%v, %v] misses row %v", step, h.scheme, lo, hi, row)
		}
	}
}

// FuzzHermit is the paper's one safety property as a fuzz target: a Hermit
// index may return false positives but never a false negative (§5.2) — its
// candidates cover the answer. A program of three-byte instructions runs on
// a table with a host B+-tree and a Hermit index, under either pointer
// scheme: inserts (on the correlation line or off it, odd values among
// them, under whole primary keys and odd ones: oddKeys), deletes,
// host-value updates, reorganizations, and writes parked in the TRS-Tree's
// side buffer while a reorganization is held in its scan. After every instruction a range and a point the instruction names
// are probed, and every live row the oracle holds in them must be among
// the candidates.
func FuzzHermit(f *testing.F) {
	f.Add(false, []byte{0, 100, 0, 0, 120, 3, 1, 5, 0, 2, 7, 4, 3, 0, 0, 0, 90, 9})
	f.Add(true, []byte{4, 1, 0, 0, 100, 2, 0, 2, 200, 1, 3, 0, 2, 9, 250, 5, 0, 0, 3, 0, 0})
	f.Add(false, []byte{4, 0, 0, 0, 3, 7, 0, 4, 1, 2, 0, 5, 1, 9, 0, 5, 0, 0, 0, 250, 11, 3, 1, 0})
	f.Add(true, []byte{0, 2, 3, 0, 255, 255, 4, 2, 0, 2, 1, 2, 0, 6, 0, 1, 0, 0, 5, 0, 0, 3, 2, 0})
	f.Fuzz(func(t *testing.T, logical bool, prog []byte) {
		if len(prog) > 3*200 {
			prog = prog[:3*200]
		}
		h := &hermitModel{table: storage.NewTable(3), host: btree.New(testOrder), live: map[uint64]storage.RID{}}
		if logical {
			h.scheme = LogicalPointers
		}
		// A correlated load with a few off-line rows, so the index starts
		// with models, leaves and outliers to keep right.
		for i := 0; i < 300; i++ {
			m := float64(i*37%1000) + 0.5
			n := 2*m + 100
			if i%13 == 0 {
				n = float64(i * 7 % 3000)
			}
			h.insert(t, h.key(255), m, n)
		}
		params := trstree.DefaultParams()
		params.SampleRate = 0
		idx, err := New(h.table, h.host, Config{TargetCol: 2, HostCol: 1, PKCol: 0, Scheme: h.scheme, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		h.idx = idx
		defer h.unpark(t)
		for step := 0; step+3 <= len(prog); step += 3 {
			op, a, b := prog[step], prog[step+1], prog[step+2]
			switch op % 6 {
			case 0: // insert, on the line unless b says otherwise
				m := fuzzValue(a)
				n := 2*m + 100
				if b%2 == 1 {
					n = fuzzValue(b)
				}
				h.insert(t, h.key(b), m, n)
			case 1:
				h.remove(t, a)
			case 2:
				h.updateHost(t, a, fuzzValue(b))
			case 3: // while parked, these rebuild under the write latch
				reorgAll(t, h.idx.Tree(), h.idx.Source())
				if err := h.idx.Tree().ReorgSubtree(int(a)%8, h.idx.Source()); err != nil {
					t.Fatal(err)
				}
			case 4:
				h.park(t, int(a)%8)
			case 5:
				h.unpark(t)
			}
			lo := fuzzValue(a)
			h.check(t, step, lo, lo+fuzzValue(b))
			if pk, _, ok := h.pick(b); ok {
				_, row := h.row(t, pk)
				h.check(t, step, row[2], row[2])
			}
		}
		h.unpark(t)
		h.check(t, len(prog), math.Inf(-1), math.Inf(1))
	})
}
