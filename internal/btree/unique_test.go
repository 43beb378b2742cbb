package btree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hermit/internal/keyorder"
)

// The keys ordinary comparison cannot place, plus the extremes it can.
var (
	nanA    = math.Float64frombits(0x7ff8000000000001)
	nanB    = math.Float64frombits(0x7ff8000000000002)
	negNaN  = math.Float64frombits(0xfff8000000000001)
	negZero = math.Copysign(0, -1)
)

// fuzzKey maps a byte onto the fuzz key space: eight special keys, then
// 248 finite ones — enough distinct keys for an order-4 tree to grow four
// levels.
func fuzzKey(b byte) float64 {
	special := [...]float64{negZero, 0, math.Inf(-1), math.Inf(1), nanA, nanB, negNaN, math.MaxFloat64}
	if int(b) < len(special) {
		return special[b]
	}
	return float64(int(b)-128) / 4
}

// fuzzID maps a byte onto an id: its low five bits, repeated at a byte
// offset its top three bits give, so that ids span every width from one
// byte to eight. A byte below 32 is its own id.
func fuzzID(b byte) uint64 {
	v := uint64(b & 31)
	return v<<(8*uint(b>>5)) | v
}

type kv struct {
	key float64
	id  uint64
}

// sortKV orders entries the way the tree must return them.
func sortKV(es []kv) {
	sort.Slice(es, func(i, j int) bool {
		return cmpEnt(ent{key: es[i].key, id: es[i].id}, ent{key: es[j].key, id: es[j].id}) < 0
	})
}

func scanAll(tr *Tree, lo, hi float64) []kv {
	var got []kv
	tr.Scan(lo, hi, func(k float64, id uint64) bool { got = append(got, kv{k, id}); return true })
	return got
}

func sameKVs(a, b []kv) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if keyorder.Bits(a[i].key) != keyorder.Bits(b[i].key) || a[i].id != b[i].id {
			return false
		}
	}
	return true
}

// FuzzTreeTotalOrder drives three order-4 trees from one op stream against
// oracles keyed by keyorder.Bits: a unique-key tree written with Swap and
// Delete and read with Get, GetAscending, Contains and Scan, a one-key
// tree written with Insert and Delete against a multiset oracle: duplicate
// keys and duplicate entries, whose copies splits part, and a two-key tree
// written with InsertAB and DeleteAB and read with ContainsAB, ScanAB and a
// walk of its leaves against a multiset oracle of (a, b, id) entries. Every
// op is followed by the structural check, which is where a separator that
// no longer bounds its subtree shows, or an append pointer that no longer
// names the last leaf. A last op rebuilds the unique tree with BulkLoad,
// or the two-key tree with BulkLoadAB, from its oracle.
//
// An op is three bytes: the op, a key and an id (fuzzKey, fuzzID). With
// bit 3 of the op byte set the id is instead the rank of the third byte's
// key (keyorder.Rank): 8 bytes, its top bit set for every positive key, so
// a leaf that holds such ids beside fuzzID's, or ranks of keys of both
// signs, has ids of every width from one byte to eight. With bit 4 set the
// op is the two-key tree's and five bytes: the op, a, b, the id and a
// fourth key, or, for a scan, its four bounds (aLo, aHi, bLo, bHi) — both
// keys of an entry drawn from fuzzKey's whole, quarter, ±Inf, ±0 and NaN
// keys. With bit 5 set a one-key op's id is moved 2^44 up, far from the
// frame of a leaf of fuzzID's ids, where it is an exception: made, read,
// split, merged and deleted, on the unique tree's keys and on the tied
// keys of the duplicate one.
func FuzzTreeTotalOrder(f *testing.F) {
	// Ascending load (splits), then ids swapped downwards over every key —
	// separators included — then exact-entry deletes of what was swapped.
	var seed []byte
	for k := byte(8); k < 40; k++ {
		seed = append(seed, 0, k, 200)
	}
	for k := byte(8); k < 40; k++ {
		seed = append(seed, 0, k, 3, 2, k, 3, 1, k, 3)
	}
	f.Add(seed)
	// Every special key through every op, bounds included.
	seed = nil
	for op := byte(0); op < 7; op++ {
		for k := byte(0); k < 8; k++ {
			seed = append(seed, op, k, k+1)
		}
	}
	f.Add(seed)
	f.Add([]byte{0, 4, 1, 0, 5, 2, 0, 6, 3, 5, 2, 3, 5, 4, 4, 5, 6, 5, 6, 0, 0})
	// Delete-heavy: both trees loaded four levels deep and drained from the
	// left, from the right and from the middle out, so leaves and internal
	// nodes merge as first, last and inner children and the root collapses,
	// with the finger walk and a scan between the deletes.
	seed = nil
	const lo, n = 8, 64
	drains := []func(i int) int{
		func(i int) int { return i },
		func(i int) int { return n - 1 - i },
		func(i int) int { return n/2 + (i+1)/2*(1-2*(i%2)) },
	}
	for _, at := range drains {
		for k := byte(lo); k < lo+n; k++ {
			seed = append(seed, 0, k, 7, 3, k, 7)
		}
		for i := 0; i < n; i++ {
			k := byte(lo + at(i))
			seed = append(seed, 1, k, 7, 4, k, 7)
			if i%4 == 0 {
				seed = append(seed, 6, 0, 0, 5, lo, lo+n)
			}
		}
	}
	f.Add(seed)
	// Duplicate entries: each of a few entries inserted six times, so splits
	// part copies of one entry, then every copy deleted, ascending keys first.
	seed = nil
	for r := 0; r < 6; r++ {
		for k := byte(8); k < 20; k++ {
			seed = append(seed, 3, k, k%2)
		}
	}
	for r := 0; r < 7; r++ {
		for k := byte(8); k < 20; k++ {
			seed = append(seed, 4, k, k%2)
		}
		seed = append(seed, 5, 8, 20)
	}
	f.Add(seed)
	// The append path: ascending Swaps through splits, each key read back
	// and the next one probed absent, then ids swapped over the keys of
	// the rightmost leaf.
	seed = nil
	for k := byte(8); k < 80; k++ {
		seed = append(seed, 0, k, k, 2, k, 0, 2, k+1, 0)
	}
	for k := byte(70); k < 80; k++ {
		seed = append(seed, 0, k, 1, 2, k, 0)
	}
	f.Add(seed)
	// The keys that sort past every finite one — MaxFloat64, +Inf and the
	// positive NaNs — appended after a finite run, swapped again, read, and
	// deleted.
	seed = nil
	for k := byte(8); k < 30; k++ {
		seed = append(seed, 0, k, 9)
	}
	for _, k := range []byte{7, 3, 4, 5} {
		seed = append(seed, 2, k, 0, 0, k, 10, 2, k, 0, 0, k, 11, 2, k, 0)
	}
	seed = append(seed, 6, 0, 0, 5, 0, 8)
	for _, k := range []byte{5, 3, 4, 7} {
		seed = append(seed, 1, k, 11, 2, k, 0)
	}
	f.Add(seed)
	// The rightmost leaf drained from its end until it merges left, with
	// appends and reads between, then appended to again.
	seed = nil
	for k := byte(8); k < 60; k++ {
		seed = append(seed, 0, k, 5)
	}
	for k := byte(59); k > 20; k-- {
		seed = append(seed, 1, k, 5, 2, k-1, 0, 2, k+1, 0)
	}
	for k := byte(21); k < 50; k++ {
		seed = append(seed, 0, k, 6, 2, k, 0)
	}
	f.Add(seed)
	// BulkLoad followed by appends, and by a drain of what was appended.
	seed = nil
	for k := byte(8); k < 40; k++ {
		seed = append(seed, 0, k, 3)
	}
	seed = append(seed, 7, 0, 0)
	for k := byte(40); k < 90; k++ {
		seed = append(seed, 0, k, 4, 2, k, 0)
	}
	seed = append(seed, 7, 0, 0, 0, 3, 1, 0, 4, 1)
	for k := byte(89); k > 30; k-- {
		seed = append(seed, 1, k, 4)
	}
	f.Add(seed)

	// Frame transitions in the leaves of both trees: keys on the grid of
	// whole numbers, then one below the leaf's first key (a new kbase), one
	// off the grid (a smaller shift) and one far above (a wider key code),
	// each entry's id then swapped through every width and below the
	// leaf's smallest id; read back, scanned and drained between.
	seed = nil
	for _, k := range []byte{140, 144, 148, 136, 137, 252, 7} {
		seed = append(seed, 0, k, 1, 3, k, 1, 2, k, 0)
	}
	for w := byte(0); w < 8; w++ {
		for _, k := range []byte{140, 137, 7} {
			seed = append(seed, 0, k, w<<5|9, 3, k, w<<5|9, 2, k, 0)
		}
	}
	seed = append(seed, 0, 144, 0, 6, 0, 0, 5, 2, 3)
	for _, k := range []byte{140, 144, 148, 136, 137, 252, 7} {
		seed = append(seed, 1, k, 9, 4, k, 1, 4, k, 233, 5, 2, 3)
	}
	f.Add(seed)

	// Rank ids: many entries of a few keys, their ids the ranks of whole
	// keys, then swapped, inserted and deleted with ranks of quarters and
	// of the special keys; scanned and drained between.
	seed = nil
	for b := byte(128); b < 250; b += 4 {
		seed = append(seed, 3|8, 140+b%3, b, 0|8, b, b)
	}
	for _, b := range []byte{129, 130, 131, 0, 1, 2, 3, 4, 5, 6, 7, 250, 251} {
		seed = append(seed, 3|8, 141, b, 4|8, 140, b, 0|8, b, b, 2, b, 0, 5, 140, 142)
	}
	for b := byte(128); b < 250; b += 2 {
		seed = append(seed, 4|8, 140+b%3, b, 1|8, b, b)
	}
	seed = append(seed, 6, 0, 0, 5, 0, 255)
	f.Add(seed)

	// Two-key entries: a and b over the special and the whole and quarter
	// keys, duplicates of each, then deleted, scanned, walked, bulk-loaded
	// and drained.
	seed = nil
	for _, a := range []byte{0, 1, 2, 3, 4, 6, 7, 136, 140, 141} {
		for _, b := range []byte{1, 2, 4, 5, 140, 144, 139} {
			seed = append(seed, 16|3, a, b, a^b, 0)
		}
	}
	seed = append(seed, 16|3, 140, 144, 9, 0, 16|3, 140, 144, 9, 0, 16|5, 8, 200, 8, 200, 16|6, 0, 0, 0, 0)
	for _, a := range []byte{140, 2, 3, 136} {
		seed = append(seed, 16|4, a, 144, a^144, 0, 16|2, a, 5, a^5, 0, 16|5, 2, 3, 0, 1)
	}
	seed = append(seed, 16|7, 0, 0, 0, 0, 16|3|8, 141, 139, 250, 0, 16|5, 8, 255, 8, 255)
	for _, a := range []byte{0, 1, 2, 3, 4, 6, 7, 136, 140, 141} {
		for _, b := range []byte{139, 144, 140, 5, 4, 2, 1} {
			seed = append(seed, 16|4, a, b, a^b, 0)
		}
	}
	f.Add(seed)

	// Exceptions: an ascending load of near ids, thinned so that each leaf
	// has room for a record, then keys swapped to far ids and back, read,
	// scanned and deleted, appends splitting the leaves that hold them and
	// deletes merging them; in the duplicate tree, tied keys whose entries
	// mix near and far ids, inserted, scanned and deleted through splits
	// and merges.
	seed = nil
	for k := byte(8); k < 48; k++ {
		seed = append(seed, 0, k, k%32, 3, 140+k%3, k%32)
	}
	for k := byte(8); k < 48; k += 4 { // leaves of three: room for a record
		seed = append(seed, 1, k, k%32, 4, 140+k%3, k%32)
	}
	for k := byte(9); k < 48; k += 4 {
		seed = append(seed, 0|32, k, k%32, 2, k, 0, 3|32, 140+k%3, k%32, 2, k+1, 0)
	}
	seed = append(seed, 5, 8, 48, 5, 140, 143, 6, 0, 0)
	for k := byte(10); k < 48; k += 4 {
		seed = append(seed, 0|32, k, 7, 2, k, 0)
	}
	for k := byte(48); k < 64; k++ {
		seed = append(seed, 0|32, k, k%32, 0, k-36, k%32)
	}
	seed = append(seed, 5, 0, 255, 6, 0, 0)
	for k := byte(9); k < 64; k += 2 {
		seed = append(seed, 1|32, k, k%32, 1, k, k%32, 4|32, 140+k%3, k%32, 2, k+1, 0)
	}
	seed = append(seed, 5, 0, 255, 6, 0, 0)
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		uniq, multi, pair := New(4), New(4), NewComposite(4)
		uo := map[uint64]kv{}             // key bits -> entry
		mo := map[uint64]map[uint64]int{} // key bits -> id -> copies
		po := map[[3]uint64]int{}         // (a bits, b bits, id) -> copies
		check := func(what string) {
			t.Helper()
			if err := uniq.checkInvariants(); err != nil {
				t.Fatalf("%s: unique tree: %v", what, err)
			}
			if err := multi.checkInvariants(); err != nil {
				t.Fatalf("%s: duplicate tree: %v", what, err)
			}
			if err := pair.checkInvariants(); err != nil {
				t.Fatalf("%s: two-key tree: %v", what, err)
			}
		}
		for len(data) >= 3 {
			if data[0]&16 != 0 {
				if len(data) < 5 {
					break
				}
				fuzzPairOp(t, pair, po, data[:5])
				data = data[5:]
				check("after two-key op")
				continue
			}
			op, key, id := data[0]%8, fuzzKey(data[1]), fuzzID(data[2])
			if data[0]&8 != 0 {
				id = keyorder.Rank(fuzzKey(data[2]))
			}
			if data[0]&32 != 0 {
				id += 1 << 44
			}
			bits := keyorder.Bits(key)
			switch op {
			case 0:
				want, had := uo[bits]
				old, ok := uniq.Swap(key, id)
				if ok != had || ok && old != want.id {
					t.Fatalf("Swap(%v, %d) = %d, %v; oracle %d, %v", key, id, old, ok, want.id, had)
				}
				uo[bits] = kv{key, id}
			case 1:
				want, had := uo[bits]
				if ok := uniq.Delete(key, id); ok != (had && want.id == id) {
					t.Fatalf("unique Delete(%v, %d) = %v; oracle holds %d, %v", key, id, ok, want.id, had)
				} else if ok {
					delete(uo, bits)
				}
			case 2:
				want, had := uo[bits]
				if got, ok := uniq.Get(key); ok != had || ok && got != want.id {
					t.Fatalf("Get(%v) = %d, %v; oracle %d, %v", key, got, ok, want.id, had)
				}
				if had && !uniq.Contains(key, want.id) {
					t.Fatalf("Contains(%v, %d) lost a swapped entry", key, want.id)
				}
			case 3:
				// Duplicate keys and duplicate entries: every Insert stores
				// a copy, and splits may part the copies of one entry.
				if mo[bits] == nil {
					mo[bits] = map[uint64]int{}
				}
				multi.Insert(key, id)
				mo[bits][id]++
			case 4:
				had := mo[bits][id] > 0
				if ok := multi.Delete(key, id); ok != had {
					t.Fatalf("duplicate Delete(%v, %d) = %v; oracle holds %d copies", key, id, ok, mo[bits][id])
				}
				if had {
					mo[bits][id]--
				}
				if multi.Contains(key, id) != (mo[bits][id] > 0) {
					t.Fatalf("duplicate Contains(%v, %d) after Delete; oracle holds %d copies", key, id, mo[bits][id])
				}
			case 5:
				lo, hi := key, fuzzKey(data[2])
				in := func(k float64) bool { return !keyorder.Less(k, lo) && !keyorder.Less(hi, k) }
				var wantU, wantM []kv
				for _, e := range uo {
					if in(e.key) {
						wantU = append(wantU, e)
					}
				}
				for b, ids := range mo {
					for id, copies := range ids {
						if k := math.Float64frombits(b); in(k) {
							for range copies {
								wantM = append(wantM, kv{k, id})
							}
						}
					}
				}
				sortKV(wantU)
				sortKV(wantM)
				gotU, gotM := scanAll(uniq, lo, hi), scanAll(multi, lo, hi)
				if !sameKVs(gotU, wantU) {
					t.Fatalf("unique Scan(%v, %v) = %v, want %v", lo, hi, gotU, wantU)
				}
				if !sameKVs(gotM, wantM) {
					t.Fatalf("duplicate Scan(%v, %v) = %v, want %v", lo, hi, gotM, wantM)
				}
				if lo == lo && hi == hi {
					for _, e := range append(gotU, gotM...) {
						if e.key != e.key {
							t.Fatalf("Scan(%v, %v) returned a NaN key", lo, hi)
						}
					}
				}
			case 6:
				// Every key in ascending order through one finger, and the
				// full walk, against the oracle.
				var want []kv
				for _, e := range uo {
					want = append(want, e)
				}
				sortKV(want)
				var fg Finger
				for _, e := range want {
					if got, ok := uniq.GetAscending(&fg, e.key); !ok || got != e.id {
						t.Fatalf("GetAscending(%v) = %d, %v; want %d", e.key, got, ok, e.id)
					}
				}
				// nanB is the top of the key space: a legal next probe.
				_, had := uo[keyorder.Bits(nanB)]
				if _, ok := uniq.GetAscending(&fg, nanB); ok != had {
					t.Fatalf("GetAscending(top key): ok=%v, oracle %v", ok, had)
				}
				var got []kv
				uniq.Each(func(k float64, id uint64) bool { got = append(got, kv{k, id}); return true })
				if !sameKVs(got, want) {
					t.Fatalf("Each = %v, want %v", got, want)
				}
			case 7:
				var es []kv
				for _, e := range uo {
					es = append(es, e)
				}
				sortKV(es)
				keys, ids := make([]float64, len(es)), make([]uint64, len(es))
				for i, e := range es {
					keys[i], ids[i] = e.key, e.id
				}
				if err := uniq.BulkLoad(keys, ids); err != nil {
					t.Fatalf("BulkLoad of the oracle: %v", err)
				}
			}
			if uniq.Len() != len(uo) {
				t.Fatalf("unique Len %d, oracle %d", uniq.Len(), len(uo))
			}
			check("after op")
			data = data[3:]
		}
	})
}

// fuzzPairOp applies one five-byte two-key op of FuzzTreeTotalOrder to tr
// and its oracle po, and checks what it reads against po.
func fuzzPairOp(t *testing.T, tr *Tree, po map[[3]uint64]int, op []byte) {
	t.Helper()
	a, b, id := fuzzKey(op[1]), fuzzKey(op[2]), fuzzID(op[3])
	if op[0]&8 != 0 {
		id = keyorder.Rank(fuzzKey(op[3]))
	}
	k := [3]uint64{keyorder.Bits(a), keyorder.Bits(b), id}
	// sorted returns the oracle's entries that pass keep, in the tree's
	// order.
	sorted := func(keep func(a, b float64) bool) []ent {
		var es []ent
		for k, copies := range po {
			if a, b := math.Float64frombits(k[0]), math.Float64frombits(k[1]); keep(a, b) {
				for range copies {
					es = append(es, ent{a, keyorder.Rank(b), k[2]})
				}
			}
		}
		slices.SortFunc(es, cmpEnt)
		return es
	}
	switch op[0] % 8 {
	case 0, 3:
		tr.InsertAB(a, b, id)
		po[k]++
	case 1, 4:
		if ok := tr.DeleteAB(a, b, id); ok != (po[k] > 0) {
			t.Fatalf("DeleteAB(%v, %v, %d) = %v; oracle holds %d copies", a, b, id, ok, po[k])
		} else if ok {
			po[k]--
		}
		fallthrough
	case 2:
		if tr.ContainsAB(a, b, id) != (po[k] > 0) {
			t.Fatalf("ContainsAB(%v, %v, %d); oracle holds %d copies", a, b, id, po[k])
		}
	case 5:
		aLo, aHi, bLo, bHi := a, b, fuzzKey(op[3]), fuzzKey(op[4])
		in := func(k, lo, hi float64) bool { return !keyorder.Less(k, lo) && !keyorder.Less(hi, k) }
		want := sorted(func(a, b float64) bool { return in(a, aLo, aHi) && in(b, bLo, bHi) })
		var got []ent
		tr.ScanAB(aLo, aHi, bLo, bHi, func(a float64, id uint64) bool {
			got = append(got, ent{key: a, id: id})
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("ScanAB(%v, %v, %v, %v) = %d entries, want %d", aLo, aHi, bLo, bHi, len(got), len(want))
		}
		for i := range got {
			if keyorder.Bits(got[i].key) != keyorder.Bits(want[i].key) || got[i].id != want[i].id {
				t.Fatalf("ScanAB(%v, %v, %v, %v) entry %d = %v, want %v", aLo, aHi, bLo, bHi, i, got[i], want[i])
			}
		}
	case 6:
		want := sorted(func(float64, float64) bool { return true })
		got := entsOf(tr)
		if len(got) != len(want) {
			t.Fatalf("walk: %d entries, oracle %d", len(got), len(want))
		}
		for i := range got {
			if cmpEnt(got[i], want[i]) != 0 || keyorder.Bits(got[i].key) != keyorder.Bits(want[i].key) {
				t.Fatalf("walk: entry %d = %v, oracle %v", i, got[i], want[i])
			}
		}
	case 7:
		es := sorted(func(float64, float64) bool { return true })
		as, bs, ids := make([]float64, len(es)), make([]float64, len(es)), make([]uint64, len(es))
		for i, e := range es {
			as[i], bs[i], ids[i] = e.key, keyorder.Unrank(e.s), e.id
		}
		if err := tr.BulkLoadAB(as, bs, ids); err != nil {
			t.Fatalf("BulkLoadAB of the oracle: %v", err)
		}
	}
	n := 0
	for _, copies := range po {
		n += copies
	}
	if tr.Len() != n {
		t.Fatalf("two-key Len %d, oracle %d", tr.Len(), n)
	}
}

// A separator copies an entry's id. Swapping that id in place must leave
// the separator routing exact-entry operations to the entry: before Swap
// rewrote it, Delete(key, newID) with newID below the copied id descended
// left of the separator and reported the entry missing.
func TestSwapKeepsSeparatorsRouting(t *testing.T) {
	tr := New(4)
	const n = 200
	for i := 0; i < n; i++ {
		if _, ok := tr.Swap(float64(i), uint64(1000+i)); ok {
			t.Fatalf("key %d reported present on first Swap", i)
		}
	}
	for i := 0; i < n; i++ {
		if old, ok := tr.Swap(float64(i), uint64(i)); !ok || old != uint64(1000+i) {
			t.Fatalf("Swap(%d) = %d, %v", i, old, ok)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after swapping key %d: %v", i, err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len %d after in-place swaps, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		if !tr.Contains(float64(i), uint64(i)) {
			t.Fatalf("Contains(%d, %d) misrouted", i, i)
		}
		if tr.Delete(float64(i), uint64(1000+i)) {
			t.Fatalf("Delete(%d) removed an id the entry no longer carries", i)
		}
		if !tr.Delete(float64(i), uint64(i)) {
			t.Fatalf("Delete(%d, %d) misrouted", i, i)
		}
		// Re-insert over the stale separator with a yet smaller id.
		if _, ok := tr.Swap(float64(i), 0); ok {
			t.Fatalf("key %d present after delete", i)
		}
		if id, ok := tr.Get(float64(i)); !ok || id != 0 {
			t.Fatalf("Get(%d) = %d, %v after re-insert", i, id, ok)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after re-inserting key %d: %v", i, err)
		}
	}
}

// No Scan with ordinary bounds — infinite ones included — returns a NaN
// key, and each NaN payload is found under itself alone.
func TestScanTotalOrder(t *testing.T) {
	tr := New(4)
	keys := []float64{negNaN, math.Inf(-1), -1, negZero, 2, math.Inf(1), nanA, nanB}
	perm := rand.New(rand.NewSource(1)).Perm(len(keys))
	for _, p := range perm {
		tr.Insert(keys[p], uint64(p))
	}
	for i := 1; i <= 30; i++ {
		tr.Insert(float64(i)/31, 100+uint64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, e := range scanAll(tr, math.Inf(-1), math.Inf(1)) {
		if e.key != e.key {
			t.Fatalf("Scan(-Inf, +Inf) returned NaN key with id %d", e.id)
		}
	}
	if got := scanAll(tr, math.Inf(-1), math.Inf(1)); len(got) != 35 {
		t.Fatalf("Scan(-Inf, +Inf) saw %d entries, want 35", len(got))
	}
	for i, k := range keys {
		got := scanAll(tr, k, k)
		if len(got) != 1 || got[0].id != uint64(i) {
			t.Fatalf("Scan(%v, %v) = %v, want id %d", k, k, got, i)
		}
	}
	if got := scanAll(tr, 0, 0); len(got) != 1 || got[0].id != 3 {
		t.Fatalf("Scan(0, 0) = %v, want the entry stored under -0", got)
	}
	var all []kv
	tr.Each(func(k float64, id uint64) bool { all = append(all, kv{k, id}); return true })
	if len(all) != tr.Len() || all[0].id != 0 || all[len(all)-1].id != 7 {
		t.Fatalf("Each walked %d of %d entries, first id %d, last id %d", len(all), tr.Len(), all[0].id, all[len(all)-1].id)
	}
}

// GetAscending answers exactly what Get answers, present or absent, over a
// run of ascending probes of any density.
func TestGetAscendingMatchesGet(t *testing.T) {
	for _, order := range []int{4, 16, 128} {
		tr := New(order)
		rng := rand.New(rand.NewSource(int64(order)))
		for i := 0; i < 5000; i++ {
			tr.Swap(float64(rng.Intn(20000)), uint64(i))
		}
		for _, step := range []int{1, 3, 50, 1000} {
			var f Finger
			for k := -5; k < 20010; k += 1 + rng.Intn(step) {
				wantID, want := tr.Get(float64(k))
				if id, ok := tr.GetAscending(&f, float64(k)); ok != want || id != wantID {
					t.Fatalf("order %d step %d: GetAscending(%d) = %d, %v; Get = %d, %v", order, step, k, id, ok, wantID, want)
				}
			}
		}
	}
}
