package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hermit/internal/block"
	"hermit/internal/hermit"
	"hermit/internal/keyorder"
	"hermit/internal/storage"
)

// The MVCC model check: seeded random runs of insert / update / delete /
// multi-key Txn / snapshot open and release / version GC against a naive
// oracle that keeps every version of every key in a plain map and reclaims
// as the engine does: every commit takes, from the front of the queue of
// ended versions, at most as many as it ended plus one of those no snapshot
// can reach. After every step the store must hold exactly the versions the
// oracle has not reclaimed, and no version left may link to a freed slot
// (checkChains). At intervals each open snapshot must still resolve exactly
// the oracle's rows through Exec — at the snapshot, under the planner and
// forced onto every access path it offers — ScanLive and — on the odd seeds, where the table flushes
// deltas — DeltaVersions: the harvest up to the snapshot of what was committed
// since the last flush, the delete list supplying the tombstones of the chains
// reclaimed since. Two ops of
// the mix are fixed schedules (in runMVCCModel): reuse puts another key's
// version into a slot a chain used to pass through and reads at the snapshots
// that would walk into it; pinned builds a backlog under a snapshot, releases
// it, and counts the commits that work the backlog off.
//
// Freezing is checked after every step as well (checkVersions), against the
// oracle's horizon — the oldest open snapshot or transaction; what a flush op
// has or has not recorded (it moves the cut the way a checkpoint does) is no
// part of it, but the unflushed bits are checked in the same walk: a slot's is
// set exactly if its version began after the cut, and their count is the
// table's. A slot is frozen only if the oracle has its row as its
// key's live version, begun at or below the horizon. The other way round, a
// version that is live, has nothing behind it and began at or below the
// horizon is frozen, or has been owed that for no more commits than one
// revolution of the sweep's hand takes at one granule per commit — the
// version a commit writes itself it freezes itself, so only a version born
// under a snapshot since released is ever owed anything. With no snapshot
// open, nothing queued and nothing owed, the table holds no header at all.

// modelVer is one version of one key in the oracle.
type modelVer struct {
	begin, end uint64 // end == 0 while live
	row        []float64
	reclaimed  bool
}

func (v *modelVer) visibleAt(ts uint64) bool {
	return v.begin <= ts && (v.end == 0 || ts < v.end)
}

// modelTable is the oracle of one engine table: every version ever
// committed, per key (block.KeyBits, as the engine identifies keys).
type modelTable struct {
	tb   *Table
	vers map[uint64][]*modelVer // oldest first
	// queue holds the ended versions not yet reclaimed, in the order they
	// ended; stored counts the versions not yet reclaimed, ended or live.
	queue  []*modelVer
	stored int
	// horizon returns the oldest timestamp an open snapshot or transaction
	// reads at, the clock when there is none; cut is the last flush cut
	// (MaxUint64: the table flushes nothing). commits counts the engine commits
	// mirrored so far, and owed remembers, for every version the engine
	// could have frozen and has not, its beginTS and the commit count at
	// which that was first seen.
	horizon func() uint64
	cut     uint64
	commits int
	owed    map[storage.RID][2]uint64
}

func newModelTable(tb *Table) *modelTable {
	return &modelTable{tb: tb, vers: make(map[uint64][]*modelVer), cut: math.MaxUint64}
}

// at returns the row of pk visible at ts, or nil.
func (m *modelTable) at(pk float64, ts uint64) []float64 {
	for _, v := range m.vers[block.KeyBits(pk)] {
		if v.visibleAt(ts) {
			return v.row
		}
	}
	return nil
}

// newest returns pk's newest version, or nil.
func (m *modelTable) newest(pk float64) *modelVer {
	vs := m.vers[block.KeyBits(pk)]
	if len(vs) == 0 {
		return nil
	}
	return vs[len(vs)-1]
}

// put commits row (nil: a delete) for its key at ts.
func (m *modelTable) put(pk float64, row []float64, ts uint64) {
	k := block.KeyBits(pk)
	if v := m.newest(pk); v != nil && v.end == 0 {
		v.end = ts
		m.queue = append(m.queue, v)
	}
	if row != nil {
		m.vers[k] = append(m.vers[k], &modelVer{begin: ts, row: append([]float64(nil), row...)})
		m.stored++
	}
}

// rowsAt returns every row visible at ts matching lo <= row[col] <= hi,
// keyed by key bits. The comparison is keyorder's total order, which is <=
// wherever <= is defined and is what lets a NaN key be asked for by name.
func (m *modelTable) rowsAt(ts uint64, col int, lo, hi float64) map[uint64][]float64 {
	out := make(map[uint64][]float64)
	for k, vs := range m.vers {
		for _, v := range vs {
			if v.visibleAt(ts) && !keyorder.Less(v.row[col], lo) && !keyorder.Less(hi, v.row[col]) {
				out[k] = v.row
			}
		}
	}
	return out
}

// reclaim takes up to budget versions ended at or below horizon off the
// front of the queue and returns their number: what a commit (budget: the
// versions it ended, plus one) or a GC call (no budget) must reclaim.
func (m *modelTable) reclaim(horizon uint64, budget int) int {
	n := 0
	for n < budget && n < len(m.queue) && m.queue[n].end <= horizon {
		m.queue[n].reclaimed = true
		n++
	}
	m.queue = m.queue[n:]
	m.stored -= n
	return n
}

// checkStore compares what the store and the queue hold with the oracle.
func (m *modelTable) checkStore(t *testing.T, what string) {
	t.Helper()
	if got := m.tb.store.Len(); got != m.stored {
		t.Fatalf("after %s: the store holds %d versions, the oracle %d", what, got, m.stored)
	}
	if pending := m.tb.VersionStats().Pending; pending != len(m.queue) {
		t.Fatalf("after %s: %d versions queued, the oracle has %d", what, pending, len(m.queue))
	}
	m.checkVersions(t, what)
}

func sameRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkRows fails unless rows are exactly the rows of want.
func (m *modelTable) checkRows(t *testing.T, what string, rows [][]float64, want map[uint64][]float64) {
	t.Helper()
	if len(rows) != len(want) {
		t.Fatalf("%s: %d rows, oracle has %d", what, len(rows), len(want))
	}
	for _, row := range rows {
		if w := want[block.KeyBits(row[m.tb.pkCol])]; !sameRow(row, w) {
			t.Fatalf("%s: returned row %v, oracle has %v", what, row, w)
		}
	}
}

// checkQuery runs the predicate at snap through the planner's choice and
// through every access path Explain reports available, forced by
// Query.Path.
func (m *modelTable) checkQuery(t *testing.T, snap *Snapshot, col int, lo, hi float64) {
	t.Helper()
	want := m.rowsAt(snap.ts, col, lo, hi)
	what := fmt.Sprintf("ts %d col %d [%v, %v]", snap.ts, col, lo, hi)
	rows, _, err := rowsOf(m.tb, Query{Col: col, Lo: lo, Hi: hi, Snap: snap})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	m.checkRows(t, what, rows, want)
	plan, err := m.tb.Explain(col, lo, hi)
	if err != nil {
		t.Fatalf("%s: explain: %v", what, err)
	}
	for _, e := range plan.Candidates {
		if !e.Available {
			continue
		}
		rows, _, err := rowsOf(m.tb, Query{Col: col, Lo: lo, Hi: hi, Snap: snap, Path: e.Path})
		if err != nil {
			t.Fatalf("%s via %v: %v", what, e.Path, err)
		}
		m.checkRows(t, what+" via "+e.Path.String(), rows, want)
	}
}

// checkLive compares Len and ScanLive with the oracle.
func (m *modelTable) checkLive(t *testing.T) {
	t.Helper()
	live := make(map[uint64][]float64)
	for k, vs := range m.vers {
		if v := vs[len(vs)-1]; v.end == 0 {
			live[k] = v.row
		}
	}
	if m.tb.Len() != len(live) {
		t.Fatalf("Len = %d, oracle has %d live rows", m.tb.Len(), len(live))
	}
	var rows [][]float64
	m.tb.ScanLive(func(_ storage.RID, row []float64) bool { rows = append(rows, slices.Clone(row)); return true })
	m.checkRows(t, "ScanLive", rows, live)
}

// checkDelta compares DeltaVersions(ts) with the oracle's changes in the
// window (m.cut, ts]; a snapshot is open at ts or below.
func (m *modelTable) checkDelta(t *testing.T, ts uint64) {
	t.Helper()
	delta := make(map[uint64]*modelVer) // key -> its incarnation as of ts, if it changed in (cut, ts]
	for k, vs := range m.vers {
		i := len(vs) - 1
		for i >= 0 && vs[i].begin > ts {
			i--
		}
		if i < 0 {
			continue
		}
		if v := vs[i]; v.visibleAt(ts) && v.begin > m.cut || !v.visibleAt(ts) && v.end > m.cut {
			delta[k] = v
		}
	}
	n, last := 0, uint64(0)
	err := m.tb.DeltaVersions(ts, func(pk float64, row []float64) error {
		if rank := keyorder.Rank(pk); n > 0 && rank <= last {
			t.Fatalf("DeltaVersions(%d): key %v out of order", ts, pk)
		} else {
			last = rank
		}
		n++
		v := delta[block.KeyBits(pk)]
		if tombstone := row == nil; v == nil || tombstone == v.visibleAt(ts) || (!tombstone && !sameRow(row, v.row)) {
			t.Fatalf("DeltaVersions(%d) since %d: entry %v %v, oracle version %+v", ts, m.cut, pk, row, v)
		}
		delete(delta, block.KeyBits(pk)) // a second entry for the key finds nil
		return nil
	})
	if err != nil || len(delta) != 0 {
		t.Fatalf("DeltaVersions(%d) since %d: %d entries, the oracle has %d more; err %v", ts, m.cut, n, len(delta), err)
	}
}

// checkVersions walks the version table slot by slot. It asserts the reuse
// rule: every stamped header sits on a live row, and its prev, if it has one,
// names a stamped version of the same key — not a slot reclamation freed, and
// not the row an insert has since put there. It asserts the freeze rule both
// ways round (see the top of the file), that a slot's unflushed bit is set
// exactly if a version begun after the flush cut is stamped there, and that the
// table's counts of headers, of late versions and of unflushed bits, and its
// floor under the late ones, are what the walk finds.
func (m *modelTable) checkVersions(t *testing.T, what string) {
	t.Helper()
	tb := m.tb
	horizon := m.horizon()
	tb.mvccMu.RLock()
	defer tb.mvccMu.RUnlock()
	headers, late, floor, unflushed := 0, 0, uint64(math.MaxUint64), 0
	owed := make(map[storage.RID][2]uint64)
	for b, vb := range tb.vers {
		for s := 0; vb != nil && s < storage.BlockRows; s++ {
			rid := storage.MakeRID(uint64(b), uint16(s))
			h := tb.header(rid)
			bit := vb.unflushed != nil && vb.unflushed[s/granuleSlots]>>(s%granuleSlots)&1 != 0
			if bit {
				unflushed++
			}
			if h.beginTS == 0 {
				if bit {
					t.Fatalf("after %s: slot %v holds no version and its unflushed bit is set", what, rid)
				}
				continue
			}
			row, err := tb.store.Get(rid, nil)
			if err != nil {
				t.Fatalf("after %s: version %v is stamped %+v but its row reads %v", what, rid, h, err)
			}
			// The oracle's version in the slot: the one of the row's key that
			// ended when the header says (a frozen or thawed header says begun at 1).
			var v *modelVer
			for _, c := range m.vers[block.KeyBits(row[tb.pkCol])] {
				if c.end == h.endTS && !c.reclaimed {
					v = c
				}
			}
			if v == nil || !sameRow(v.row, row) || (h.beginTS != v.begin && h.beginTS != 1) {
				t.Fatalf("after %s: slot %v holds %v, header %+v; the oracle's version is %+v", what, rid, row, h, v)
			}
			if bit != (v.begin > m.cut) {
				t.Fatalf("after %s, flush cut %d: version %v of key %v began at %d and its unflushed bit is %v", what, m.cut, rid, row[tb.pkCol], v.begin, bit)
			}
			if vb.frozen[s/granuleSlots]>>(s%granuleSlots)&1 != 0 {
				if v.end != 0 || v.begin > horizon {
					t.Fatalf("after %s, horizon %d: slot %v is frozen, row %v; the oracle's version is %+v", what, horizon, rid, row, v)
				}
				if gr := vb.gran[s/granuleSlots]; gr != nil && gr[s%granuleSlots] != (verHeader{}) {
					t.Fatalf("after %s: frozen slot %v keeps the header %+v", what, rid, gr[s%granuleSlots])
				}
				continue
			}
			headers++
			if h.late() {
				late++
				floor = min(floor, h.beginTS)
				if h.beginTS <= horizon {
					since := [2]uint64{h.beginTS, uint64(m.commits)}
					if o, ok := m.owed[rid]; ok && o[0] == h.beginTS {
						since = o
					}
					owed[rid] = since
					if revolution := uint64(len(tb.vers) * blockGranules); uint64(m.commits)-since[1] > revolution {
						t.Fatalf("after %s, horizon %d: version %v %+v could be frozen since commit %d, it is commit %d and a revolution takes %d", what, horizon, rid, h, since[1], m.commits, revolution)
					}
				}
			}
			if h.prev == noRID {
				continue
			}
			prev, err := tb.store.Get(h.prev, nil)
			if err != nil {
				t.Fatalf("version %v of key %v: prev %v is a free slot (%v)", rid, row[tb.pkCol], h.prev, err)
			}
			if block.KeyBits(prev[tb.pkCol]) != block.KeyBits(row[tb.pkCol]) || tb.header(h.prev).beginTS == 0 {
				t.Fatalf("version %v of key %v: prev %v holds key %v, header %+v", rid, row[tb.pkCol], h.prev, prev[tb.pkCol], tb.header(h.prev))
			}
		}
	}
	m.owed = owed
	if headers != tb.headers || int64(late) != tb.late.Load() || (late > 0 && tb.lateFloor > floor) {
		t.Fatalf("after %s: the table counts %d headers, %d late, none below %d; it holds %d, %d, the lowest at %d", what, tb.headers, tb.late.Load(), tb.lateFloor, headers, late, floor)
	}
	if unflushed != tb.unflushed {
		t.Fatalf("after %s: the table counts %d unflushed versions, %d bits are set", what, tb.unflushed, unflushed)
	}
	if horizon == tb.clock.Now() && len(m.queue) == 0 && len(owed) == 0 && headers != 0 {
		t.Fatalf("after %s: no snapshot open, nothing queued, nothing late, and %d headers", what, headers)
	}
}

// modelTxn mirrors one open engine transaction.
type modelTxn struct {
	x      *Txn
	ts     uint64
	writes map[uint64]*txnWrite // key bits -> buffered final state
	keys   map[uint64]float64
}

func (x *modelTxn) effective(m *modelTable, pk float64) []float64 {
	if w := x.writes[block.KeyBits(pk)]; w != nil {
		return w.row
	}
	return m.at(pk, x.ts)
}

func (x *modelTxn) buffer(pk float64, row []float64) {
	x.writes[block.KeyBits(pk)] = &txnWrite{row: row, del: row == nil}
	x.keys[block.KeyBits(pk)] = pk
}

func TestMVCCModel(t *testing.T) {
	seeds, ops := 6, 1500
	if testing.Short() {
		seeds, ops = 2, 600
	}
	for _, scheme := range []hermit.PointerScheme{hermit.PhysicalPointers, hermit.LogicalPointers} {
		for seed := 1; seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", scheme, seed), func(t *testing.T) {
				runMVCCModel(t, scheme, int64(seed), ops)
			})
		}
	}
}

func runMVCCModel(t *testing.T, scheme hermit.PointerScheme, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	db := NewDB(scheme)
	tb, err := db.CreateTable("t", []string{"pk", "host", "target"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := newModelTable(tb)
	var ts uint64                 // the oracle's clock
	tb.trackDeletes = seed%2 == 1 // a table that flushes deltas

	newRow := func(pk float64) []float64 {
		c := float64(rng.Intn(1000))
		host := 2*c + 100
		if rng.Intn(10) == 0 {
			host = float64(rng.Intn(2100)) // an outlier for the TRS-Tree
		}
		return []float64{pk, host, c}
	}
	for i := 100; i < 400; i++ {
		row := newRow(float64(i))
		if _, err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
		ts++
		m.put(row[0], row, ts)
	}
	if tb.trackDeletes {
		// The preload is what the table was restored from.
		tb.flushedTo(ts)
		m.cut = ts
	}
	if _, err := tb.CreateBTreeIndex(1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateHermitIndex(2, 1); err != nil {
		t.Fatal(err)
	}

	// The key pool: fresh keys, preloaded keys, both zeros (one key), a
	// fraction, a negative and the infinities — under logical pointers too,
	// where a secondary index stores hermit.LogicalID(pk) and must get
	// every one of them back. The two NaN payloads are two more keys of the
	// same table; they take the auto-commit write path only (Txn buffers
	// its writes in a float64-keyed map, which cannot hold a NaN).
	keys := []float64{0, math.Copysign(0, -1), 2.5, -7, math.Inf(1), math.Inf(-1)}
	for i := 1; i < 30; i++ {
		keys = append(keys, float64(i), float64(100+i))
	}
	nans := []float64{math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0001)}
	pick := func() float64 { return keys[rng.Intn(len(keys))] }
	pickAny := func() float64 {
		if rng.Intn(8) == 0 {
			return nans[rng.Intn(len(nans))]
		}
		return pick()
	}

	snaps := []*Snapshot{db.Snapshot()} // one stays open to the end
	var open *modelTxn
	horizon := func() uint64 {
		h := ts
		for _, s := range snaps {
			h = min(h, s.ts)
		}
		if open != nil {
			h = min(h, open.ts)
		}
		return h
	}
	m.horizon = horizon
	verify := func() {
		if db.Clock().Now() != ts {
			t.Fatalf("clock at %d, oracle at %d", db.Clock().Now(), ts)
		}
		for _, s := range snaps {
			for _, pk := range keys {
				rids, _, err := rowsOf(tb, Query{Col: 0, Lo: pk, Hi: pk, Snap: s})
				if err != nil {
					t.Fatal(err)
				}
				m.checkRows(t, fmt.Sprintf("ts %d pk %v", s.ts, pk), rids, m.rowsAt(s.ts, 0, pk, pk))
			}
			// A NaN key is a point on the primary index alone: no other
			// path compares by the total order.
			for _, pk := range nans {
				rows, _, err := rowsOf(tb, Query{Col: 0, Lo: pk, Hi: pk, Snap: s, Path: PathPrimary})
				if err != nil {
					t.Fatal(err)
				}
				m.checkRows(t, fmt.Sprintf("ts %d NaN pk %#x", s.ts, math.Float64bits(pk)), rows, m.rowsAt(s.ts, 0, pk, pk))
			}
			m.checkQuery(t, s, 0, 0, 200)
			// Infinite bounds on the key column take in the infinite keys
			// and neither NaN, on every path.
			m.checkQuery(t, s, 0, math.Inf(-1), math.Inf(1))
			m.checkQuery(t, s, 0, math.Inf(-1), 50)
			m.checkQuery(t, s, 0, 50, math.Inf(1))
			for _, col := range []int{1, 2} {
				m.checkQuery(t, s, col, math.Inf(-1), math.Inf(1))
				lo := float64(rng.Intn(1000))
				m.checkQuery(t, s, col, lo, lo+float64(rng.Intn(300)))
				m.checkQuery(t, s, col, lo, lo)
			}
		}
		m.checkLive(t)
		// The harvest of what is unflushed, up to each snapshot — one at or
		// below the last flush cut harvests nothing.
		if tb.trackDeletes {
			for _, s := range snaps {
				m.checkDelta(t, s.ts)
			}
		}
	}
	// committed mirrors the tail of an engine commit that ended the given
	// number of versions, and checks the store after it.
	committed := func(what string, ended int) {
		m.commits++
		m.reclaim(horizon(), ended+1)
		m.checkStore(t, what)
	}
	// flush is what a checkpoint does to the table: under a flush snapshot it
	// harvests the window since the last cut, then publishes the cut.
	flush := func() {
		s := db.Snapshot()
		m.checkDelta(t, s.ts)
		tb.flushedTo(s.ts)
		m.cut = s.ts
		s.Release()
		m.checkStore(t, "flush")
	}
	// The auto-commit writes, each checked against and mirrored into the
	// oracle.
	insert := func(row []float64) {
		_, err := tb.Insert(row)
		if live := m.at(row[0], ts) != nil; live != errors.Is(err, ErrDupKey) || (!live && err != nil) {
			t.Fatalf("insert %v: err=%v, oracle live=%v", row[0], err, live)
		}
		if err == nil {
			ts++
			m.put(row[0], row, ts)
			committed("insert", 0)
		}
	}
	update := func(pk float64, col int, v float64) {
		cur := m.at(pk, ts)
		err := tb.UpdateColumn(pk, col, v)
		if (cur != nil) != (err == nil) {
			t.Fatalf("update %v: err=%v, oracle row %v", pk, err, cur)
		}
		if cur != nil && cur[col] != v {
			row := append([]float64(nil), cur...)
			row[col] = v
			ts++
			m.put(pk, row, ts)
			committed("update", 1)
		}
	}
	del := func(pk float64) {
		found, err := tb.Delete(pk)
		if live := m.at(pk, ts) != nil; err != nil || found != live {
			t.Fatalf("delete %v: found=%v err=%v, oracle live=%v", pk, found, err, live)
		}
		if found {
			ts++
			m.put(pk, nil, ts)
			committed("delete", 1)
		}
	}
	gc := func() {
		h := horizon()
		want := m.reclaim(h, math.MaxInt)
		if got := db.GC(); got != want {
			t.Fatalf("GC at horizon %d reclaimed %d versions, oracle %d", h, got, want)
		}
		m.checkStore(t, "GC")
	}
	// quiesce ends the open transaction and every snapshot, and reclaims what
	// they pinned: the state the fixed schedules start from.
	quiesce := func() {
		if open != nil {
			open.x.Rollback()
			open = nil
		}
		for _, s := range snaps {
			s.Release()
		}
		snaps = snaps[:0]
		gc()
	}
	// reuse is the schedule that tells slot reuse from slot reuse done
	// right: delete(A) → insert(A), the commit that reclaims A's deleted
	// version → a write of another key landing in that version's slot, read
	// at snapshots taken between A's two commits. A's new head was linked to
	// that slot when it was stamped; unless reclaim cut the link, a walk from
	// the head at a snapshot that predates it goes on into the slot's new
	// tenant — and, when that is an updated row's version, down that row's
	// chain to a version the snapshot does see: key A reads another key's row.
	fresh := 1000.0 // keys the random ops never touch
	reuse := func(byUpdate bool) {
		quiesce()
		for tb.store.Deleted() > 0 {
			fresh++
			insert(newRow(fresh)) // and no free slot but the one to come
		}
		a, b := pick(), float64(130+rng.Intn(270)) // b: preloaded, never deleted
		insert(newRow(a))                          // live already, or now
		slot, _ := tb.head(a)
		snaps = append(snaps, db.Snapshot()) // A live: its delete cannot reclaim it at once
		del(a)
		snaps = append(snaps, db.Snapshot()) // A deleted
		update(b, 2, m.at(b, ts)[2]+1)
		snaps = append(snaps, db.Snapshot()) // and B changed since
		snaps[0].Release()
		snaps = snaps[1:]
		insert(newRow(a)) // links to A's deleted version, then reclaims it: that and nothing else
		if n := tb.store.Deleted(); n != 1 {
			t.Fatalf("reuse: %d free slots after reclaiming one version", n)
		}
		if byUpdate {
			update(b, 2, m.at(b, ts)[2]+1)
		} else {
			fresh++
			b = fresh
			insert(newRow(b))
		}
		if rid, _ := tb.head(b); rid != slot {
			t.Fatalf("reuse: key %v's version went to %v, not to the free slot %v", b, rid, slot)
		}
		verify()
	}
	// write is one random auto-commit write.
	write := func() {
		switch rng.Intn(3) {
		case 0:
			insert(newRow(pickAny()))
		case 1:
			update(pickAny(), 1+rng.Intn(2), float64(rng.Intn(1000)))
		default:
			del(pickAny())
		}
	}
	// pinned is pin → churn → release → churn: whatever a run of writes ends
	// under a snapshot stays, and whatever it writes keeps its header; every
	// row the snapshot sees still resolves,
	// and once it is released each commit — here inserts, which end nothing
	// and so reclaim the least a commit does, one version — takes the
	// backlog down until it is gone; after that a write leaves nothing
	// behind it.
	pinned := func() {
		quiesce()
		snaps = append(snaps, db.Snapshot())
		for i := 0; i < 40; i++ {
			write()
		}
		backlog := len(m.queue)
		if backlog == 0 {
			t.Fatal("pinned: 40 writes under a snapshot ended nothing")
		}
		verify()
		snaps[0].Release()
		snaps = snaps[:0]
		for i := 0; len(m.queue) > 0; i++ {
			if i == backlog {
				t.Fatalf("pinned: a backlog of %d versions is not gone after %d commits: %d left", backlog, i, len(m.queue))
			}
			fresh++
			insert(newRow(fresh))
		}
		// What was born under the snapshot froze with the commits since — the
		// rest within a revolution of the hand (checkVersions counts) — and
		// after that no write leaves a version queued or a header behind,
		// whether or not a flush has recorded its row.
		for len(m.owed) > 0 {
			fresh++
			insert(newRow(fresh))
		}
		for i := 0; i < 20; i++ {
			write()
			if len(m.queue) != 0 {
				t.Fatalf("pinned: a write with no snapshot open left %d versions queued", len(m.queue))
			}
			if n := tb.VersionStats().Unfrozen; n != 0 {
				t.Fatalf("pinned: a write with no snapshot open left %d headers", n)
			}
		}
		snaps = append(snaps, db.Snapshot())
		verify()
	}

	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 24:
			insert(newRow(pickAny()))
		case r < 48:
			update(pickAny(), 1+rng.Intn(2), float64(rng.Intn(1000)))
		case r < 64:
			del(pickAny())
		case r < 70: // begin a transaction
			if open == nil {
				open = &modelTxn{x: db.Begin(), ts: ts, writes: map[uint64]*txnWrite{}, keys: map[uint64]float64{}}
			}
		case r < 84: // a write inside the open transaction
			if open == nil {
				continue
			}
			pk := pick()
			cur := open.effective(m, pk)
			switch rng.Intn(3) {
			case 0:
				row := newRow(pk)
				err := open.x.Insert("t", row)
				if (cur != nil) != errors.Is(err, ErrDupKey) || (cur == nil && err != nil) {
					t.Fatalf("txn insert %v: err=%v, oracle row %v", pk, err, cur)
				}
				if err == nil {
					open.buffer(pk, row)
				}
			case 1:
				col, v := 1+rng.Intn(2), float64(rng.Intn(1000))
				if err := open.x.Update("t", pk, col, v); (cur != nil) != (err == nil) {
					t.Fatalf("txn update %v: err=%v, oracle row %v", pk, err, cur)
				}
				if cur != nil {
					row := append([]float64(nil), cur...)
					row[col] = v
					open.buffer(pk, row)
				}
			default:
				found, err := open.x.Delete("t", pk)
				if err != nil || found != (cur != nil) {
					t.Fatalf("txn delete %v: found=%v err=%v, oracle row %v", pk, found, err, cur)
				}
				if found {
					open.buffer(pk, nil)
				}
			}
			got, live, err := open.x.Get("t", pk)
			if want := open.effective(m, pk); err != nil || live != (want != nil) || (live && !sameRow(got, want)) {
				t.Fatalf("txn get %v: %v live=%v err=%v, oracle row %v", pk, got, live, err, want)
			}
		case r < 90: // commit or roll back
			if open == nil {
				continue
			}
			if rng.Intn(5) == 0 {
				open.x.Rollback()
				open = nil
				continue
			}
			conflict := false
			for _, pk := range open.keys {
				if v := m.newest(pk); v != nil && !v.reclaimed && (v.begin > open.ts || v.end > open.ts) {
					conflict = true
				}
			}
			err := open.x.Commit()
			if conflict != errors.Is(err, ErrWriteConflict) || (!conflict && err != nil) {
				t.Fatalf("commit: err=%v, oracle conflict=%v", err, conflict)
			}
			if err == nil && len(open.writes) > 0 {
				ts++
				after := db.Snapshot()
				if after.TS() != ts {
					t.Fatalf("commit at %d, oracle at %d", after.TS(), ts)
				}
				after.Release()
				ended := 0
				for k, w := range open.writes {
					pk := open.keys[k]
					live := m.at(pk, ts-1) != nil
					if live {
						ended++
					}
					if w.row != nil || live {
						m.put(pk, w.row, ts)
					}
				}
				open = nil // its snapshot is released before the commit reclaims
				committed("txn commit", ended)
			}
			open = nil
		case r < 95: // open or release a snapshot, or flush
			if tb.trackDeletes && rng.Intn(4) == 0 {
				flush()
			} else if len(snaps) < 4 && rng.Intn(2) == 0 {
				snaps = append(snaps, db.Snapshot())
			} else if len(snaps) > 1 {
				i := 1 + rng.Intn(len(snaps)-1)
				snaps[i].Release()
				snaps = append(snaps[:i], snaps[i+1:]...)
			}
			m.checkStore(t, "snapshot")
		case r < 97: // GC, then every snapshot must still read its state
			gc()
			verify()
		case r < 98:
			pinned()
		default:
			reuse(r == 99)
		}
	}
	if open != nil {
		open.x.Rollback()
		open = nil
	}
	for _, s := range snaps[1:] {
		s.Release()
	}
	snaps = snaps[:1]
	verify()
	// With the last snapshot gone everything ended is reclaimable, and the
	// latest state survives it.
	snaps[0].Release()
	snaps[0] = db.Snapshot()
	defer snaps[0].Release()
	gc()
	verify()
	if n := db.GC(); n != 0 {
		t.Fatalf("idle GC reclaimed %d versions", n)
	}
}
