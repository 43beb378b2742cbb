package engine

import (
	"errors"
	"testing"

	"hermit/internal/cm"
	"hermit/internal/hermit"
)

// TestCatalogCoversEveryKind builds one structure of every kind on one
// physical-pointer table — a pre-existing and a new one-key B+-tree, a Hermit
// index, a CM, a composite B+-tree marked new and a composite Hermit index —
// and holds the catalog to its duties: the Fig. 22b memory split, the
// maintenance of every structure on each write, DropIndex's host check and
// IndexOn's precedence.
func TestCatalogCoversEveryKind(t *testing.T) {
	db, tb := newSynthetic(t, hermit.PhysicalPointers, 3000, linearFn, 0.01, 31)
	host := tb.Secondary(1)
	hx, err := tb.CreateHermitIndex(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Buckets this narrow give every distinct (target, host) pair a mapping
	// of its own, so the map's entries count the versions.
	cx, err := tb.CreateCMIndex(2, 1, cm.Config{TargetBucket: 1e-9, HostBucket: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := tb.CreateBTreeIndex(2, true)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := tb.CreateCompositeBTreeIndex(3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	abx, err := tb.CreateCompositeHermitIndex(3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}

	memory := func(existing, fresh uint64) {
		t.Helper()
		if m := tb.Memory(); m.ExistingBytes != existing || m.NewBytes != fresh {
			t.Fatalf("Memory: existing %d B, new %d B; the structures sum to %d and %d", m.ExistingBytes, m.NewBytes, existing, fresh)
		}
	}
	memory(host.SizeBytes(), fresh.SizeBytes()+hx.SizeBytes()+cx.SizeBytes()+ab.SizeBytes()+abx.SizeBytes())

	names := []string{"existing btree", "new btree", "composite btree", "hermit", "composite hermit", "cm"}
	counts := func() []int {
		return []int{host.Len(), fresh.Len(), ab.Len(), hx.Tree().Stats().TuplesGauged,
			abx.Tree().Stats().TuplesGauged, cx.Map().Entries()}
	}
	step := func(what string, delta int, write func() error) {
		t.Helper()
		before := counts()
		if err := write(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for i, n := range counts() {
			if n-before[i] != delta {
				t.Errorf("%s moved the %s by %d entries, want %d", what, names[i], n-before[i], delta)
			}
		}
	}
	step("an insert", 1, func() error {
		_, err := tb.Insert([]float64{3000, linearFn(1234.5), 1234.5, 0.5})
		return err
	})
	// Under a snapshot the superseded version keeps its entries.
	snap := db.Snapshot()
	step("an update under a snapshot", 1, func() error { return tb.UpdateColumn(3000, 2, 1500) })
	snap.Release()
	// The delete reclaims the version it ends and, on its budget, the one
	// the snapshot kept.
	step("a delete", -2, func() error {
		if ok, err := tb.Delete(3000); !ok || err != nil {
			return errors.Join(errors.New("key 3000 not deleted"), err)
		}
		return nil
	})
	if vs := tb.VersionStats(); vs.Pending != 0 {
		t.Fatalf("%d versions left queued", vs.Pending)
	}

	kinds := func(want ...IndexKind) {
		t.Helper()
		for col, k := range want {
			if got := tb.IndexOn(col); got != k {
				t.Fatalf("IndexOn(%d) = %v, want %v", col, got, k)
			}
		}
	}
	drop := func(col int, kind IndexKind, want error) {
		t.Helper()
		if err := tb.DropIndex(col, kind); !errors.Is(err, want) {
			t.Fatalf("DropIndex(%d, %v): %v, want %v", col, kind, err, want)
		}
	}
	kinds(KindPrimary, KindBTree, KindHermit, KindNone)
	drop(1, KindBTree, ErrHostInUse)
	drop(3, KindBTree, ErrNoSuchIndex) // composites are not droppable
	drop(2, KindHermit, nil)
	kinds(KindPrimary, KindBTree, KindCM, KindNone)
	drop(1, KindBTree, ErrHostInUse) // the CM still rides it
	drop(2, KindCM, nil)
	kinds(KindPrimary, KindBTree, KindBTree, KindNone)
	drop(1, KindBTree, nil)
	drop(2, KindBTree, nil)
	kinds(KindPrimary, KindNone, KindNone, KindNone)
	pk, err := tb.CreateBTreeIndex(0, false)
	if err != nil {
		t.Fatal(err)
	}
	kinds(KindBTree)
	memory(pk.SizeBytes(), ab.SizeBytes()+abx.SizeBytes())
}

// TestDropIndexFollowsBoundHost: DropIndex refuses a B+-tree only while an
// index's lookups scan it. A Hermit index bound to the primary index does
// not hold a B+-tree created later on the key column.
func TestDropIndexFollowsBoundHost(t *testing.T) {
	_, tb := newSynthetic(t, hermit.PhysicalPointers, 500, linearFn, 0, 32)
	if _, err := tb.CreateHermitIndex(2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateBTreeIndex(0, true); err != nil {
		t.Fatal(err)
	}
	if err := tb.DropIndex(0, KindBTree); err != nil {
		t.Fatalf("drop of a tree no lookup scans: %v", err)
	}
	rows, st, err := rowsOf(tb, Query{Col: 2, Lo: 100, Hi: 300, Path: PathHermit})
	if err != nil || !sameRows(rows, expected(tb, 2, 100, 300)) {
		t.Fatalf("hermit over the primary index after the drop: %d rows, err %v (path %v)", len(rows), err, st.Path)
	}
}
