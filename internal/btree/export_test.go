package btree

import "hermit/internal/keyorder"

// CheckInvariants exposes the internal structural checker to tests.
func (t *Tree) CheckInvariants() error { return t.checkInvariants() }

// ContainsAB reports whether the exact entry (a, b, id) of a two-key tree
// is present: Contains for the tests of two-key trees.
func (t *Tree) ContainsAB(a, b float64, id uint64) bool {
	return t.contains(t.root, keyorder.Rank(a), ent{a, t.rankB(b), id})
}
