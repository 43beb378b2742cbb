// Package keyorder is the one definition of key identity and key order the
// storage tiers share: the B+-trees (internal/btree) route and scan by it,
// and the block tier (internal/block) sorts, fences and hashes by it. Every
// float64 is a legal key, including the values ordinary comparison cannot
// place: +0 and -0 are one key, and every NaN payload is a key of its own.
//
// The order is total: negative NaNs, -Inf, the negative reals, ±0, the
// positive reals, +Inf, positive NaNs. For any two non-NaN keys it agrees
// with <, so a caller that never sees a NaN never pays for it.
package keyorder

import "math"

// Bits normalises a key to the bit pattern that identifies it: -0 collapses
// onto +0. It is the map key for per-key bookkeeping — float64 map keys
// cannot be trusted for that (NaN never equals itself, so a NaN key could
// neither be found, overwritten nor deleted).
func Bits(k float64) uint64 {
	if k == 0 {
		k = 0 // +0 and -0 are one key
	}
	return math.Float64bits(k)
}

// Rank maps a key onto a uint64 whose unsigned order is the total order.
func Rank(k float64) uint64 { return RankBits(Bits(k)) }

// RankBits maps a float64's bit pattern onto a uint64 in the order of the
// reals: negative NaNs, -Inf, the negative reals, -0, +0, the positive
// reals, +Inf, positive NaNs. It is Rank without the collapse of -0 onto
// +0, so it is one to one, and Unrank gives every float64 back bit for bit.
func RankBits(b uint64) uint64 { return b ^ (uint64(int64(b)>>63) | 1<<63) }

// Unrank is the inverse of RankBits, and of Rank up to the sign of zero.
func Unrank(r uint64) float64 {
	if r&(1<<63) != 0 {
		return math.Float64frombits(r &^ (1 << 63))
	}
	return math.Float64frombits(^r)
}

// Compare orders a and b under the total order: -1, 0 or +1. The float
// comparisons decide every pair without a NaN; only then are bits compared.
func Compare(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	return compareRank(a, b)
}

// Less reports whether a sorts before b under the total order.
func Less(a, b float64) bool {
	if a < b {
		return true
	}
	if a >= b {
		return false
	}
	return compareRank(a, b) < 0
}

// compareRank is the slow path of Compare and Less: a NaN is involved.
func compareRank(a, b float64) int {
	ra, rb := Rank(a), Rank(b)
	switch {
	case ra < rb:
		return -1
	case ra > rb:
		return 1
	}
	return 0
}
