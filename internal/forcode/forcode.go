// Package forcode is the frame-of-reference code (Goldstein, Ramakrishnan
// and Shaft, ICDE 1998) that the packed structures share: the B+-tree's
// leaves (internal/btree), the row store's full blocks (internal/storage)
// and the TRS-Tree's outlier arena (internal/trstree).
//
// A frame codes a set of ranks — uint64s in the order of what they stand
// for, such as keyorder.RankBits of a float64, or an id — as small
// integers: a rank r is the code (r − base) >> shift in w bytes,
// little-endian. The frame that holds a set of ranks tightest (Derive) has
// the smallest rank as its base, the trailing zero bits that every rank's
// difference from the first shares as its shift — the grid the ranks lie
// on — and the bytes the largest code needs as its width, 0 to 8; a set of
// one rank costs no bytes. Whole numbers, or any values on a coarse grid,
// share many low zero bits, and values near one another need few bytes
// of code. A structure may set its base below the smallest rank, to leave
// codes free for ranks yet to come; a rank fits a frame (Fits) when it is
// at or above the base, on the grid and its code no wider than w bytes.
//
// Codes are compared, not decoded, where a structure searches: a probe
// rank maps into a frame once (Probe), and a rank interval to the code
// interval that holds exactly its ranks (Span). A code is read with one
// unaligned 8-byte load and a mask (Load, Mask) and written by an 8-byte
// read-modify-write that leaves the bytes past it as they were (Store), so
// an array of codes keeps spare bytes after its last field; where it does
// not, a byte-wise read (LoadTail) reads the last fields.
//
// The functions take and return scalars: every structure keeps its frames
// in fields of its own layout, and every call inlines. A shift is below 64;
// the functions mask it with 63 to say so, which spares the compiler's
// guard for a shift of 64 or more at every code.
package forcode

import (
	"encoding/binary"
	"math/bits"
)

// Mask is the bit mask of a code w bytes wide: 0 at 0 bytes, all ones at
// 8 (a shift by 64 is 0).
func Mask(w uint8) uint64 { return 1<<(8*uint(w)) - 1 }

// Width is the number of bytes code c needs.
func Width(c uint64) uint8 { return uint8((bits.Len64(c) + 7) / 8) }

// Derive returns the grid shift and the width of the tightest frame whose
// base is lo that holds a set of ranks: lo and hi are the smallest and the
// largest, and diff is the OR of every rank's difference from the first —
// r − first or r ⊕ first, which have the same trailing zeros.
func Derive(lo, hi, diff uint64) (shift, w uint8) {
	if diff != 0 {
		shift = uint8(bits.TrailingZeros64(diff))
	}
	return shift, Width((hi - lo) >> shift)
}

// Code is the code of rank r in the frame of the given base and shift; r
// must fit it.
func Code(r, base uint64, shift uint8) uint64 { return (r - base) >> (shift & 63) }

// Rank is the rank that code c stands for in the frame of the given base
// and shift.
func Rank(c, base uint64, shift uint8) uint64 { return base + c<<(shift&63) }

// Fits reports whether rank r has a code in the frame of the given base,
// shift and width.
func Fits(r, base uint64, shift, w uint8) bool {
	d := r - base
	return r >= base && d&(1<<(shift&63)-1) == 0 && d>>(shift&63) <= Mask(w)
}

// Probe maps rank r into the frame of the given base and shift: the ranks
// at or above r are those whose code is at or above c, and exact reports
// whether r is the rank of code c. A rank off the frame's grid lies
// strictly between two codes, so the ranks above it are those from the
// next code up.
func Probe(r, base uint64, shift uint8) (c uint64, exact bool) {
	if r < base {
		return 0, false
	}
	d := r - base
	if c = d >> (shift & 63); d&(1<<(shift&63)-1) != 0 {
		return c + 1, false
	}
	return c, true
}

// Span returns the codes of the frame of the given base and shift whose
// ranks lie in [lo, hi]: those from c to c+span. ok is false when no code
// does, and c and span are then of no use.
func Span(lo, hi, base uint64, shift uint8) (c, span uint64, ok bool) {
	c, _ = Probe(lo, base, shift)
	top := (hi - base) >> (shift & 63)
	return c, top - c, hi >= base && top >= c
}

// Load reads the 8 bytes of buf at o, which may reach past len(buf) into
// its capacity.
func Load(buf []byte, o int) uint64 { return binary.LittleEndian.Uint64(buf[o : o+8]) }

// Store writes code c, which fits mask m, at o: a read-modify-write of 8
// bytes, which may reach past len(buf) into its capacity, that leaves the
// bits outside m as they were.
func Store(buf []byte, o int, c, m uint64) {
	b := buf[o : o+8]
	binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)&^m|c)
}

// LoadTail reads the code w bytes wide at o byte by byte: Load for a field
// fewer than 8 bytes from the end of buf.
func LoadTail(buf []byte, o int, w uint8) uint64 {
	var c uint64
	for i := o + int(w) - 1; i >= o; i-- {
		c = c<<8 | uint64(buf[i])
	}
	return c
}
