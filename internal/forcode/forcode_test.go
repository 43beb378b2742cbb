package forcode

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"

	"hermit/internal/keyorder"
)

// oddValue makes a float64 of the kind k selects from the payload p: whole
// numbers, eighths, any bit pattern, −0, ±Inf, subnormals, wide exponents
// and NaN payloads of both signs.
func oddValue(k byte, p uint64) float64 {
	sign := p >> 63 << 63
	switch k % 8 {
	case 0:
		return float64(int16(p))
	case 1:
		return float64(int16(p)) / 8
	case 2:
		return math.Float64frombits(p)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return math.Inf(1 - 2*int(p&1))
	case 5:
		return math.Float64frombits(sign | p&(1<<52-1)) // subnormal or ±0
	case 6:
		exp := (p >> 52 % 2046) + 1 // any finite exponent
		return math.Float64frombits(sign | exp<<52 | p&(1<<52-1))
	default:
		return math.Float64frombits(sign | 0x7ff<<52 | 1<<51 | p&(1<<51-1)) // a NaN
	}
}

// words cuts b into 9-byte records: a selector byte and a payload.
func words(b []byte) (sel []byte, pay []uint64) {
	for ; len(b) >= 9; b = b[9:] {
		sel, pay = append(sel, b[0]), append(pay, binary.LittleEndian.Uint64(b[1:9]))
	}
	return sel, pay
}

// top is the largest code of the frame of the given base, shift and width
// whose rank does not run past 2^64 − 1.
func top(base uint64, shift, w uint8) uint64 {
	last := (math.MaxUint64 - base) >> shift
	return min(Mask(w), last)
}

// FuzzForCode derives the tightest frame of a set of odd values, with its
// base lowered by a slack, and checks that every value codes, stores, loads
// and decodes back bit for bit; that a probe maps every rank — values,
// points off the grid, below the base or past the mask — to the first code
// at or above it; and that Span's code interval holds exactly the codes
// whose ranks lie in the bounds, against a brute force over every code of a
// frame of at most two bytes and over the codes at the edges of any other.
func FuzzForCode(f *testing.F) {
	rec := func(k byte, p uint64) []byte { return binary.LittleEndian.AppendUint64([]byte{k}, p) }
	cat := func(rs ...[]byte) (b []byte) {
		for _, r := range rs {
			b = append(b, r...)
		}
		return b
	}
	f.Add(cat(rec(0, 3), rec(0, 7), rec(0, 100)), uint8(0), cat(rec(0, 0), rec(0, 1)))
	f.Add(cat(rec(1, 5), rec(1, 0xfffb), rec(3, 0)), uint8(3), cat(rec(1, 9), rec(2, 2), rec(4, 1), rec(3, 5)))
	f.Add(cat(rec(4, 0), rec(4, 1), rec(7, 42), rec(7, 1<<63|7)), uint8(1), cat(rec(3, 1), rec(2, 0)))
	f.Add(cat(rec(5, 1), rec(5, 1<<63|3), rec(3, 0), rec(5, 1<<52-1)), uint8(200), cat(rec(0, 2), rec(1, 4), rec(2, 1)))
	f.Add(cat(rec(6, 0x123456789abcdef), rec(6, 0xfedcba987654321)), uint8(9), cat(rec(4, 3), rec(0, 1), rec(2, 0)))
	f.Add(cat(rec(2, 0x3ff0000000000000)), uint8(255), cat(rec(1, 1), rec(2, 1), rec(0, 0)))
	f.Fuzz(func(t *testing.T, vals []byte, slack uint8, probes []byte) {
		kinds, pays := words(vals)
		if len(kinds) == 0 || len(kinds) > 64 {
			return
		}
		vs := make([]float64, len(kinds))
		rs := make([]uint64, len(kinds))
		for i := range kinds {
			vs[i] = oddValue(kinds[i], pays[i])
			rs[i] = keyorder.RankBits(math.Float64bits(vs[i]))
		}
		lo, hi := rs[0], rs[0]
		var sub, xor uint64
		for _, r := range rs {
			lo, hi, sub, xor = min(lo, r), max(hi, r), sub|(r-rs[0]), xor|(r^rs[0])
		}
		shift, w := Derive(lo, hi, sub)
		if s2, w2 := Derive(lo, hi, xor); s2 != shift || w2 != w {
			t.Fatalf("differences give shift %d width %d, XORs %d and %d", shift, w, s2, w2)
		}
		// Tightest: the ranks leave the grid at any larger shift, and the
		// largest code needs every one of the w bytes.
		if sub != 0 && sub>>shift&1 == 0 || w > 8 || w > 0 && (hi-lo)>>shift <= Mask(w-1) || (hi-lo)>>shift > Mask(w) {
			t.Fatalf("frame shift %d width %d is not the tightest for ranks %x", shift, w, rs)
		}
		// The base may sit below the smallest rank, by up to slack codes.
		k := min(uint64(slack), lo>>shift)
		base := lo - k<<shift
		w = max(w, Width((hi-base)>>shift))

		// Every value codes and decodes back, through an array of codes
		// written by Store and read by Load, and by LoadTail past its end.
		buf := make([]byte, len(rs)*int(w)+8)
		for i, r := range rs {
			if !Fits(r, base, shift, w) {
				t.Fatalf("rank %x of %v does not fit frame base %x shift %d width %d", r, vs[i], base, shift, w)
			}
			if c, exact := Probe(r, base, shift); !exact || c != Code(r, base, shift) {
				t.Fatalf("Probe(%x) = %d, %v; code %d", r, c, exact, Code(r, base, shift))
			}
			Store(buf, i*int(w), Code(r, base, shift), Mask(w))
		}
		tail := buf[:len(rs)*int(w)]
		for i, r := range rs {
			c := Load(buf, i*int(w)) & Mask(w)
			if ct := LoadTail(tail, i*int(w), w); ct != c {
				t.Fatalf("LoadTail of code %d reads %d, Load %d", i, ct, c)
			}
			if got := keyorder.Unrank(Rank(c, base, shift)); Rank(c, base, shift) != r || math.Float64bits(got) != math.Float64bits(vs[i]) {
				t.Fatalf("value %v (%#x) reads back as %v (%#x)", vs[i], math.Float64bits(vs[i]), got, math.Float64bits(got))
			}
		}
		if binary.LittleEndian.Uint64(buf[len(tail):]) != 0 {
			t.Fatal("Store wrote past the last code")
		}

		// Probe ranks: values' ranks and their neighbours, points below the
		// base, past the mask and anywhere.
		sel, pay := words(probes)
		if len(sel) > 16 {
			return
		}
		past := base + (Mask(w)+1)<<shift // wraps when the mask reaches 2^64
		ps := []uint64{base, lo, hi, hi + 1, base - 1, past}
		for i := range sel {
			d := pay[i] % 5
			switch sel[i] % 4 {
			case 0:
				ps = append(ps, rs[int(pay[i]>>8)%len(rs)]+d-2)
			case 1:
				ps = append(ps, base-d-1)
			case 2:
				ps = append(ps, past+d-2)
			default:
				ps = append(ps, pay[i])
			}
		}
		// Codes to check: all of a small frame, the edges of a large one.
		last := top(base, shift, w)
		var codes []uint64
		if last < 1<<16 {
			for c := uint64(0); c <= last; c++ {
				codes = append(codes, c)
			}
		} else {
			codes = append(codes, 0, 1, last-1, last)
			for _, r := range append(ps, rs...) {
				if c, _ := Probe(r, base, shift); r >= base {
					for _, x := range []uint64{c - 1, c, c + 1} {
						if x <= last {
							codes = append(codes, x)
						}
					}
				}
			}
		}
		for _, p := range ps {
			c, exact := Probe(p, base, shift)
			for _, x := range codes {
				if (Rank(x, base, shift) >= p) != (x >= c) {
					t.Fatalf("Probe(%x) = %d in base %x shift %d, but code %d ranks %x", p, c, base, shift, x, Rank(x, base, shift))
				}
				if x == c && exact != (Rank(x, base, shift) == p) {
					t.Fatalf("Probe(%x) = %d, exact %v", p, c, exact)
				}
			}
		}
		for i := range ps {
			qlo, qhi := ps[i], ps[(i+1)%len(ps)]
			c, span, ok := Span(qlo, qhi, base, shift)
			for _, x := range codes {
				r := Rank(x, base, shift)
				if in := qlo <= r && r <= qhi; in != (ok && x-c <= span) {
					t.Fatalf("Span(%x, %x) = %d+%d, %v in base %x shift %d: code %d (rank %x) in bounds %v", qlo, qhi, c, span, ok, base, shift, x, r, in)
				}
			}
		}
	})
}

// Mask and Width agree at every width.
func TestMaskWidth(t *testing.T) {
	for w := uint8(0); w <= 8; w++ {
		m := Mask(w)
		if bits.OnesCount64(m) != 8*int(w) || Width(m) != w || w > 0 && Width(m>>8+1) != w {
			t.Fatalf("width %d: mask %#x, Width(mask) %d", w, m, Width(m))
		}
	}
}
