package block

import (
	"encoding/binary"
	"math"
	"math/bits"

	"hermit/internal/keyorder"
)

// The bloom filter each block carries so point reads can skip blocks that
// cannot contain a key, without reading a page. The filter is sized at
// bloomBitsPerKey bits per entry and probed with bloomHashes double-hashed
// positions — roughly a 1% false-positive rate — and is serialized between
// the block file's index and its footer; an open Handle keeps it resident.

const (
	// bloomBitsPerKey sizes the filter (bits per distinct key).
	bloomBitsPerKey = 10
	// bloomHashes is the probe count per key (near-optimal for 10 bits/key).
	bloomHashes = 7
)

// bloom is a fixed-size bloom filter over primary-key bit patterns.
type bloom struct {
	bits []byte
}

// bloomBytes is the size of the filter over n keys (never zero, so the
// modulus in probe positions is always valid).
func bloomBytes(n uint64) uint64 {
	return (max(n*bloomBitsPerKey, 64) + 7) / 8
}

// newBloom sizes a filter for n keys.
func newBloom(n int) bloom {
	return bloom{bits: make([]byte, bloomBytes(uint64(n)))}
}

// KeyBits normalises a primary key to the bit pattern used for hashing,
// fences and sorting: -0 collapses onto +0 (the engine treats them as the
// same key). It is the map key for any per-primary-key bookkeeping that
// must agree with the block tier's notion of key identity (see
// keyorder.Bits, the definition the B+-trees share).
func KeyBits(pk float64) uint64 { return keyorder.Bits(pk) }

// splitmix64 is the avalanche mixer used to derive probe positions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// bloomHash is the first of a key's two probe hashes; the second derives
// from it, so it is all a writer keeps per key until the filter can be sized.
func bloomHash(pk float64) uint64 { return splitmix64(KeyBits(pk)) }

// addHash inserts the key whose bloomHash is h1.
func (b bloom) addHash(h1 uint64) {
	h2 := splitmix64(h1) | 1
	m := uint64(len(b.bits)) * 8
	for i := uint64(0); i < bloomHashes; i++ {
		pos, _ := bits.Mul64(h1+i*h2, m)
		b.bits[pos/8] |= 1 << (pos % 8)
	}
}

// maybeContains reports whether pk could be in the set. False positives
// are possible; false negatives are not.
func (b bloom) maybeContains(pk float64) bool {
	h1 := bloomHash(pk)
	h2 := splitmix64(h1) | 1
	m := uint64(len(b.bits)) * 8
	for i := uint64(0); i < bloomHashes; i++ {
		pos, _ := bits.Mul64(h1+i*h2, m)
		if b.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

// appendU32/appendU64/appendF64 are the block writer's little-endian
// encoding helpers.
func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}
