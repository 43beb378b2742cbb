package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
)

// The benchmark makes its own inputs: the paper's Synthetic table
// (colA pk, colB = sigmoid(colC) with 1 % noise, colC uniform, colD
// payload) and a stream of rounds of operations. The system under test
// receives only the generated rows and operations.
//
// The preloaded table is the same for every seed (tableSeed), as the
// loaded dataset of a database benchmark is; -seed drives everything that
// happens to it: which ranges and keys are read, what is inserted, updated
// and deleted, in which order. So index_bytes_per_row and setup_s read the
// same table on every run, and the driver's seed-to-seed spread of the
// byte metrics is what the trace does to the heap, not the 1-2 % by which
// a TRS-Tree's size (leaf outlier slices, counted by capacity) scatters
// from one random table to the next.
//
// colC values sit on a grid of 2^22 quanta over [0, 1000). Every query
// bound is a grid point, so a Fenwick tree over the grid gives the exact
// row count of every range and point query at the moment it runs — an
// oracle that never looks at the system under test (benchmark_test.go
// checks it against a brute-force scan of the rows). A Hermit false
// negative shows up as a count mismatch and fails the op.

const (
	quanta    = 1 << 22
	colSpan   = 1000.0
	quantumC  = colSpan / quanta // a power of two times 1000: k*quantumC is exact
	noiseMax  = 12000.0
	tableSeed = 0x5EED7AB1E
	// writeMargin keeps inserted and updated colC values 5 % of the domain
	// away from its ends, that is inside the range the indexes were built
	// over. At this commit a TRS-Tree lookup misses a value beyond its
	// build-time bounds whenever the edge child of an internal node is
	// itself internal (only leaves carry the edge flags that extend a
	// range to infinity): a Hermit false negative. The benchmark found it
	// on its first run; it may not edit the program, and its workloads must
	// be ones on which no operation fails, so until the tree is fixed it
	// stays off that path. Preloaded rows cover the whole domain.
	writeMargin = quanta / 20
)

var tableCols = []string{"colA", "colB", "colC", "colD"}

const (
	colPK   = 0
	colHost = 1
	colKey  = 2
)

func colC(k int32) float64 { return float64(k) * quantumC }

func sigmoid(c float64) float64 {
	return 10000 / (1 + math.Exp(-(c-colSpan/2)/(colSpan/12)))
}

// mix64 is splitmix64's finaliser: per-key derived values without state.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func unitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// fillRow writes the row of key pk inserted with colC quantum kIns whose
// colC has since been updated to kCur: a pure function of the three. colB
// keeps the value it was inserted with (updates change colC only, as in
// the paper's update experiment), so an updated row becomes an outlier of
// the correlation.
func fillRow(row []float64, pk int64, kIns, kCur int32) {
	h := mix64(tableSeed ^ mix64(uint64(pk)))
	b := sigmoid(colC(kIns))
	if h%100 == 0 {
		b = unitFloat(mix64(h)) * noiseMax
	}
	row[colPK] = float64(pk)
	row[colHost] = b
	row[colKey] = colC(kCur)
	row[3] = unitFloat(mix64(h + 1))
}

// fenwick counts live rows per colC quantum of one stream's domain.
type fenwick []int32

func (f fenwick) add(i int32, d int32) {
	for i++; int(i) < len(f); i += i & -i {
		f[i] += d
	}
}

// prefix returns the count over quanta [0, i).
func (f fenwick) prefix(i int32) int32 {
	var s int32
	for ; i > 0; i -= i & -i {
		s += f[i]
	}
	return s
}

func (f fenwick) count(lo, hi int32) int32 { return f.prefix(hi+1) - f.prefix(lo) }

type opKind uint8

const (
	opRange opKind = iota
	opPoint
	opPKRead
	opColdRead
	opInsert
	opUpdate
	opDelete
	numOpKinds
)

// opNames label spans.
var opNames = [numOpKinds]string{
	opRange: "Range", opPoint: "Point", opPKRead: "PointQuery(pk)", opColdRead: "BlockRead",
	opInsert: "Insert", opUpdate: "Update", opDelete: "Delete",
}

// class groups op kinds into the three latency metrics. Cold reads
// (BlockRead) are a class of their own and feed no end-to-end metric:
// mixed into the point class they would make its median the coin toss
// between two kinds of op with different costs.
type class uint8

const (
	classRange class = iota
	classPoint
	classWrite
	classCold
	numClasses
)

func (k opKind) class() class {
	switch k {
	case opRange:
		return classRange
	case opPoint, opPKRead:
		return classPoint
	case opColdRead:
		return classCold
	}
	return classWrite
}

// op is one compiled operation with its expected outcome.
type op struct {
	kind   opKind
	expect int32 // rows a query returns; 1 for a write or key read that must succeed
	k      int32 // colC quantum: inserted/updated value, or the key read's current value
	kIns   int32 // cold reads: the quantum the row was inserted with
	pk     int64
	lo, hi float64 // query bounds (point: lo == hi)
}

// stream is one driver goroutine's op source and oracle. Streams own
// disjoint colC domains and disjoint keys (pk = local index * streams +
// id), so each stream's expected counts hold whatever the other streams
// are doing at the same moment.
type stream struct {
	id, of int
	rng    *rand.Rand
	kLo    int32 // domain is quanta [kLo, kLo+len(fen)-1)
	domain int32
	width  int32 // range query width in quanta
	qLo    int32 // range queries start in quanta [qLo, qLo+qSpan)
	qSpan  int32
	wLo    int32 // writes draw colC from quanta [wLo, wLo+wSpan)
	wSpan  int32
	cold   int // local indexes below this are never written
	fen    fenwick
	kIns   []int32 // by local index
	kCur   []int32 // -1 = deleted
	live   int
	sched  []opKind // the round's fixed kind sequence
	hasher hash.Hash
}

// newStream preloads rows/of rows into stream id's domain. spare is the
// number of inserts to pre-size the oracle for, so that it does not grow
// (and show up as heap) between the heap baseline and the census.
func newStream(seed uint64, id, of, rows int, coldShare float64, mix roundMix, spare int) *stream {
	domain := int32(quanta / of)
	s := &stream{
		id: id, of: of,
		rng:    rand.New(rand.NewSource(int64(mix64(tableSeed ^ uint64(id+1)<<32)))),
		kLo:    int32(id) * domain,
		domain: domain,
		width:  int32(math.Round(selectivity * quanta)),
		fen:    make(fenwick, domain+1),
		kIns:   make([]int32, rows, rows+spare),
		kCur:   make([]int32, rows, rows+spare),
		live:   rows,
		sched:  schedule(mix),
		hasher: sha256.New(),
	}
	// Cold rows (never written) also own the low end of the colC domain, at
	// the density of the rest. A workload with cold rows ranges over that
	// part only, so what its range queries return, and how many dead row
	// versions they wade through, does not depend on when the concurrent
	// checkpoints and compactions happened to run.
	s.cold = int(coldShare * float64(rows))
	coldQ := int32(coldShare * float64(domain))
	s.qLo, s.qSpan = s.kLo, domain-s.width
	if s.cold > 0 {
		s.qSpan = coldQ - s.width
	}
	s.wLo = max(s.kLo+coldQ, writeMargin)
	s.wSpan = min(s.kLo+domain, quanta-writeMargin) - s.wLo
	for li := 0; li < rows; li++ {
		var k int32
		if li < s.cold {
			k = s.kLo + s.rng.Int31n(coldQ)
		} else {
			k = s.kLo + coldQ + s.rng.Int31n(domain-coldQ)
		}
		s.kIns[li], s.kCur[li] = k, k
		s.fen.add(k-s.kLo, 1)
	}
	s.rng = rand.New(rand.NewSource(int64(mix64(seed ^ uint64(id+1)<<32)))) // the ops are the seed's
	return s
}

func (s *stream) pkOf(li int) int64 { return int64(li)*int64(s.of) + int64(s.id) }

// schedule spreads the round's kinds evenly over the round (largest
// deficit first), so the kinds interleave op by op and host drift inside a
// round hits every kind alike.
func schedule(mix roundMix) []opKind {
	want := [numOpKinds]int{
		opRange: mix.Range, opPoint: mix.Point, opPKRead: mix.PKRead, opColdRead: mix.ColdRead,
		opInsert: mix.Insert, opUpdate: mix.Update, opDelete: mix.Delete,
	}
	total := mix.total()
	out := make([]opKind, 0, total)
	var done [numOpKinds]int
	for i := 1; i <= total; i++ {
		best, bestDef := opKind(0), math.Inf(-1)
		for k := opKind(0); k < numOpKinds; k++ {
			if done[k] == want[k] {
				continue
			}
			if def := float64(want[k])*float64(i)/float64(total) - float64(done[k]); def > bestDef {
				best, bestDef = k, def
			}
		}
		done[best]++
		out = append(out, best)
	}
	return out
}

// liveIndex draws a live, writable local index.
func (s *stream) liveIndex(from int) int {
	for {
		li := from + s.rng.Intn(len(s.kCur)-from)
		if s.kCur[li] >= 0 {
			return li
		}
	}
}

// compile appends one round of ops to dst (reset to length 0), applying
// each write to the oracle so later queries in the round expect it.
func (s *stream) compile(dst []op) []op {
	dst = dst[:0]
	for _, kind := range s.sched {
		o := op{kind: kind, expect: 1}
		switch kind {
		case opRange:
			a := s.qLo - s.kLo + s.rng.Int31n(s.qSpan)
			o.lo, o.hi = colC(s.kLo+a), colC(s.kLo+a+s.width-1)
			o.expect = s.fen.count(a, a+s.width-1)
		case opPoint:
			k := s.kCur[s.liveIndex(0)]
			o.lo, o.hi = colC(k), colC(k)
			o.expect = s.fen.count(k-s.kLo, k-s.kLo)
		case opPKRead:
			li := s.liveIndex(s.cold)
			o.pk, o.k = s.pkOf(li), s.kCur[li]
		case opColdRead:
			li := s.rng.Intn(s.cold)
			o.pk, o.k, o.kIns = s.pkOf(li), s.kCur[li], s.kIns[li]
		case opInsert:
			k := s.wLo + s.rng.Int31n(s.wSpan)
			o.pk, o.k = s.pkOf(len(s.kCur)), k
			s.kIns, s.kCur = append(s.kIns, k), append(s.kCur, k)
			s.fen.add(k-s.kLo, 1)
			s.live++
		case opUpdate:
			li := s.liveIndex(s.cold)
			k := s.wLo + s.rng.Int31n(s.wSpan)
			if k == s.kCur[li] { // a no-op update skips index maintenance; keep every update real
				k = s.wLo + (k-s.wLo+1)%s.wSpan
			}
			o.pk, o.k = s.pkOf(li), k
			s.fen.add(s.kCur[li]-s.kLo, -1)
			s.fen.add(k-s.kLo, 1)
			s.kCur[li] = k
		case opDelete:
			li := s.liveIndex(s.cold)
			o.pk = s.pkOf(li)
			s.fen.add(s.kCur[li]-s.kLo, -1)
			s.kCur[li] = -1
			s.live--
		}
		dst = append(dst, o)
	}
	return dst
}

// hashRows folds the stream's preloaded rows into the trace hash.
func (s *stream) hashRows() {
	var b [4]byte
	for _, k := range s.kIns {
		binary.LittleEndian.PutUint32(b[:], uint32(k))
		s.hasher.Write(b[:])
	}
}

// hashOps folds compiled ops into the trace hash.
func (s *stream) hashOps(ops []op) {
	var b [40]byte
	for i := range ops {
		o := &ops[i]
		b[0] = byte(o.kind)
		binary.LittleEndian.PutUint32(b[4:], uint32(o.expect))
		binary.LittleEndian.PutUint32(b[8:], uint32(o.k))
		binary.LittleEndian.PutUint32(b[12:], uint32(o.kIns))
		binary.LittleEndian.PutUint64(b[16:], uint64(o.pk))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(o.lo))
		binary.LittleEndian.PutUint64(b[32:], math.Float64bits(o.hi))
		s.hasher.Write(b[:])
	}
}

// traceHash is the canonical hash of a workload's inputs: preloaded rows
// plus every op compiled since, over all streams.
func traceHash(streams []*stream) string {
	h := sha256.New()
	for _, s := range streams {
		h.Write(s.hasher.Sum(nil))
	}
	return hex.EncodeToString(h.Sum(nil))
}
