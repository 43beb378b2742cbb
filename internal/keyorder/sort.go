package keyorder

import (
	"math"
	"runtime"
	"sort"
	"sync"
)

// SortPairs sorts the parallel arrays keys and ids jointly by (key, id):
// keys in the total order, ids ascending within one key. It is the sort in
// front of every bulk load (btree.BulkLoad takes exactly this order). The
// two slices must have one length.
//
// The order is total up to entries that are the same key and the same id,
// so the result does not depend on the algorithm or on scheduling: it is,
// bit for bit (the sign of a zero and every NaN payload kept), what a
// comparison sort by (Rank(key), id) returns. Entries that do tie — one id
// under -0 and under +0 — come out next to each other in either order, as
// they do from an unstable comparison sort.
//
// A large input on more than one processor is sorted as two halves side by
// side and merged from both ends at once.
func SortPairs(keys []float64, ids []uint64) {
	n := len(keys)
	var negZeros []uint64 // ids of the -0 keys: Rank drops the sign
	if n < parallelMin || runtime.GOMAXPROCS(0) < 2 {
		unpackPairs(sortRun(keys, ids, &negZeros), keys, ids)
	} else {
		h := n / 2
		var first []pair
		var firstZeros []uint64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			first = sortRun(keys[:h], ids[:h], &firstZeros)
		}()
		second := sortRun(keys[h:], ids[h:], &negZeros)
		wg.Wait()
		negZeros = append(negZeros, firstZeros...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			mergeFront(first, second, keys[:h], ids[:h])
		}()
		mergeBack(first, second, keys[h:], ids[h:])
		wg.Wait()
	}
	if len(negZeros) > 0 {
		restoreNegZeros(keys, ids, negZeros)
	}
}

// sortRun packs keys and ids into records and returns them sorted by
// (Rank, id). It appends the ids of the -0 keys to negZeros.
func sortRun(keys []float64, ids []uint64, negZeros *[]uint64) []pair {
	recs := make([]pair, len(keys))
	ascending := true // ids already ascending: a stable sort by key alone is the order
	for i, k := range keys {
		recs[i] = pair{Rank(k), ids[i]}
		if k == 0 && math.Signbit(k) {
			*negZeros = append(*negZeros, ids[i])
		}
		if i > 0 && ids[i] < ids[i-1] {
			ascending = false
		}
	}
	words := 2
	if ascending {
		words = 1
	}
	return sortRecords(recs, words)
}

func unpackPairs(recs []pair, keys []float64, ids []uint64) {
	for i, r := range recs {
		keys[i], ids[i] = Unrank(r[0]), r[1]
	}
}

// mergeFront writes the first len(keys) entries of the merge of the sorted
// runs a and b; mergeBack writes the last len(keys). Of two equal records
// a's comes first in both, so the two meet without gap or overlap.
func mergeFront(a, b []pair, keys []float64, ids []uint64) {
	for i := range keys {
		var r pair
		if len(b) == 0 || (len(a) > 0 && !less(b[0], a[0], 2)) {
			r, a = a[0], a[1:]
		} else {
			r, b = b[0], b[1:]
		}
		keys[i], ids[i] = Unrank(r[0]), r[1]
	}
}

func mergeBack(a, b []pair, keys []float64, ids []uint64) {
	for i := len(keys) - 1; i >= 0; i-- {
		var r pair
		if la, lb := len(a)-1, len(b)-1; lb < 0 || (la >= 0 && less(b[lb], a[la], 2)) {
			r, a = a[la], a[:la]
		} else {
			r, b = b[lb], b[:lb]
		}
		keys[i], ids[i] = Unrank(r[0]), r[1]
	}
}

// restoreNegZeros gives the sign back to the zeros that had one: in the
// sorted arrays the zeros are one run in id order, and negZeros names the
// ids (with multiplicity) that came in under -0.
func restoreNegZeros(keys []float64, ids, negZeros []uint64) {
	sort.Slice(negZeros, func(i, j int) bool { return negZeros[i] < negZeros[j] })
	zero := Rank(0)
	i := sort.Search(len(keys), func(i int) bool { return Rank(keys[i]) >= zero })
	for _, id := range negZeros {
		for ids[i] != id {
			i++
		}
		keys[i] = math.Copysign(0, -1)
		i++
	}
}

// SortTriples sorts the parallel arrays as, bs and ids jointly by
// (a, b, id), both keys in the total order: the order the composite bulk
// load takes. The result is as unique as SortPairs'.
func SortTriples(as, bs []float64, ids []uint64) {
	const aNegZero, bNegZero = 1, 2 // Rank drops a zero's sign; the spare word keeps it
	recs := make([]triple, len(as))
	ascending := true
	for i, a := range as {
		var signs uint64
		if a == 0 && math.Signbit(a) {
			signs |= aNegZero
		}
		if b := bs[i]; b == 0 && math.Signbit(b) {
			signs |= bNegZero
		}
		recs[i] = triple{Rank(a), Rank(bs[i]), ids[i], signs}
		if i > 0 && ids[i] < ids[i-1] {
			ascending = false
		}
	}
	words := 3
	if ascending {
		words = 2
	}
	negZero := math.Copysign(0, -1)
	for i, r := range sortRecords(recs, words) {
		as[i], bs[i], ids[i] = Unrank(r[0]), Unrank(r[1]), r[2]
		if r[3]&aNegZero != 0 {
			as[i] = negZero
		}
		if r[3]&bNegZero != 0 {
			bs[i] = negZero
		}
	}
}

// pair is SortPairs' record: the key's rank, then the id.
type pair [2]uint64

// triple is SortTriples' record: both keys' ranks, the id, and a payload
// word the sort never reads.
type triple [4]uint64

type record interface{ pair | triple }

const (
	// insertionMax is the length up to which an insertion sort beats
	// zeroing and summing the radix passes' histograms.
	insertionMax = 48
	// parallelMin is the length from which SortPairs sorts two halves on
	// two goroutines: below it starting and joining them costs more than
	// the second core returns.
	parallelMin = 1 << 16
)

// sortRecords sorts recs by their first words words, most significant
// first, and returns the sorted records: recs itself or a scratch of the
// same length. The sort is stable.
func sortRecords[R record](recs []R, words int) []R {
	if len(recs) <= insertionMax {
		insertionSort(recs, words)
		return recs
	}
	return radixSort(recs, make([]R, len(recs)), words)
}

func insertionSort[R record](recs []R, words int) {
	for i := 1; i < len(recs); i++ {
		r := recs[i]
		j := i
		for ; j > 0 && less(r, recs[j-1], words); j-- {
			recs[j] = recs[j-1]
		}
		recs[j] = r
	}
}

func less[R record](a, b R, words int) bool {
	for w := 0; w < words; w++ {
		if a[w] != b[w] {
			return a[w] < b[w]
		}
	}
	return false
}

// radixSort is a least-significant-digit radix sort of src by its first
// words words, digitBits bits per pass, ping-ponging between src and tmp. A
// digit that is the same in every record costs no pass. It returns
// whichever of the two slices holds the result. The counters are 32 bits
// wide, so src must hold fewer than 2^32 records (64 GiB of pairs).
func radixSort[R record](src, tmp []R, words int) []R {
	if len(src) == 0 {
		return src
	}
	hist := make([][digitsPerWord][1 << digitBits]uint32, words)
	for i := range src {
		for w := 0; w < words; w++ {
			v, h := src[i][w], &hist[w]
			h[0][v&digitMask]++
			h[1][v>>digitBits&digitMask]++
			h[2][v>>(2*digitBits)&digitMask]++
			h[3][v>>(3*digitBits)&digitMask]++
			h[4][v>>(4*digitBits)&digitMask]++
			h[5][v>>(5*digitBits)&digitMask]++
		}
	}
	for w := words - 1; w >= 0; w-- {
		for d := 0; d < digitsPerWord; d++ {
			count, shift := &hist[w][d], uint(d)*digitBits
			if int(count[src[0][w]>>shift&digitMask]) == len(src) {
				continue
			}
			var next [1 << digitBits]uint32
			sum := uint32(0)
			for v, c := range count {
				next[v] = sum
				sum += c
			}
			for i := range src {
				v := src[i][w] >> shift & digitMask
				tmp[next[v]] = src[i]
				next[v]++
			}
			src, tmp = tmp, src
		}
	}
	return src
}

// A word is sorted in six passes of eleven bits: fewer passes over memory
// than bytes take, with counters that still fit the nearest cache.
const (
	digitBits     = 11
	digitsPerWord = 6
	digitMask     = 1<<digitBits - 1
)
