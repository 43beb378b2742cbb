// Package cm implements Correlation Maps (Kimura et al., VLDB 2009), the
// bucket-based correlated-access baseline the paper compares Hermit against
// in Appendix E (Figs. 27–30).
//
// A Correlation Map partitions the target column M and host column N into
// fixed-width value buckets and stores, for each target bucket, the set of
// host buckets that contain at least one co-occurring tuple. A lookup on M
// expands the predicate to whole target buckets, collects the mapped host
// buckets, converts them to host value ranges, and resolves those ranges
// against the host index. As for Hermit (internal/hermit), that is a
// harvest of candidates that reads no row: the base-table visit that drops
// the false positives is the engine's one base-table pass.
//
// Faithful to the original design (and to the paper's critique of it), CM
// has no outlier handling: a noisy tuple simply adds its bucket mapping, so
// sparse noise inflates the number of mapped host buckets and drags down
// lookup throughput, while Hermit isolates the same tuples in its outlier
// buffers.
package cm

import (
	"errors"
	"math"
	"sort"

	"hermit/internal/btree"
	"hermit/internal/storage"
)

// Config sizes the buckets. Bucket sizes are in value units of the
// respective column, matching the CM-X / host-bucket-size sweeps of
// Figs. 27–30.
type Config struct {
	// TargetBucket is the value width of each bucket on the target column.
	TargetBucket float64
	// HostBucket is the value width of each bucket on the host column.
	HostBucket float64
	// TargetCol and HostCol identify the columns in the base table.
	TargetCol, HostCol int
}

// ErrBadBuckets is returned for non-positive bucket widths.
var ErrBadBuckets = errors.New("cm: bucket widths must be positive")

// Map is the core bucket-mapping structure.
type Map struct {
	cfg Config
	// buckets maps target bucket id -> host bucket id -> tuple count.
	// Counts support deletes without rescanning the table.
	buckets map[int64]map[int64]int
	entries int // total (targetBucket, hostBucket) mappings
	tuples  int
}

// NewMap creates an empty Correlation Map.
func NewMap(cfg Config) (*Map, error) {
	if cfg.TargetBucket <= 0 || cfg.HostBucket <= 0 {
		return nil, ErrBadBuckets
	}
	return &Map{cfg: cfg, buckets: make(map[int64]map[int64]int)}, nil
}

func bucketOf(v, width float64) int64 {
	return int64(math.Floor(v / width))
}

// Add records a tuple's (m, n) co-occurrence.
func (c *Map) Add(m, n float64) {
	tb := bucketOf(m, c.cfg.TargetBucket)
	hb := bucketOf(n, c.cfg.HostBucket)
	inner, ok := c.buckets[tb]
	if !ok {
		inner = make(map[int64]int)
		c.buckets[tb] = inner
	}
	if inner[hb] == 0 {
		c.entries++
	}
	inner[hb]++
	c.tuples++
}

// Remove drops one tuple's co-occurrence. It reports whether the mapping
// existed.
func (c *Map) Remove(m, n float64) bool {
	tb := bucketOf(m, c.cfg.TargetBucket)
	hb := bucketOf(n, c.cfg.HostBucket)
	inner, ok := c.buckets[tb]
	if !ok || inner[hb] == 0 {
		return false
	}
	inner[hb]--
	c.tuples--
	if inner[hb] == 0 {
		delete(inner, hb)
		c.entries--
		if len(inner) == 0 {
			delete(c.buckets, tb)
		}
	}
	return true
}

// Entries returns the number of distinct (target bucket, host bucket)
// mappings — the quantity that grows with noise and shrinks with bucket
// width.
func (c *Map) Entries() int { return c.entries }

// Range is a closed host-column interval.
type Range struct{ Lo, Hi float64 }

// Lookup returns the host value ranges that may contain tuples whose target
// value lies in [lo, hi]. Adjacent host buckets are merged.
func (c *Map) Lookup(lo, hi float64) []Range {
	if lo > hi {
		return nil
	}
	tbLo := bucketOf(lo, c.cfg.TargetBucket)
	tbHi := bucketOf(hi, c.cfg.TargetBucket)
	hostSet := make(map[int64]struct{})
	for tb := tbLo; tb <= tbHi; tb++ {
		for hb := range c.buckets[tb] {
			hostSet[hb] = struct{}{}
		}
	}
	if len(hostSet) == 0 {
		return nil
	}
	ids := make([]int64, 0, len(hostSet))
	for hb := range hostSet {
		ids = append(ids, hb)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	var out []Range
	w := c.cfg.HostBucket
	start, end := ids[0], ids[0]
	flush := func() {
		out = append(out, Range{Lo: float64(start) * w, Hi: float64(end+1) * w})
	}
	for _, hb := range ids[1:] {
		if hb == end+1 {
			end = hb
			continue
		}
		flush()
		start, end = hb, hb
	}
	flush()
	return out
}

// SizeBytes estimates the heap footprint: inner-map buckets at ~48 bytes
// per entry (key, count, bucket overhead) plus outer-map entries.
func (c *Map) SizeBytes() uint64 {
	var s uint64
	for _, inner := range c.buckets {
		s += 48 // outer entry + map header
		s += uint64(len(inner)) * 48
	}
	return s
}

// Index wraps a Map with the same harvest Hermit runs — buckets, then host
// index — so the comparison in Figs. 27–30 measures the structures, not the
// plumbing. Physical tuple pointers are assumed (the scheme CM's original
// evaluation used).
type Index struct {
	host *btree.Tree
	m    *Map
}

// NewIndex builds a Correlation Map index by scanning the table.
func NewIndex(table *storage.Table, host *btree.Tree, cfg Config) (*Index, error) {
	m, err := NewMap(cfg)
	if err != nil {
		return nil, err
	}
	err = table.ScanPairs(cfg.TargetCol, cfg.HostCol, func(_ storage.RID, mv, nv float64) bool {
		m.Add(mv, nv)
		return true
	})
	if err != nil {
		return nil, err
	}
	return &Index{host: host, m: m}, nil
}

// Map returns the underlying bucket structure.
func (x *Index) Map() *Map { return x.m }

// SizeBytes returns the CM structure's footprint.
func (x *Index) SizeBytes() uint64 { return x.m.SizeBytes() }

// Lookup harvests the candidates for lo <= M <= hi: it calls fn with every
// host-index entry of the host ranges the map gives for the predicate — a
// superset of the matching tuples, read from no row.
func (x *Index) Lookup(lo, hi float64, fn func(key float64, id uint64) bool) {
	for _, r := range x.m.Lookup(lo, hi) {
		x.host.Scan(r.Lo, r.Hi, fn)
	}
}

// Insert maintains the map for a new tuple.
func (x *Index) Insert(m, n float64) { x.m.Add(m, n) }

// Delete maintains the map for a removed tuple.
func (x *Index) Delete(m, n float64) { x.m.Remove(m, n) }
