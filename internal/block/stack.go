package block

// Stack is one physical table's open blocks, oldest first: the order the
// manifest names them in and replay folds them in, later blocks winning per
// key. A stack is replaced whole, never written in place, so a reader may
// keep the one it loaded after its owner publishes another; the owner closes
// the handles a new stack drops.
//
// The stack owns the size-tiered policy over those blocks: which run merges
// next (NextRun), how many runs are due (Backlog), and a point read newest
// first (Get). What a merge writes, and where, is its owner's.
type Stack []*Handle

// Descs returns the manifest entries of the stack, oldest first.
func (s Stack) Descs() []Desc {
	out := make([]Desc, len(s))
	for i, h := range s {
		out[i] = h.desc
	}
	return out
}

// Summary totals a stack's blocks.
type Summary struct {
	// Blocks, Entries and Bytes count the blocks, their entries (upserts and
	// tombstones) and their file bytes; MaxLevel is the deepest compaction
	// tier among them.
	Blocks   int
	Entries  uint64
	Bytes    int64
	MaxLevel uint32
	// ResidentBytes is the memory the open handles hold (Handle.ResidentBytes).
	ResidentBytes int64
}

// Summary totals the stack's blocks.
func (s Stack) Summary() Summary {
	sum := Summary{Blocks: len(s)}
	for _, h := range s {
		sum.Entries += h.desc.Count
		sum.Bytes += h.desc.Bytes
		sum.MaxLevel = max(sum.MaxLevel, h.desc.Level)
		sum.ResidentBytes += h.ResidentBytes()
	}
	return sum
}

// NextRun returns the oldest maximal run of at least fanIn contiguous
// same-level blocks — the next merge of a size-tiered stack — as
// s[start:start+n]; n is 0 when no run is due.
func (s Stack) NextRun(fanIn int) (start, n int) {
	for start < len(s) {
		end := start + 1
		for end < len(s) && s[end].desc.Level == s[start].desc.Level {
			end++
		}
		if end-start >= fanIn {
			return start, end - start
		}
		start = end
	}
	return 0, 0
}

// Backlog counts the runs due, NextRun's scan repeated past each: 0 for a
// stack that is fully compacted at this fan-in. (The block after a maximal
// run is at another level, so each scan starts a run afresh.)
func (s Stack) Backlog(fanIn int) int {
	runs := 0
	for start, n := s.NextRun(fanIn); n > 0; start, n = s.NextRun(fanIn) {
		s = s[start+n:]
		runs++
	}
	return runs
}

// Get reads pk from the stack, newest block first, and returns the first
// entry found: found is false when no block has the key or the newest entry
// is a tombstone. A block whose key fence or bloom filter excludes pk costs
// nothing; probed counts the blocks a page was read from. A handle closed
// under the read surfaces its error (one wrapping os.ErrClosed), never a
// silent miss.
func (s Stack) Get(pk float64) (row []float64, found bool, probed int, err error) {
	for i := len(s) - 1; i >= 0; i-- {
		h := s[i]
		if !h.MaybeContains(pk) {
			continue
		}
		probed++
		row, ok, err := h.Get(pk)
		if err != nil {
			return nil, false, probed, err
		}
		if ok {
			return row, row != nil, probed, nil // a nil row is a tombstone
		}
		// Not in the block after all: a bloom false positive.
	}
	return nil, false, probed, nil
}
