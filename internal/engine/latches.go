package engine

import (
	"math"
	"sync"
)

// The engine's concurrency protocol (this file plus the call sites in
// engine.go, query.go and indexes.go):
//
//   - t.catalog (RWMutex) guards the *catalog*, t.maint: one index record
//     per secondary structure, each with its latches. Index creation takes
//     it exclusively; every row operation and query takes it shared, so
//     queries and writes never wait on each other here — only on DDL.
//   - One latch per index structure. The B+-trees (primary, one- and
//     two-key secondary) and Correlation Maps are not internally
//     synchronised, so each carries its own RWMutex (index.mu); readers of
//     different indexes share nothing. TRS-Trees latch themselves (see
//     trstree), so Hermit indexes need no engine latch for the tree — only
//     for the host structure their lookups traverse, whose latch each binds
//     at creation (index.hostMu).
//   - t.rows is a striped writer lock keyed by primary key. It serialises
//     logical row operations (insert/delete/update) on the same key — the
//     check-then-act sequences such as duplicate-key detection — while
//     writes to different keys proceed in parallel and only serialise
//     briefly on the individual structure latches they touch. An
//     auto-commit insert of a key strictly above the table's key ceiling
//     (Table.ceiling) makes its duplicate check with no mvccMu hold at all:
//     it reads the ceiling, not the chain. The stripe alone suffices,
//     because every commit that adds a key to the primary index holds that
//     key's stripe and raises the ceiling to the key, under mvccMu, before
//     it lets go of the stripe, and the ceiling never falls. So once the
//     inserter holds pk's stripe, every earlier commit of pk has raised the
//     ceiling to pk or above, and a ceiling still below pk means pk has no
//     chain, nor can get one until the inserter lets go. Other keys'
//     commits raising the ceiling meanwhile only send the check to the
//     probe.
//   - t.mvccMu is the one MVCC latch: it guards the primary B+-tree, which
//     is also the MVCC key→chain-head structure, and the version table
//     (headers and bits, queue of ended versions, delete list, live-row
//     count; see mvcc.go) together, because every reader and writer of
//     either takes the other too. Writers take it exclusively, once per
//     step: the commit step (stampInsert, stampUpdate) swaps a key's primary
//     entry and stamps the version it now names in one hold, and a version
//     is reclaimed (reclaimVersion) — inside its key's stripe — in one hold:
//     the primary entry goes if the version is its chain's head, else the
//     prev link that names it is cut (unlink), and the header is zeroed,
//     before the slot is freed for reuse. So whoever reads an entry under
//     mvccMu finds a stamped header of that key behind it, and no header's
//     prev names a slot that may have changed hands. Readers (head,
//     resolveVisible, resolveKeys, primaryRange, ScanLive) read the entries
//     and walk the chains in one shared hold, so no commit can reclaim a
//     head, nor restamp its slot for another key, between the two. A
//     checkpoint's harvest (DeltaVersions) walks no index: it holds mvccMu,
//     shared, for the scan of the unflushed bitmaps and the visibility
//     checks, and reads keys and rows from the store afterwards (the flush
//     snapshot keeps them). On the commit path it is taken inside the
//     clock's commit lock, never the other way round. No path takes it
//     shared while it already holds it — a writer queued between the two
//     holds would deadlock both — so a Hermit or CM index hosted on the
//     primary, which binds mvccMu as its host latch, lets go of it after
//     its lookup and before the base-table pass takes it again.
//   - The row store (storage.Table) has its own internal latch and is
//     always the innermost lock.
//
// Lock ordering (outer to inner): catalog -> row stripe -> index latch
// (index.mu, then index.hostMu) -> clock commit lock -> mvccMu -> store.
// Writers hold at most one index latch at a time and none of them at
// commit; readers may hold a host-index latch and mvccMu together, always
// acquiring mvccMu after any index latch, and never take the commit lock. GC's severing step sits at stripe -> mvccMu, like a commit's stamp
// without the commit lock: it publishes nothing a snapshot can see.

// stripeBits sizes the striped writer lock: lockStripes = 2^stripeBits.
// stripeOf takes the top stripeBits of the mixed hash (Fibonacci hashing
// concentrates entropy in the high bits), so the two constants must move
// together — hence the derivation.
const (
	stripeBits  = 6
	lockStripes = 1 << stripeBits
)

// stripedLock serialises row mutations per primary key.
type stripedLock struct {
	stripes [lockStripes]sync.Mutex
}

// mu returns the stripe mutex covering pk. Callers lock/unlock it
// directly: handing back the mutex instead of a bound unlock function
// keeps the write path free of the method-value allocation the old
// `lock(pk) func()` shape paid on every row mutation.
func (s *stripedLock) mu(pk float64) *sync.Mutex {
	return &s.stripes[stripeOf(pk)]
}

// stripeOf hashes a primary key to a stripe index. Keys are float64s, so
// the hash mixes the raw bits (Fibonacci multiplicative hashing); +0 and
// -0 compare equal as keys and must map to the same stripe.
func stripeOf(pk float64) uint64 {
	if pk == 0 {
		return 0 // ±0 compare equal as keys; normalise to one stripe
	}
	b := math.Float64bits(pk)
	return (b * 0x9e3779b97f4a7c15) >> (64 - stripeBits)
}
