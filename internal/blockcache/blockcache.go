// Package blockcache provides a process-wide, reference-counted,
// memory-budgeted cache of decoded sub-shard blocks, shared by every
// engine run on a store.
//
// NXgraph's performance argument is about minimizing and streaming
// sub-shard I/O; the serving layer's is about answering many queries on
// the same graph. Before this cache, every engine run privately re-read
// and re-decoded the sub-shards it needed, so concurrent jobs on one
// graph each held a duplicate copy of the edge set and iterative
// strategies re-paid decode cost every iteration. The cache makes
// decoded blocks a shared, budgeted resource:
//
//   - a Get hit returns a pinned handle to the already-decoded block;
//   - a miss runs the caller's loader exactly once per key
//     (concurrent misses coalesce on the in-flight load) and publishes
//     the result;
//   - Release unpins; unpinned blocks are evicted in LRU order whenever
//     resident bytes exceed the budget. Pinned blocks are never evicted,
//     so a pipeline that pins the next batch while computing on the
//     current one may transiently exceed the budget by the pinned set.
//
// With the v2 store format the encoded blob is 3-4x smaller than the
// decoded block, which makes holding encoded bytes a much cheaper way to
// avoid disk than holding decoded ones. GetTiered exploits this with a
// second tier: L1 holds decoded blocks (as above), L2 holds the raw
// encoded blobs keyed without the decoded-form bit, so the CSR and flat
// forms of one sub-shard share a single blob. An L1 miss that finds its
// blob in L2 re-decodes from RAM instead of re-reading from disk; only an
// L2 miss touches the store. Each tier has its own budget and LRU; the
// blob is pinned (refcounted) for the duration of the decode, so L2
// eviction can never free bytes a decode is still reading.
//
// Keys carry a store generation: when a store's content is replaced
// (background compaction swapping a rebuilt store in), the owner
// allocates a fresh generation for the new store and invalidates the old
// one, so a block decoded from the retired store can never be served to
// a run over its replacement. Generations are allocated process-wide by
// NextGeneration, which lets many stores share one cache (one budget)
// without key collisions.
//
// Values are opaque to the cache (`any` plus an explicit byte size), so
// the same cache holds CSR sub-shards and the source-sorted ablation's
// flattened form side by side.
package blockcache

import (
	"container/list"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Key identifies one decoded block: sub-shard (I, J) of the given
// replica of the store generation Gen. Flat distinguishes the
// source-sorted (Table IV ablation) form from the CSR form of the same
// sub-shard.
type Key struct {
	Gen       uint64
	I, J      int
	Transpose bool
	Flat      bool
}

// L2Key identifies one encoded blob in the L2 tier. It is Key without
// the Flat bit: the CSR and source-sorted forms of a sub-shard decode
// from the same bytes, so they share one L2 entry.
type L2Key struct {
	Gen       uint64
	I, J      int
	Transpose bool
}

func (k Key) l2() L2Key {
	return L2Key{Gen: k.Gen, I: k.I, J: k.J, Transpose: k.Transpose}
}

// generation is the process-wide store-generation counter.
var generation atomic.Uint64

// NextGeneration allocates a fresh, process-unique store generation.
// Every opened store (and every compaction-swapped replacement) gets its
// own, so one shared cache can serve many stores without aliasing.
func NextGeneration() uint64 { return generation.Add(1) }

// entry is one cached block. An entry is born with refs = 1 (the loading
// Get); waiters block on ready. refs > 0 pins the entry; at refs == 0 it
// moves to the LRU list and becomes evictable. doomed marks an entry
// whose generation was invalidated while pinned: it is already removed
// from the map (no future Get can find it) and its bytes are returned on
// the final release.
type entry struct {
	key   Key
	ready chan struct{}
	val   any
	size  int64
	err   error

	refs   int
	doomed bool
	elem   *list.Element // non-nil iff refs == 0 and the entry is evictable
}

// l2entry is one cached encoded blob. It has the same lifecycle as entry
// (born pinned by the loading GetTiered, waiters block on ready, refs ==
// 0 moves it to the L2 LRU, doomed defers the byte return of an
// invalidated-while-pinned blob to the final unref).
type l2entry struct {
	key   L2Key
	ready chan struct{}
	blob  []byte
	size  int64
	err   error

	refs   int
	doomed bool
	elem   *list.Element
}

// Stats is a point-in-time copy of the cache counters.
type Stats struct {
	// Hits counts Gets served from a resident or in-flight block
	// (waiting on another Get's load counts as a hit: only one decode
	// happened).
	Hits int64
	// L2Hits counts L1 misses whose encoded blob was served from RAM
	// (resident or in-flight in the L2 tier) — a decode happened but no
	// disk read.
	L2Hits int64
	// Misses counts Gets that went to disk.
	Misses int64
	// Evictions counts decoded blocks dropped to fit the L1 budget.
	Evictions int64
	// L2Evictions counts encoded blobs dropped to fit the L2 budget.
	L2Evictions int64
	// Invalidations counts blocks and blobs dropped by generation
	// invalidation, across both tiers.
	Invalidations int64
	// Blocks is the number of resident decoded blocks (gauge).
	Blocks int64
	// L2Blocks is the number of resident encoded blobs (gauge).
	L2Blocks int64
	// ResidentBytes is the decoded bytes held, pinned or not (gauge).
	ResidentBytes int64
	// PinnedBytes is the subset of ResidentBytes held by unreleased
	// handles (gauge).
	PinnedBytes int64
	// L2ResidentBytes is the encoded bytes held in the L2 tier (gauge).
	L2ResidentBytes int64
	// L2PinnedBytes is the subset of L2ResidentBytes pinned by in-flight
	// decodes (gauge).
	L2PinnedBytes int64
}

// HitRatio returns the fraction of lookups served without a decode:
// hits / (hits + l2hits + misses), or 0 before any traffic. L2 hits are
// in the denominator only — they saved the disk read but still paid the
// decode.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.L2Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Summary renders the one-line human summary the CLIs print, or ""
// before any traffic. The L2 clause appears only when the tier saw
// traffic, so single-tier caches keep their old summary.
func (s Stats) Summary() string {
	if s.Hits+s.L2Hits+s.Misses == 0 {
		return ""
	}
	out := fmt.Sprintf("block cache: %d hits, %d misses (%.1f%% hit ratio), %d evictions",
		s.Hits, s.Misses, 100*s.HitRatio(), s.Evictions)
	if s.L2Hits > 0 || s.L2Blocks > 0 || s.L2Evictions > 0 {
		out += fmt.Sprintf("; L2: %d hits, %d blobs resident (%d B), %d evictions",
			s.L2Hits, s.L2Blocks, s.L2ResidentBytes, s.L2Evictions)
	}
	return out
}

// Cache is the shared block cache. The zero value is not usable; use New
// or NewTiered.
type Cache struct {
	budget   int64 // < 0 unlimited; >= 0 resident-byte budget (0 = pins only)
	l2budget int64 // 0 disables the L2 tier; < 0 unlimited

	mu       sync.Mutex
	entries  map[Key]*entry
	lru      *list.List // unpinned entries, most recently used at front
	resident int64
	pinned   int64

	l2entries  map[L2Key]*l2entry
	l2lru      *list.List
	l2resident int64
	l2pinned   int64

	// spares are decoded blocks the cache has let go of — evicted or
	// invalidated at refs == 0, so no handle can reach them — kept for
	// GetTiered to hand to the next decode instead of to the garbage
	// collector. See recycleLocked for the bound.
	spares     []*entry
	spareBytes int64

	hits, l2hits, misses                  atomic.Int64
	evictions, l2evictions, invalidations atomic.Int64
}

// New creates a single-tier cache with the given resident-byte budget. A
// negative budget means unlimited; zero keeps nothing beyond the
// currently pinned blocks (caching disabled, but loads still coalesce
// and handles still pin, so pipelined prefetch works unchanged).
func New(budget int64) *Cache {
	return NewTiered(budget, 0)
}

// NewTiered creates a cache with separate budgets for decoded blocks
// (l1) and encoded blobs (l2). l2 == 0 disables the encoded tier —
// GetTiered then behaves exactly like Get with a composed loader.
func NewTiered(l1, l2 int64) *Cache {
	return &Cache{
		budget:    l1,
		l2budget:  l2,
		entries:   make(map[Key]*entry),
		lru:       list.New(),
		l2entries: make(map[L2Key]*l2entry),
		l2lru:     list.New(),
	}
}

// DefaultL2Frac is the fraction of a combined cache budget given to the
// encoded tier when the caller does not choose one. Encoded blobs are
// 3-4x denser than decoded blocks, so a quarter of the bytes holds
// roughly as many sub-shards as the decoded three quarters.
const DefaultL2Frac = 0.25

// SplitBudget divides a combined cache budget between the tiers. frac is
// the L2 share: 0 picks DefaultL2Frac, negative disables L2, and values
// are capped at 0.9 so L1 always keeps working room. An unlimited
// (negative) total disables L2 outright — with no eviction pressure in
// L1 the encoded tier would only duplicate bytes.
func SplitBudget(total int64, frac float64) (l1, l2 int64) {
	if total < 0 || frac < 0 {
		return total, 0
	}
	if frac == 0 {
		frac = DefaultL2Frac
	}
	if frac > 0.9 {
		frac = 0.9
	}
	l2 = int64(float64(total) * frac)
	return total - l2, l2
}

// Budget returns the configured L1 resident-byte budget (< 0 = unlimited).
func (c *Cache) Budget() int64 { return c.budget }

// L2Budget returns the configured L2 budget (0 = tier disabled).
func (c *Cache) L2Budget() int64 { return c.l2budget }

// Handle is a pinned reference to a cached block. The block cannot be
// evicted until Release; the value must not be mutated (it is shared by
// every concurrent holder).
type Handle struct {
	c        *Cache
	e        *entry
	released atomic.Bool
}

// Value returns the cached block.
func (h *Handle) Value() any { return h.e.val }

// Size returns the block's accounted byte size.
func (h *Handle) Size() int64 { return h.e.size }

// Release unpins the block. Releasing twice is a no-op.
func (h *Handle) Release() {
	if h == nil || !h.released.CompareAndSwap(false, true) {
		return
	}
	h.c.mu.Lock()
	h.c.unref(h.e)
	h.c.mu.Unlock()
}

// Get returns a pinned handle for key, running load to produce the block
// on a miss. Concurrent Gets for the same key coalesce: exactly one runs
// load, the rest wait and share the result. A load error is returned to
// every waiter and nothing is cached.
func (c *Cache) Get(key Key, load func() (val any, size int64, err error)) (*Handle, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.ref(e)
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			c.mu.Lock()
			e.refs-- // never resident: no accounting to unwind
			c.mu.Unlock()
			return nil, e.err
		}
		c.hits.Add(1)
		return &Handle{c: c, e: e}, nil
	}
	e := &entry{key: key, ready: make(chan struct{}), refs: 1}
	c.entries[key] = e
	c.mu.Unlock()

	val, size, err := load()

	c.mu.Lock()
	e.val, e.size, e.err = val, size, err
	if err != nil {
		// Only remove the mapping if it is still ours — an invalidation
		// may have dropped it and a successor entry may own the key now.
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		e.refs--
	} else {
		c.resident += size
		c.pinned += size
		c.misses.Add(1)
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
	if err != nil {
		return nil, err
	}
	return &Handle{c: c, e: e}, nil
}

// GetTiered returns a pinned handle for key, consulting the encoded
// tier between the decoded tier and disk: an L1 hit returns the decoded
// block; an L1 miss with the blob in L2 runs decode on the in-RAM bytes;
// only an L2 miss runs loadRaw (the disk read). Both tiers single-flight
// — concurrent callers coalesce per Key on the decode and per L2Key on
// the disk read, so two decoded forms of one sub-shard share one read.
// The blob stays pinned until decode returns, so eviction can never free
// it mid-decode. With the L2 tier disabled this is Get with a composed
// loader.
//
// want is the size the caller expects decode to report, or 0. decode's
// spare is then the smallest block of at least that size (and at most
// twice it) the cache has let go of at refs == 0, or nil: a value no
// handle reaches any more, whose memory decode may overwrite and return
// as val. Ownership passes to decode; a spare it does not return is
// garbage.
func (c *Cache) GetTiered(key Key, want int64, loadRaw func() ([]byte, error), decode func(blob []byte, spare any) (val any, size int64, err error)) (*Handle, error) {
	if c.l2budget == 0 {
		return c.Get(key, func() (any, int64, error) {
			blob, err := loadRaw()
			if err != nil {
				return nil, 0, err
			}
			return decode(blob, c.takeSpare(want))
		})
	}

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.ref(e)
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			c.mu.Lock()
			e.refs--
			c.mu.Unlock()
			return nil, e.err
		}
		c.hits.Add(1)
		return &Handle{c: c, e: e}, nil
	}
	// L1 miss: claim the key (single-flight for this decoded form), then
	// fetch the blob with an L2 ref held across the decode.
	e := &entry{key: key, ready: make(chan struct{}), refs: 1}
	c.entries[key] = e

	le, err := c.l2get(key.l2(), loadRaw) // unlocks c.mu
	var val any
	var size int64
	if err == nil {
		val, size, err = decode(le.blob, c.takeSpare(want))
		c.mu.Lock()
		c.l2unref(le)
		c.mu.Unlock()
	}

	c.mu.Lock()
	e.val, e.size, e.err = val, size, err
	if err != nil {
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		e.refs--
	} else {
		c.resident += size
		c.pinned += size
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
	if err != nil {
		return nil, err
	}
	return &Handle{c: c, e: e}, nil
}

// l2get returns the blob entry for k with one reference held by the
// caller, loading it via loadRaw on an L2 miss. Called with c.mu held;
// returns with it released. On error no reference is held.
func (c *Cache) l2get(k L2Key, loadRaw func() ([]byte, error)) (*l2entry, error) {
	if le, ok := c.l2entries[k]; ok {
		c.l2ref(le)
		c.mu.Unlock()
		<-le.ready
		if le.err != nil {
			c.mu.Lock()
			le.refs--
			c.mu.Unlock()
			return nil, le.err
		}
		// Served from RAM even if we waited on another caller's disk
		// read: only one read happened.
		c.l2hits.Add(1)
		return le, nil
	}
	le := &l2entry{key: k, ready: make(chan struct{}), refs: 1}
	c.l2entries[k] = le
	c.mu.Unlock()

	blob, err := loadRaw()

	c.mu.Lock()
	le.blob, le.size, le.err = blob, int64(len(blob)), err
	if err != nil {
		if c.l2entries[k] == le {
			delete(c.l2entries, k)
		}
		le.refs--
	} else {
		c.l2resident += le.size
		c.l2pinned += le.size
		c.misses.Add(1)
		c.evictL2Locked()
	}
	c.mu.Unlock()
	close(le.ready)
	if err != nil {
		return nil, err
	}
	return le, nil
}

// ref pins e. Caller holds mu.
func (c *Cache) ref(e *entry) {
	if e.refs == 0 {
		// Entries at refs == 0 are always ready and on the LRU list.
		c.lru.Remove(e.elem)
		e.elem = nil
		c.pinned += e.size
	}
	e.refs++
}

// unref unpins e, retiring it if doomed or enqueueing it for eviction.
// Caller holds mu.
func (c *Cache) unref(e *entry) {
	e.refs--
	if e.refs > 0 || e.err != nil {
		return
	}
	c.pinned -= e.size
	if e.doomed {
		c.resident -= e.size
		c.recycleLocked(e)
		return
	}
	e.elem = c.lru.PushFront(e)
	c.evictLocked()
}

// recycleLocked keeps the block of e — unmapped and unpinned, so out of
// every handle's reach — as the newest spare, then drops the oldest
// until the spares are no larger than what is pinned right now. Misses
// come from a pipeline that pins one fetch batch while it loads the
// next: a released batch's worth of evictions is what its next batch of
// misses can use, so one batch's pins is the measure, and nothing
// pinned means nothing kept. There is no setting. Caller holds mu.
func (c *Cache) recycleLocked(e *entry) {
	c.spares = append(c.spares, e)
	c.spareBytes += e.size
	n := 0
	for ; c.spareBytes > c.pinned; n++ {
		c.spareBytes -= c.spares[n].size
	}
	c.spares = slices.Delete(c.spares, 0, n) // clears the vacated tail: dropped means collectable
}

// takeSpare removes and returns the best-fitting spare for a block of
// want bytes (see GetTiered), or nil.
func (c *Cache) takeSpare(want int64) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	best := -1
	for i, e := range c.spares {
		if e.size >= want && e.size <= 2*want && (best < 0 || e.size < c.spares[best].size) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	e := c.spares[best]
	c.spares = slices.Delete(c.spares, best, best+1)
	c.spareBytes -= e.size
	return e.val
}

// evictLocked drops least-recently-used unpinned entries until resident
// bytes fit the budget. Caller holds mu.
func (c *Cache) evictLocked() {
	if c.budget < 0 {
		return
	}
	for c.resident > c.budget {
		el := c.lru.Back()
		if el == nil {
			return // everything else is pinned; transient overage
		}
		e := el.Value.(*entry)
		c.lru.Remove(el)
		e.elem = nil
		delete(c.entries, e.key)
		c.resident -= e.size
		c.evictions.Add(1)
		c.recycleLocked(e)
	}
}

// l2ref pins le. Caller holds mu.
func (c *Cache) l2ref(le *l2entry) {
	if le.refs == 0 {
		c.l2lru.Remove(le.elem)
		le.elem = nil
		c.l2pinned += le.size
	}
	le.refs++
}

// l2unref unpins le. Caller holds mu.
func (c *Cache) l2unref(le *l2entry) {
	le.refs--
	if le.refs > 0 || le.err != nil {
		return
	}
	c.l2pinned -= le.size
	if le.doomed {
		c.l2resident -= le.size
		return
	}
	le.elem = c.l2lru.PushFront(le)
	c.evictL2Locked()
}

// evictL2Locked drops least-recently-used unpinned blobs until the tier
// fits its budget. Blobs pinned by an in-flight decode are skipped the
// same way pinned blocks are in L1. Caller holds mu.
func (c *Cache) evictL2Locked() {
	if c.l2budget < 0 {
		return
	}
	for c.l2resident > c.l2budget {
		el := c.l2lru.Back()
		if el == nil {
			return
		}
		le := el.Value.(*l2entry)
		c.l2lru.Remove(el)
		le.elem = nil
		delete(c.l2entries, le.key)
		c.l2resident -= le.size
		c.l2evictions.Add(1)
	}
}

// InvalidateGeneration drops every block of the given store generation.
// Unpinned blocks are freed immediately; pinned ones are unmapped now
// (no future Get can return them) and their bytes are returned when the
// last holder releases. Callers invalidate after ensuring no new run
// will request the generation (the server does this under the graph's
// run lock during a compaction swap).
func (c *Cache) InvalidateGeneration(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if k.Gen != gen {
			continue
		}
		delete(c.entries, k)
		c.invalidations.Add(1)
		if e.refs == 0 {
			c.lru.Remove(e.elem)
			e.elem = nil
			c.resident -= e.size
			c.recycleLocked(e)
		} else {
			e.doomed = true
		}
	}
	for k, le := range c.l2entries {
		if k.Gen != gen {
			continue
		}
		delete(c.l2entries, k)
		c.invalidations.Add(1)
		if le.refs == 0 {
			c.l2lru.Remove(le.elem)
			le.elem = nil
			c.l2resident -= le.size
		} else {
			le.doomed = true
		}
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	blocks := int64(len(c.entries))
	resident, pinned := c.resident, c.pinned
	l2blocks := int64(len(c.l2entries))
	l2resident, l2pinned := c.l2resident, c.l2pinned
	c.mu.Unlock()
	return Stats{
		Hits:            c.hits.Load(),
		L2Hits:          c.l2hits.Load(),
		Misses:          c.misses.Load(),
		Evictions:       c.evictions.Load(),
		L2Evictions:     c.l2evictions.Load(),
		Invalidations:   c.invalidations.Load(),
		Blocks:          blocks,
		L2Blocks:        l2blocks,
		ResidentBytes:   resident,
		PinnedBytes:     pinned,
		L2ResidentBytes: l2resident,
		L2PinnedBytes:   l2pinned,
	}
}
