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
//   - the budget bounds what the cache retains, and what it retains is
//     decided once, when a load completes, by access count (see admit):
//     the block joins the retained set if it fits, or if it has been
//     asked for more often than the retained blocks it would displace.
//     Otherwise it is served pinned to whoever asked and let go at its
//     last Release. Every engine iteration is the same sweep over the
//     rows, and LRU under a cyclic sweep longer than the cache evicts
//     each block just before it is asked for again, so the budget buys
//     nothing at any size; with admission a budget of half the blocks
//     keeps that half resident and streams only the rest;
//   - Release unpins. Pinned blocks are never dropped, so a pipeline that
//     pins the next batch while computing on the current one exceeds the
//     budget transiently by the pins that were not admitted.
//
// The whole budget holds decoded blocks, as the paper spends the memory
// left after the intervals on sub-shards. A budget byte holding a decoded
// block saves a read and a decode; one holding the 3-4x smaller encoded
// blob would save only the read, which on page-cached files costs an
// eighth of the decode (docs/adr/ADR-013).
//
// Keys carry a store generation: when a store's content is replaced
// (background compaction swapping a rebuilt store in), the owner
// allocates a fresh generation for the new store and invalidates the old
// one, so a block decoded from the retired store can never be served to
// a run over its replacement. Generations are allocated process-wide by
// NextGeneration, which lets many stores share one cache (one budget)
// without key collisions.
//
// Values are opaque to the cache (`any` plus an explicit byte size): it
// knows nothing of the store format it holds blocks of.
package blockcache

import (
	"container/list"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Key identifies one block: sub-shard (I, J) of the given replica of the
// store generation Gen.
type Key struct {
	Gen       uint64
	I, J      int
	Transpose bool
}

// generation is the process-wide store-generation counter.
var generation atomic.Uint64

// NextGeneration allocates a fresh, process-unique store generation.
// Every opened store (and every compaction-swapped replacement) gets its
// own, so one shared cache can serve many stores without aliasing.
func NextGeneration() uint64 { return generation.Add(1) }

// entry is one cached block. An entry is born with refs = 1 (the loading
// Get); waiters block on ready. refs > 0 pins the entry. At refs == 0 a
// retained entry moves to the LRU list and may be displaced by a later
// admission; one that was not admitted is unmapped and recycled. doomed
// marks an entry whose generation was invalidated while pinned: it is
// already removed from the map (no future Get can find it) and its bytes
// are returned on the final release.
type entry struct {
	key   Key
	ready chan struct{}
	val   any
	size  int64
	err   error

	refs     int
	retained bool // counted against the budget
	doomed   bool
	elem     *list.Element // non-nil iff refs == 0 and the entry is retained
}

// The admission rule's two constants. Counts are aged — halved, zeroes
// forgotten — every agePeriod Gets per tracked key, so a key asked for
// once per sweep holds a count between agePeriod and twice that, and a
// key that is no longer asked for falls below every live one within two
// ageings. maxCount bounds how long a history can be: a saturated key
// that dies is forgotten after log2(maxCount)+1 ageings. It is four
// times the 2·agePeriod a key asked for at the average rate peaks at,
// so keys up to four times hotter than average still rank by count (a
// round of PageRank, WCC and BFS asks for forward blocks 1.6 times as
// often as for the average block, four times as often as for transpose
// ones). maxTracked is not part of the rule: it bounds the counters
// when a caller floods the cache with keys it never asks for twice (a
// live key space is 2·P² per store).
const (
	agePeriod  = 8
	maxCount   = 63
	maxTracked = 1 << 14
)

// Stats is a point-in-time copy of the cache counters.
type Stats struct {
	// Hits counts Gets served from a resident or in-flight block
	// (waiting on another Get's load counts as a hit: only one decode
	// happened).
	Hits int64
	// L2Hits is always 0: the encoded-blob tier it counted is gone, and the benchmark still reads it.
	L2Hits int64
	// Misses counts Gets that went to disk.
	Misses int64
	// Evictions counts decoded blocks dropped to fit the budget:
	// retained ones displaced by an admission, and ones that were not
	// admitted, at their last Release.
	Evictions int64
	// L2Evictions is always 0: the encoded-blob tier it counted is gone, and the benchmark still reads it.
	L2Evictions int64
	// Invalidations counts blocks dropped by generation invalidation.
	Invalidations int64
	// Blocks is the number of resident decoded blocks (gauge).
	Blocks int64
	// ResidentBytes is the decoded bytes held, pinned or not (gauge).
	ResidentBytes int64
	// PinnedBytes is the subset of ResidentBytes held by unreleased
	// handles (gauge).
	PinnedBytes int64
}

// HitRatio returns the fraction of lookups served without a decode:
// hits / (hits + misses), or 0 before any traffic.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Summary renders the one-line human summary the CLIs print, or ""
// before any traffic.
func (s Stats) Summary() string {
	if s.Hits+s.Misses == 0 {
		return ""
	}
	return fmt.Sprintf("block cache: %d hits, %d misses (%.1f%% hit ratio), %d evictions",
		s.Hits, s.Misses, 100*s.HitRatio(), s.Evictions)
}

// Cache is the shared block cache: reference counts, single-flight
// loads, the LRU order of the unpinned and admission by access count.
// The zero value is not usable; use New.
type Cache struct {
	mu            sync.Mutex
	budget        int64 // < 0 unlimited; >= 0 retained-byte budget (0 = pins only)
	entries       map[Key]*entry
	lru           *list.List // retained unpinned entries, most recently used at front
	resident      int64      // bytes of every entry a handle or the map reaches
	retained      int64      // the subset the budget bounds
	pinned        int64
	evictions     int64
	invalidations int64

	// count is how often each key was asked for lately, resident or not:
	// a key that is streamed past every sweep must be able to out-count a
	// retained one that is never asked for again.
	count map[Key]uint8
	gets  int // since the last ageing

	// spares are decoded blocks the cache has let go of — dropped or
	// invalidated at refs == 0, so no handle can reach them — kept to hand
	// to the next miss's load instead of to the garbage collector. See
	// recycleLocked for the bound.
	spares     []*entry
	spareBytes int64

	hits, misses atomic.Int64
}

// New creates a cache with the given retained-byte budget. A negative
// budget means unlimited; zero keeps nothing beyond the currently pinned
// blocks (caching disabled, but loads still coalesce and handles still
// pin, so pipelined prefetch works unchanged).
func New(budget int64) *Cache {
	return &Cache{budget: budget, entries: make(map[Key]*entry), lru: list.New(), count: make(map[Key]uint8)}
}

// Handle is a pinned reference to a cached block. The block cannot be
// dropped until Release; the value must not be mutated (it is shared by
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
// on a miss — the disk read and the decode, one Stats miss. Concurrent
// Gets for the same key coalesce: exactly one runs load, the rest wait
// and share the result. A load error is returned to every waiter and
// nothing is cached.
//
// want is the size the caller expects load to report, or 0. load's spare
// is then the smallest block of at least that size (and at most twice
// it) the cache has let go of at refs == 0, or nil: a value no handle
// reaches any more, whose memory load may overwrite and return as val.
// Ownership passes to load; a spare it does not return is garbage.
func (c *Cache) Get(key Key, want int64, load func(spare any) (val any, size int64, err error)) (*Handle, error) {
	c.mu.Lock()
	c.touch(key)
	e, hit := c.entries[key]
	if hit {
		if e.refs == 0 {
			// Entries at refs == 0 are always ready and on the LRU list.
			c.lru.Remove(e.elem)
			e.elem = nil
			c.pinned += e.size
		}
		e.refs++
		c.mu.Unlock()
		<-e.ready
	} else {
		e = &entry{key: key, ready: make(chan struct{}), refs: 1}
		c.entries[key] = e
		spare := c.takeSpare(want)
		c.mu.Unlock()
		e.val, e.size, e.err = load(spare)
		c.mu.Lock()
		if e.err != nil {
			// Only remove the mapping if it is still ours — an
			// invalidation may have dropped it and a successor entry may
			// own the key now.
			if c.entries[key] == e {
				delete(c.entries, key)
			}
		} else {
			c.resident += e.size
			c.pinned += e.size
			c.admit(e)
		}
		c.mu.Unlock()
		close(e.ready)
	}
	if e.err != nil {
		c.mu.Lock()
		e.refs-- // never resident: no accounting to unwind
		c.mu.Unlock()
		return nil, e.err
	}
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return &Handle{c: c, e: e}, nil
}

// touch counts one Get of k. Nothing is counted where nothing is ever
// decided: an unlimited cache admits everything, a zero budget nothing.
// Caller holds mu.
func (c *Cache) touch(k Key) {
	if c.budget <= 0 {
		return
	}
	if n := c.count[k]; n < maxCount {
		c.count[k] = n + 1
	}
	if c.gets++; c.gets < agePeriod*len(c.count) && len(c.count) <= maxTracked {
		return
	}
	c.gets = 0
	for k, n := range c.count {
		if n < 2 {
			delete(c.count, k)
		} else {
			c.count[k] = n / 2
		}
	}
}

// admit decides, once, whether the just-loaded e joins the retained set:
// it does if it fits the budget, or if dropping least-recently-used
// unpinned entries makes it fit and e's count beats each of theirs by
// more than one. Ties keep the incumbent — under a cyclic sweep every
// count is equal and whatever fitted first stays, which is the hit ratio
// budget/working-set that LRU turns into zero — and so does a lead of
// one, which is all that an ageing in the middle of a sweep can open up
// between two keys asked for equally often. Caller holds mu.
func (c *Cache) admit(e *entry) {
	if e.doomed {
		return
	}
	if c.budget >= 0 {
		over, n, victims := c.retained+e.size-c.budget, c.count[e.key], 0
		for el := c.lru.Back(); over > 0; el = el.Prev() {
			if el == nil {
				return // nothing is dropped for a block that will not fit
			}
			v := el.Value.(*entry)
			if n <= c.count[v.key]+1 {
				return
			}
			over -= v.size
			victims++
		}
		for ; victims > 0; victims-- {
			v := c.lru.Remove(c.lru.Back()).(*entry)
			v.elem = nil
			c.evict(v)
		}
	}
	e.retained = true
	c.retained += e.size
}

// evict unmaps the unpinned e and frees it, counting a block dropped to
// fit the budget, admitted earlier or not. Caller holds mu.
func (c *Cache) evict(e *entry) {
	delete(c.entries, e.key)
	c.evictions++
	c.free(e)
}

// free returns the bytes of e, which is unmapped and unpinned, and keeps
// its block as a spare. Caller holds mu.
func (c *Cache) free(e *entry) {
	c.resident -= e.size
	if e.retained {
		c.retained -= e.size
	}
	c.recycleLocked(e)
}

// unref unpins e: a retained entry becomes the most recently used
// displaceable one, any other is let go of at its last reference.
// Caller holds mu.
func (c *Cache) unref(e *entry) {
	e.refs--
	if e.refs > 0 || e.err != nil {
		return
	}
	c.pinned -= e.size
	switch {
	case e.doomed:
		c.free(e)
	case !e.retained:
		c.evict(e)
	default:
		e.elem = c.lru.PushFront(e)
	}
}

// recycleLocked keeps the block of e — unmapped and unpinned, so out of
// every handle's reach — as the newest spare, then drops the oldest
// until the spares are no larger than what is pinned right now. Misses
// come from a pipeline that pins one fetch batch while it loads the
// next: a released batch's worth of dropped blocks is what its next
// batch of misses can use, so one batch's pins is the measure, and
// nothing pinned means nothing kept. There is no setting. Caller holds mu.
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
// want bytes (see Get), or nil. Caller holds mu.
func (c *Cache) takeSpare(want int64) any {
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

// InvalidateGeneration drops every block of the given store generation
// and forgets its counts. Unpinned blocks are freed immediately; pinned
// ones are unmapped now (no future Get can return them) and their bytes
// are returned when the last holder releases. Callers invalidate after
// ensuring no new run will request the generation (the server does this
// under the graph's run lock during a compaction swap).
func (c *Cache) InvalidateGeneration(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.count {
		if k.Gen == gen {
			delete(c.count, k)
		}
	}
	for k, e := range c.entries {
		if k.Gen != gen {
			continue
		}
		delete(c.entries, k)
		c.invalidations++
		if e.refs == 0 {
			c.lru.Remove(e.elem)
			e.elem = nil
			c.free(e)
		} else {
			e.doomed = true
		}
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Blocks:        int64(len(c.entries)),
		ResidentBytes: c.resident,
		PinnedBytes:   c.pinned,
	}
}
