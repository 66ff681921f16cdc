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
// With the v2 store format the encoded blob is 3-4x smaller than the
// decoded block, which makes holding encoded bytes a much cheaper way to
// avoid disk than holding decoded ones. GetTiered exploits this with a
// second tier: L1 holds decoded blocks (as above), L2 holds the raw
// encoded blobs under the same keys. An L1 miss that finds its blob in L2
// re-decodes from RAM instead of re-reading from disk; only an L2 miss
// touches the store. Both tiers are one type (tier) with its own
// budget; the blob is pinned (refcounted) for the duration of the decode,
// so L2 eviction can never free bytes a decode is still reading. The
// encoded tier is off unless asked for (SplitBudget): on page-cached
// files a read costs an eighth of a decode, and the tier is a second
// copy of the OS page cache paid for with decoded blocks.
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
// store generation Gen. It keys both the decoded block in L1 and its
// encoded blob in L2.
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

// entry is one cached value. An entry is born with refs = 1 (the loading
// get); waiters block on ready. refs > 0 pins the entry. At refs == 0 a
// retained entry moves to the LRU list and may be displaced by a later
// admission; one that was not admitted is unmapped and dropped. doomed
// marks an entry whose generation was invalidated while pinned: it is
// already removed from the map (no future get can find it) and its bytes
// are returned on the final release.
type entry[V any] struct {
	key   Key
	ready chan struct{}
	val   V
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

// tier is one level of the cache — reference counts, single-flight
// loads, the LRU order of the unpinned and admission by access count —
// written once and instantiated for decoded blocks and for encoded
// blobs. Every method is called with the owning Cache's mu held.
type tier[V any] struct {
	budget    int64 // < 0 unlimited; >= 0 retained-byte budget (0 = pins only)
	entries   map[Key]*entry[V]
	lru       *list.List // retained unpinned entries, most recently used at front
	resident  int64      // bytes of every entry a handle or the map reaches
	retained  int64      // the subset the budget bounds
	pinned    int64
	evictions int64

	// count is how often each key was asked for lately, resident or not:
	// a key that is streamed past every sweep must be able to out-count a
	// retained one that is never asked for again.
	count map[Key]uint8
	gets  int // since the last ageing

	// drop receives an entry the tier has let go of at refs == 0,
	// unmapped: nothing reaches its value any more.
	drop func(*entry[V])
}

func newTier[V any](budget int64, drop func(*entry[V])) *tier[V] {
	return &tier[V]{budget: budget, entries: make(map[Key]*entry[V]), lru: list.New(), count: make(map[Key]uint8), drop: drop}
}

// get returns the entry of k with one reference held, running load with
// mu released if none is mapped; hit reports that it did not. Concurrent
// gets of one key coalesce on the first one's load. A load error is
// returned to every waiter, no reference is held and nothing is cached.
// Called with mu held; returns with it released.
func (t *tier[V]) get(mu *sync.Mutex, k Key, load func() (V, int64, error)) (e *entry[V], hit bool, err error) {
	t.touch(k)
	e, hit = t.entries[k]
	if hit {
		if e.refs == 0 {
			// Entries at refs == 0 are always ready and on the LRU list.
			t.lru.Remove(e.elem)
			e.elem = nil
			t.pinned += e.size
		}
		e.refs++
		mu.Unlock()
		<-e.ready
	} else {
		e = &entry[V]{key: k, ready: make(chan struct{}), refs: 1}
		t.entries[k] = e
		mu.Unlock()
		e.val, e.size, e.err = load()
		mu.Lock()
		if e.err != nil {
			// Only remove the mapping if it is still ours — an
			// invalidation may have dropped it and a successor entry may
			// own the key now.
			if t.entries[k] == e {
				delete(t.entries, k)
			}
		} else {
			t.resident += e.size
			t.pinned += e.size
			t.admit(e)
		}
		mu.Unlock()
		close(e.ready)
	}
	if e.err != nil {
		mu.Lock()
		e.refs-- // never resident: no accounting to unwind
		mu.Unlock()
		return nil, hit, e.err
	}
	return e, hit, nil
}

// touch counts one get of k. Nothing is counted where nothing is ever
// decided: an unlimited tier admits everything, a zero budget nothing.
func (t *tier[V]) touch(k Key) {
	if t.budget <= 0 {
		return
	}
	if n := t.count[k]; n < maxCount {
		t.count[k] = n + 1
	}
	if t.gets++; t.gets < agePeriod*len(t.count) && len(t.count) <= maxTracked {
		return
	}
	t.gets = 0
	for k, n := range t.count {
		if n < 2 {
			delete(t.count, k)
		} else {
			t.count[k] = n / 2
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
// between two keys asked for equally often.
func (t *tier[V]) admit(e *entry[V]) {
	if e.doomed {
		return
	}
	if t.budget >= 0 {
		over, n, victims := t.retained+e.size-t.budget, t.count[e.key], 0
		for el := t.lru.Back(); over > 0; el = el.Prev() {
			if el == nil {
				return // nothing is dropped for a block that will not fit
			}
			v := el.Value.(*entry[V])
			if n <= t.count[v.key]+1 {
				return
			}
			over -= v.size
			victims++
		}
		for ; victims > 0; victims-- {
			v := t.lru.Remove(t.lru.Back()).(*entry[V])
			v.elem = nil
			t.evict(v)
		}
	}
	e.retained = true
	t.retained += e.size
}

// evict unmaps the unpinned e and frees it, counting a block dropped to
// fit the budget, admitted earlier or not.
func (t *tier[V]) evict(e *entry[V]) {
	delete(t.entries, e.key)
	t.evictions++
	t.free(e)
}

// free returns the bytes of e, which is unmapped and unpinned.
func (t *tier[V]) free(e *entry[V]) {
	t.resident -= e.size
	if e.retained {
		t.retained -= e.size
	}
	if t.drop != nil {
		t.drop(e)
	}
}

// unref unpins e: a retained entry becomes the most recently used
// displaceable one, any other is let go of at its last reference.
func (t *tier[V]) unref(e *entry[V]) {
	e.refs--
	if e.refs > 0 || e.err != nil {
		return
	}
	t.pinned -= e.size
	switch {
	case e.doomed:
		t.free(e)
	case !e.retained:
		t.evict(e)
	default:
		e.elem = t.lru.PushFront(e)
	}
}

// invalidate unmaps every entry of the generation and forgets its
// counts, returning how many entries it dropped. Unpinned entries are
// let go of at once; pinned ones at their final unref.
func (t *tier[V]) invalidate(gen uint64) (n int64) {
	for k := range t.count {
		if k.Gen == gen {
			delete(t.count, k)
		}
	}
	for k, e := range t.entries {
		if k.Gen != gen {
			continue
		}
		delete(t.entries, k)
		n++
		if e.refs == 0 {
			t.lru.Remove(e.elem)
			e.elem = nil
			t.free(e)
		} else {
			e.doomed = true
		}
	}
	return n
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
	// Evictions counts decoded blocks dropped to fit the L1 budget:
	// retained ones displaced by an admission, and ones that were not
	// admitted, at their last Release.
	Evictions int64
	// L2Evictions counts encoded blobs dropped to fit the L2 budget, the
	// same way.
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
	mu sync.Mutex
	l1 *tier[any]    // decoded blocks
	l2 *tier[[]byte] // encoded blobs; budget 0 disables the tier

	// spares are decoded blocks the cache has let go of — dropped or
	// invalidated at refs == 0, so no handle can reach them — kept for
	// GetTiered to hand to the next decode instead of to the garbage
	// collector. See recycleLocked for the bound.
	spares     []*entry[any]
	spareBytes int64

	hits, l2hits, misses, invalidations atomic.Int64
}

// New creates a single-tier cache with the given retained-byte budget. A
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
	c := &Cache{l2: newTier[[]byte](l2, nil)}
	c.l1 = newTier(l1, c.recycleLocked)
	return c
}

// SplitBudget divides a combined cache budget between the tiers. frac is
// the encoded tier's share: zero or negative gives the whole budget to
// decoded blocks, and values are capped at 0.9 so L1 always keeps
// working room. An unlimited (negative) total disables L2 outright —
// with nothing ever dropped from L1 the encoded tier would only
// duplicate bytes.
func SplitBudget(total int64, frac float64) (l1, l2 int64) {
	if total < 0 || frac <= 0 {
		return total, 0
	}
	l2 = int64(float64(total) * min(frac, 0.9))
	return total - l2, l2
}

// Budget returns the configured L1 retained-byte budget (< 0 = unlimited).
func (c *Cache) Budget() int64 { return c.l1.budget }

// L2Budget returns the configured L2 budget (0 = tier disabled).
func (c *Cache) L2Budget() int64 { return c.l2.budget }

// Handle is a pinned reference to a cached block. The block cannot be
// dropped until Release; the value must not be mutated (it is shared by
// every concurrent holder).
type Handle struct {
	c        *Cache
	e        *entry[any]
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
	h.c.l1.unref(h.e)
	h.c.mu.Unlock()
}

// Get returns a pinned handle for key, running load to produce the block
// on a miss. Concurrent Gets for the same key coalesce: exactly one runs
// load, the rest wait and share the result. A load error is returned to
// every waiter and nothing is cached.
func (c *Cache) Get(key Key, load func() (val any, size int64, err error)) (*Handle, error) {
	return c.getL1(key, load, true)
}

// getL1 is Get; disk says that load reads the store, so a successful one
// is a miss.
func (c *Cache) getL1(key Key, load func() (any, int64, error), disk bool) (*Handle, error) {
	c.mu.Lock()
	e, hit, err := c.l1.get(&c.mu, key, load)
	if err != nil {
		return nil, err
	}
	if hit {
		c.hits.Add(1)
	} else if disk {
		c.misses.Add(1)
	}
	return &Handle{c: c, e: e}, nil
}

// GetTiered returns a pinned handle for key, consulting the encoded
// tier between the decoded tier and disk: an L1 hit returns the decoded
// block; an L1 miss with the blob in L2 runs decode on the in-RAM bytes;
// only an L2 miss runs loadRaw (the disk read). Both tiers single-flight
// — concurrent callers of one Key coalesce on the decode and on the disk
// read. The blob stays pinned until decode returns, so eviction can never
// free it mid-decode. With the L2 tier disabled this is Get with a
// composed loader.
//
// want is the size the caller expects decode to report, or 0. decode's
// spare is then the smallest block of at least that size (and at most
// twice it) the cache has let go of at refs == 0, or nil: a value no
// handle reaches any more, whose memory decode may overwrite and return
// as val. Ownership passes to decode; a spare it does not return is
// garbage.
func (c *Cache) GetTiered(key Key, want int64, loadRaw func() ([]byte, error), decode func(blob []byte, spare any) (val any, size int64, err error)) (*Handle, error) {
	if c.l2.budget == 0 {
		return c.getL1(key, func() (any, int64, error) {
			blob, err := loadRaw()
			if err != nil {
				return nil, 0, err
			}
			return decode(blob, c.takeSpare(want))
		}, true)
	}
	// The L1 entry is claimed first (single-flight for the decode); its
	// load fetches the blob with an L2 reference held across the decode.
	return c.getL1(key, func() (any, int64, error) {
		c.mu.Lock()
		le, hit, err := c.l2.get(&c.mu, key, func() ([]byte, int64, error) {
			blob, err := loadRaw()
			return blob, int64(len(blob)), err
		})
		if err != nil {
			return nil, 0, err
		}
		if hit {
			// Served from RAM even if we waited on another caller's disk
			// read: only one read happened.
			c.l2hits.Add(1)
		} else {
			c.misses.Add(1)
		}
		val, size, err := decode(le.val, c.takeSpare(want))
		c.mu.Lock()
		c.l2.unref(le)
		c.mu.Unlock()
		return val, size, err
	}, false)
}

// recycleLocked keeps the block of e — unmapped and unpinned, so out of
// every handle's reach — as the newest spare, then drops the oldest
// until the spares are no larger than what is pinned right now. Misses
// come from a pipeline that pins one fetch batch while it loads the
// next: a released batch's worth of dropped blocks is what its next
// batch of misses can use, so one batch's pins is the measure, and
// nothing pinned means nothing kept. There is no setting. Caller holds mu.
func (c *Cache) recycleLocked(e *entry[any]) {
	c.spares = append(c.spares, e)
	c.spareBytes += e.size
	n := 0
	for ; c.spareBytes > c.l1.pinned; n++ {
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

// InvalidateGeneration drops every block of the given store generation.
// Unpinned blocks are freed immediately; pinned ones are unmapped now
// (no future Get can return them) and their bytes are returned when the
// last holder releases. Callers invalidate after ensuring no new run
// will request the generation (the server does this under the graph's
// run lock during a compaction swap).
func (c *Cache) InvalidateGeneration(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidations.Add(c.l1.invalidate(gen) + c.l2.invalidate(gen))
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:            c.hits.Load(),
		L2Hits:          c.l2hits.Load(),
		Misses:          c.misses.Load(),
		Evictions:       c.l1.evictions,
		L2Evictions:     c.l2.evictions,
		Invalidations:   c.invalidations.Load(),
		Blocks:          int64(len(c.l1.entries)),
		L2Blocks:        int64(len(c.l2.entries)),
		ResidentBytes:   c.l1.resident,
		PinnedBytes:     c.l1.pinned,
		L2ResidentBytes: c.l2.resident,
		L2PinnedBytes:   c.l2.pinned,
	}
}
