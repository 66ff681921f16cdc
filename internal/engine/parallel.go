package engine

import (
	"sort"
	"sync"
	"sync/atomic"
)

// parallelFor runs fn(i) for i in [0, n) on up to `threads` goroutines,
// pulling indices from a shared atomic counter (work stealing keeps skewed
// sub-shards from serializing the pool). It returns after every call has
// completed — the paper's "callback" completion signalling, the engine's
// only synchronization mechanism: tasks in one call write disjoint
// destinations, so no attribute data is ever locked.
func parallelFor(threads, n int, fn func(i int)) {
	if n == 0 {
		return
	}
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// chunkRanges splits [0, n) into ranges of at most size, returning the
// boundaries (len = number of chunks + 1). n = 0 has zero chunks, so the
// result is the canonical single boundary [0] — callers iterating
// len(bounds)-1 chunks schedule nothing instead of one empty chunk.
func chunkRanges(n, size int) []int {
	if size <= 0 {
		size = 1
	}
	bounds := []int{0}
	for b := 0; b < n; {
		b += size
		if b > n {
			b = n
		}
		bounds = append(bounds, b)
	}
	return bounds
}

// edgeChunkRanges splits the destinations of a CSR (offsets has one entry
// per destination plus a final edge count) into chunks of roughly equal
// work, returning destination-index boundaries like chunkRanges. The cost
// of destination k is 1 + its edge count, so a chunk closes at the first
// destination where accumulated edges + destinations reaches target —
// a hub destination with a million in-edges gets a chunk of its own while
// sparse destinations pack thousands to a chunk. Boundaries stay at
// destination granularity (a single destination's fold is one
// left-associative chain and cannot split), so chunking never affects
// results, only load balance.
func edgeChunkRanges(offsets []uint32, target int) []int {
	n := len(offsets) - 1
	if n <= 0 {
		return []int{0}
	}
	if target <= 0 {
		target = 1
	}
	cost := func(k int) int { return int(offsets[k]) + k } // prefix cost: edges so far + destinations so far
	bounds := make([]int, 1, 2+cost(n)/target)
	for k := 0; k < n; {
		want := cost(k) + target
		// First boundary past k whose prefix cost reaches want; cost is
		// strictly increasing in k, so binary search applies.
		nk := k + 1 + sort.Search(n-k-1, func(i int) bool { return cost(k+1+i) >= want })
		bounds = append(bounds, nk)
		k = nk
	}
	return bounds
}
