package bench

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nxgraph/internal/storage"
)

// srcEdge is one edge of a sub-shard flattened into source order.
type srcEdge struct{ src, dst uint32 }

// srcSortedPageRank is Table IV's comparison point (§IV, Exp 1): iters
// PageRank iterations with the given damping over st's forward edges in
// source order, one task per sub-shard on threads workers — the
// GraphChi-style layout and parallel grain the paper measures DSSS
// against. Only Table IV runs it, so it does exactly that run: every
// interval resident, no overlay, no mask. The timed region starts at the
// first sub-shard read, as an SPU engine run's does: each of the P²
// sub-shards is read once and flattened into source order. Each iteration
// sweeps the rows in order, scattering acc[d] += a[s]/deg[s] edge by edge;
// a row's cells hold disjoint destination intervals, so no task locks.
// Ranks agree with the engine's to rounding: each destination's sum
// associates differently.
func srcSortedPageRank(st *storage.Store, damping float64, iters, threads int) ([]float64, time.Duration, error) {
	m := st.Meta()
	deg, _, err := st.Degrees()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	cells := make([][]srcEdge, m.P*m.P)
	for c := range cells {
		ss, err := st.ReadSubShard(c/m.P, c%m.P, false)
		if err != nil {
			return nil, 0, err
		}
		for k, d := range ss.Dsts {
			for _, s := range ss.Srcs[ss.Offsets[k]:ss.Offsets[k+1]] {
				cells[c] = append(cells[c], srcEdge{s, d})
			}
		}
		slices.SortStableFunc(cells[c], func(a, b srcEdge) int { return cmp.Compare(a.src, b.src) })
	}
	n := float64(m.NumVertices)
	curr, next := make([]float64, m.NumVertices), make([]float64, m.NumVertices)
	for v := range curr {
		curr[v] = 1 / n
	}
	for it := 0; it < iters; it++ {
		dangling := 0.0
		for v, a := range curr {
			if deg[v] == 0 {
				dangling += a
			}
		}
		clear(next)
		for i := 0; i < m.P; i++ {
			row := cells[i*m.P : (i+1)*m.P]
			parallelFor(threads, m.P, func(j int) {
				for _, e := range row[j] {
					next[e.dst] += curr[e.src] / float64(deg[e.src])
				}
			})
		}
		base, dm := (1-damping)/n, dangling/n
		for v, acc := range next {
			next[v] = base + damping*(dm+acc)
		}
		curr, next = next, curr
	}
	return curr, time.Since(start), nil
}

// parallelFor runs fn(i) for i in [0, n) on up to threads goroutines
// pulling indices from a shared counter, and returns when all are done.
func parallelFor(threads, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(max(threads, 1), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
