package storage

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"nxgraph/internal/graph"
)

// BuildSubShards is the one place the DSSS cell order is decided. It
// sorts edges (dense ids) in place into (source interval, destination
// interval, destination, source, weight bits) order, where interval k
// holds the ids [k·size, (k+1)·size), and calls fn once for each of the
// P² cells in row-major order: cell i·P+j is SS[i][j], and an empty cell
// gets an empty sub-shard. The order is total, so the sub-shards are a
// function of the edge multiset alone. Weights are kept only when
// weighted. fn owns the sub-shard it is handed; its arrays are exactly
// as long as what it holds.
//
// The sharder streams the cells into a Writer; the delta overlay keeps
// the non-empty ones in memory for the engine to gather.
func BuildSubShards(edges []graph.Edge, size uint32, P int, weighted bool, fn func(cell int, ss *SubShard) error) error {
	if P <= 0 || size == 0 {
		return fmt.Errorf("storage: build sub-shards: P=%d, interval size %d", P, size)
	}
	cells := P * P
	cellOf := func(e graph.Edge) int { return int(e.Src/size)*P + int(e.Dst/size) }

	// Bucket first: count the edges of each cell, then permute them into
	// their cells in place (a one-digit American flag sort), so the
	// per-cell sort below compares no interval keys.
	bound := make([]int, cells+1) // cell c holds edges[bound[c]:bound[c+1]]
	for k, e := range edges {
		if e.Src/size >= uint32(P) || e.Dst/size >= uint32(P) {
			return fmt.Errorf("storage: build sub-shards: edge %d (%d->%d) lies outside %d intervals of %d ids",
				k, e.Src, e.Dst, P, size)
		}
		bound[cellOf(e)+1]++
	}
	for c := 1; c <= cells; c++ {
		bound[c] += bound[c-1]
	}
	next := slices.Clone(bound[:cells]) // first slot of each cell not yet known to hold its own edge
	for c := range cells {
		for next[c] < bound[c+1] {
			e := edges[next[c]]
			if d := cellOf(e); d != c {
				edges[next[c]], edges[next[d]] = edges[next[d]], e
				next[d]++
				continue
			}
			next[c]++
		}
	}

	for c := range cells {
		cell := edges[bound[c]:bound[c+1]]
		slices.SortFunc(cell, inCellOrder)
		if err := fn(c, newSubShard(cell, weighted)); err != nil {
			return err
		}
	}
	return nil
}

// inCellOrder orders the edges of one cell by destination, source and
// weight bits, returning at the first key that differs.
func inCellOrder(a, b graph.Edge) int {
	if a.Dst != b.Dst {
		return cmp.Compare(a.Dst, b.Dst)
	}
	if a.Src != b.Src {
		return cmp.Compare(a.Src, b.Src)
	}
	return cmp.Compare(math.Float32bits(a.Weight), math.Float32bits(b.Weight))
}

// newSubShard lays out one cell's sorted edges as a sub-shard whose
// Dsts, Offsets and Srcs share one exactly sized array.
func newSubShard(cell []graph.Edge, weighted bool) *SubShard {
	nd := 0
	for k, e := range cell {
		if k == 0 || e.Dst != cell[k-1].Dst {
			nd++
		}
	}
	ne := len(cell)
	arr := make([]uint32, 2*nd+1+ne)
	ss := &SubShard{
		Dsts:    arr[:0:nd],
		Offsets: arr[nd : nd+1 : 2*nd+1],
		Srcs:    arr[2*nd+1:],
	}
	if weighted {
		ss.Weights = make([]float32, ne)
	}
	for k, e := range cell {
		if k == 0 || e.Dst != cell[k-1].Dst {
			ss.Dsts = append(ss.Dsts, e.Dst)
			ss.Offsets = append(ss.Offsets, uint32(k))
		}
		ss.Offsets[len(ss.Offsets)-1] = uint32(k + 1)
		ss.Srcs[k] = e.Src
		if ss.Weights != nil {
			ss.Weights[k] = e.Weight
		}
	}
	return ss
}
