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
// gets an empty sub-shard. Each cell lists its destinations in
// count-class order, ascending by id within a class, each with its
// sources in that sorted order. The order is total, so the sub-shards
// are a function of the edge multiset alone. Weights are kept only when
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

// newSubShard lays out one cell's sorted edges as a sub-shard in
// count-class order (see SubShard) whose Dsts, Offsets and Srcs share
// one exactly sized array: a first pass sizes each class, a second
// copies each destination's run to the next slot of its class.
func newSubShard(cell []graph.Edge, weighted bool) *SubShard {
	runEnd := func(lo int) int {
		hi := lo + 1
		for hi < len(cell) && cell[hi].Dst == cell[lo].Dst {
			hi++
		}
		return hi
	}
	var dsts, edges [NumClasses]int // per class
	for lo := 0; lo < len(cell); {
		hi := runEnd(lo)
		dsts[classOf(hi-lo)]++
		edges[classOf(hi-lo)] += hi - lo
		lo = hi
	}
	nd, ne := dsts[0]+dsts[1]+dsts[2]+dsts[3], len(cell)
	arr := make([]uint32, 2*nd+1+ne)
	ss := &SubShard{Dsts: arr[:nd:nd], Offsets: arr[nd : 2*nd+1 : 2*nd+1], Srcs: arr[2*nd+1:]}
	if weighted {
		ss.Weights = make([]float32, ne)
	}
	var k, e [NumClasses]int // the next destination and edge of each class
	for c := 1; c < NumClasses; c++ {
		k[c], e[c] = k[c-1]+dsts[c-1], e[c-1]+edges[c-1]
		ss.ClassEnds[c-1] = k[c]
	}
	for lo := 0; lo < len(cell); {
		hi := runEnd(lo)
		c := classOf(hi - lo)
		ss.Dsts[k[c]] = cell[lo].Dst
		for x, edge := range cell[lo:hi] {
			ss.Srcs[e[c]+x] = edge.Src
			if weighted {
				ss.Weights[e[c]+x] = edge.Weight
			}
		}
		e[c] += hi - lo
		ss.Offsets[k[c]+1] = uint32(e[c])
		k[c]++
		lo = hi
	}
	return ss
}
