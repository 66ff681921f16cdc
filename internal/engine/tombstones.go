package engine

import (
	"slices"

	"nxgraph/internal/storage"
)

// This file keeps overlay tombstones off the per-edge path. A base cell's
// tombstones arrive from the Overlay as a short sorted key slice; the
// task builders resolve it once per cell visit against the decoded
// sub-shard into the (few) destinations that actually lose an edge, each
// with a one-destination cell of its surviving edges. Every gather task
// then walks its chunk as long clean runs of the base cell and single
// dirty destinations, each folded from its survivor cell — so every
// kernel folds exactly the edges it is handed, with no predicate.
//
// Splitting a chunk into runs is invisible in the results: inside a
// sub-shard every destination appears once and its fold is an
// independent left-associative chain over its surviving edges in edge
// order, so neither any destination's chain nor the order destinations
// are visited changes. See docs/adr/ADR-005-tombstones-by-destination.md
// and ADR-023.

// TombKey packs base edge (src, dst) — in its replica's own orientation —
// into the destination-major key Overlay.CellTombstones lists.
func TombKey(src, dst uint32) uint64 { return uint64(dst)<<32 | uint64(src) }

// cellTombs is one base cell's tombstones resolved against its decoded
// sub-shard. The nil *cellTombs is the cell without tombstones.
type cellTombs struct {
	dirty []int              // ascending indices into ss.Dsts that lose ≥ 1 edge
	cells []storage.SubShard // cells[x]: destination dirty[x] and its surviving edges
}

// cellTombsOf resolves the tombstones ov lists for base cell (i, j) of
// traversal flag d against the cell's decoded sub-shard ss. It returns
// nil when there is no overlay or the cell has no pending removals.
func cellTombsOf(ov Overlay, d, i, j int, ss *storage.SubShard) *cellTombs {
	if ov == nil {
		return nil
	}
	return resolveTombs(ov.CellTombstones(i, j, d == 1), ss)
}

// resolveTombs locates the destinations of ss named by keys (ascending
// TombKeys) and copies each one's surviving edges, in edge order and
// with their weights, into a one-destination cell; a destination that
// loses every edge gets an empty one, which folds to Zero. A cached
// block lists its destinations in count-class order, ascending by id
// within each class (storage.ClassOrder; a sub-shard in id order is one
// class), so each named destination costs one binary search per class,
// within the bounds the decoder recorded. The classes are searched one
// after another, each past its previous hit, so dirty comes out
// ascending.
func resolveTombs(keys []uint64, ss *storage.SubShard) *cellTombs {
	var t cellTombs
	b := ss.Classes()
	for c := range storage.NumClasses {
		k, hi := b[c], b[c+1]
		for rest := keys; len(rest) > 0 && k < hi; {
			d, n := uint32(rest[0]>>32), 1
			for n < len(rest) && uint32(rest[n]>>32) == d {
				n++
			}
			dead := rest[:n]
			rest = rest[n:]
			pos, found := slices.BinarySearch(ss.Dsts[k:hi], d)
			k += pos
			if !found {
				continue
			}
			t.dirty = append(t.dirty, k)
			t.cells = append(t.cells, survivors(ss, k, dead))
		}
	}
	if t.dirty == nil {
		return nil
	}
	return &t
}

// survivors returns destination k of ss as a one-destination cell of
// the edges dead (its tombstones' keys, ascending) does not name.
func survivors(ss *storage.SubShard, k int, dead []uint64) storage.SubShard {
	d, lo, hi := ss.Dsts[k], ss.Offsets[k], ss.Offsets[k+1]
	c := storage.SubShard{Dsts: ss.Dsts[k : k+1], Offsets: []uint32{0, 0}, Srcs: make([]uint32, 0, hi-lo)}
	if ss.Weights != nil {
		c.Weights = make([]float32, 0, hi-lo)
	}
	for e := lo; e < hi; e++ {
		if _, gone := slices.BinarySearch(dead, TombKey(ss.Srcs[e], d)); !gone {
			c.Srcs = append(c.Srcs, ss.Srcs[e])
			if c.Weights != nil {
				c.Weights = append(c.Weights, ss.Weights[e])
			}
		}
	}
	c.Offsets[1] = uint32(len(c.Srcs))
	return c
}

// gather folds destinations [k0, k1) of base cell ss through kernel:
// clean runs from ss itself, each dirty destination from its survivor
// cell as that cell's destination 0, with the hub window (nil on the
// accumulator side; L values per entry) shifted to the destination's
// entry.
func (t *cellTombs) gather(ss *storage.SubShard, hub []float64, L, k0, k1 int, kernel func(ss *storage.SubShard, hub []float64, k0, k1 int)) {
	if t == nil {
		kernel(ss, hub, k0, k1)
		return
	}
	splitRuns(t.dirty, k0, k1, func(a, b int, dirty bool) {
		if !dirty {
			kernel(ss, hub, a, b)
			return
		}
		x, _ := slices.BinarySearch(t.dirty, a)
		var h []float64
		if hub != nil {
			h = hub[a*L : (a+1)*L]
		}
		kernel(&t.cells[x], h, 0, 1)
	})
}

// splitRuns tiles [k0, k1) in ascending order with maximal runs that
// avoid every index in dirty (ascending) and one single-index range per
// dirty index inside the range.
func splitRuns(dirty []int, k0, k1 int, visit func(a, b int, dirty bool)) {
	k := k0
	first, _ := slices.BinarySearch(dirty, k0)
	for _, dk := range dirty[first:] {
		if dk >= k1 {
			break
		}
		if dk > k {
			visit(k, dk, false)
		}
		visit(dk, dk+1, true)
		k = dk + 1
	}
	if k < k1 {
		visit(k, k1, false)
	}
}
