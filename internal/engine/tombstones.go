package engine

import (
	"slices"

	"nxgraph/internal/storage"
)

// This file keeps overlay tombstones off the per-edge path. A base cell's
// tombstones arrive from the Overlay as a short sorted key slice; the
// task builders resolve it once against the decoded sub-shard into the
// (few) destinations that actually lose an edge, and every gather task
// then walks its chunk as long clean runs — handed to the kernels with
// no predicate, so the unfiltered fast paths stay on — and single dirty
// destinations, handed to the filtered variants.
//
// Splitting a chunk into runs is invisible in the results: inside a
// sub-shard every destination appears once and its fold is an
// independent left-associative chain, so neither any destination's chain
// nor the order destinations are visited changes. See
// docs/adr/ADR-005-tombstones-by-destination.md.

// delPred is the tombstone predicate the filtered kernel variants apply
// to the base edges of one dirty destination (nil for clean runs).
type delPred = func(src, dst uint32) bool

// TombKey packs base edge (src, dst) — in its replica's own orientation —
// into the destination-major key Overlay.CellTombstones lists.
func TombKey(src, dst uint32) uint64 { return uint64(dst)<<32 | uint64(src) }

// cellTombs is one base cell's tombstones resolved against its decoded
// sub-shard. The nil *cellTombs is the cell without tombstones.
type cellTombs struct {
	dirty []int   // ascending indices into ss.Dsts that lose ≥ 1 edge
	del   delPred // binary search in the cell's key slice
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
// TombKeys). Both sides ascend by destination, so each lookup searches
// only past the previous hit.
func resolveTombs(keys []uint64, ss *storage.SubShard) *cellTombs {
	var dirty []int
	k := 0
	for x, key := range keys {
		d := uint32(key >> 32)
		if x > 0 && uint32(keys[x-1]>>32) == d {
			continue
		}
		pos, found := slices.BinarySearch(ss.Dsts[k:], d)
		k += pos
		if found {
			dirty = append(dirty, k)
		}
	}
	if dirty == nil {
		return nil
	}
	return &cellTombs{dirty: dirty, del: func(src, dst uint32) bool {
		_, dead := slices.BinarySearch(keys, TombKey(src, dst))
		return dead
	}}
}

// gather folds destinations [k0, k1) through kernel, giving it the
// tombstone predicate only for the destinations that need it.
func (t *cellTombs) gather(k0, k1 int, kernel func(del delPred, k0, k1 int)) {
	if t == nil {
		kernel(nil, k0, k1)
		return
	}
	splitRuns(t.dirty, k0, k1, func(a, b int, dirty bool) {
		if dirty {
			kernel(t.del, a, b)
		} else {
			kernel(nil, a, b)
		}
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
