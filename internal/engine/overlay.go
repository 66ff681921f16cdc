package engine

import (
	"fmt"

	"nxgraph/internal/storage"
)

// Overlay presents pending structural deltas — edges inserted or removed
// since the store was preprocessed — to engine runs, enabling live
// queries over a mutating graph without rebuilding the DSSS store.
//
// An Overlay is an immutable snapshot: a Run captures one at NewRun time
// and consults it for the whole execution, so a job observes exactly the
// deltas acknowledged before it started. Implementations live outside the
// engine (internal/dynamic compiles one from a DeltaLog).
//
// Inserted edges are exposed as per-cell destination-sorted sub-shards in
// the same dense-id space as the base store; they flow through the same
// gather kernels as base edges. Removed edges are exposed as tombstones:
// per-cell data — the short sorted list of the cell's dead base edges —
// which the task builders resolve to the few destinations that lose an
// edge before any kernel runs (see tombstones.go); every other
// destination gathers exactly as it would without an overlay. Tombstones
// never apply to overlay-inserted edges — a remove-then-re-add sequence
// tombstones the base copies and re-inserts through the overlay.
type Overlay interface {
	// Cell returns the pending inserted edges whose (source, destination)
	// intervals are (i, j) in the given traversal replica, as a
	// destination-sorted sub-shard, or nil when the cell has none. For
	// the transpose replica the edges are reversed, mirroring the
	// on-disk transposed sub-shards.
	Cell(i, j int, transpose bool) *storage.SubShard
	// CellTombstones returns the dead base edges of cell (i, j) of the
	// given replica as ascending dst<<32|src keys (TombKey) in the
	// replica's own orientation, or nil when the cell has none. A key kills every base
	// copy of its pair (parallel edges die together), and only pairs
	// that kill at least one base copy are listed.
	CellTombstones(i, j int, transpose bool) []uint64
	// Degrees returns the overlay-adjusted out- and in-degree arrays
	// (dense-id order, length NumVertices). Gather normalizes by source
	// degree, so serving deltas without adjusting degrees would skew
	// degree-sensitive programs like PageRank.
	Degrees() (out, in []uint32)
	// DeltaEdges returns the net edge-count delta (insertions minus
	// tombstoned base copies).
	DeltaEdges() int64
}

// OverlayProvider supplies the overlay snapshot for a new run; it may
// return (nil, nil) when no deltas are pending. It is called once per
// NewRun, from the goroutine creating the run.
type OverlayProvider func() (Overlay, error)

// SetOverlayProvider installs the engine's overlay source. It must be
// set before runs are created and not changed while runs exist; the
// provider itself may return a different snapshot per run (that is the
// point — each run sees the deltas current at its start).
func (e *Engine) SetOverlayProvider(p OverlayProvider) { e.overlayProvider = p }

// initOverlay captures the overlay snapshot for this run and resolves
// the degree arrays gather will use.
func (r *Run) initOverlay() error {
	if r.e.overlayProvider == nil {
		return nil
	}
	ov, err := r.e.overlayProvider()
	if err != nil {
		return fmt.Errorf("engine: overlay snapshot: %w", err)
	}
	if ov == nil {
		return nil
	}
	r.ov = ov
	r.ovOut, r.ovIn = ov.Degrees()
	return nil
}

// ovCell returns the overlay sub-shard for cell (i, j) of traversal flag
// d, or nil.
func (r *Run) ovCell(d, i, j int) *storage.SubShard {
	if r.ov == nil {
		return nil
	}
	return r.ov.Cell(i, j, d == 1)
}

// cellHasEdges reports whether cell (i, j) of traversal flag d holds any
// edges to gather — base or overlay. It drives row/column scheduling, so
// a cell empty on disk but populated by pending insertions is still
// visited.
func (r *Run) cellHasEdges(d, i, j int) bool {
	if r.subShardInfosFor(d)[i*r.e.store.Meta().P+j].Edges > 0 {
		return true
	}
	return r.ovCell(d, i, j) != nil
}

// ovHubVals returns (allocating on first use) the in-memory accumulator
// for overlay cell (i, j): per-destination partials parallel to the
// cell's Dsts, L lane-minor values each. The on-disk hub regions are
// sized from the base meta and cannot absorb overlay destinations, so
// overlay contributions to on-disk destination intervals are kept in
// memory — they are bounded by the compaction threshold, unlike the base
// edge set.
func (r *Run) ovHubVals(d, i, j int, cell *storage.SubShard) []float64 {
	P := r.e.store.Meta().P
	if r.ovHub[d] == nil {
		r.ovHub[d] = make(map[int][]float64)
	}
	vals := r.ovHub[d][i*P+j]
	if vals == nil {
		vals = make([]float64, cell.NumDsts()*len(r.lanes))
		r.ovHub[d][i*P+j] = vals
	}
	return vals
}
