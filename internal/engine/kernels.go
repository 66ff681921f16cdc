package engine

import (
	"math"

	"nxgraph/internal/bitset"
)

// view is a window over per-vertex attributes: vals[v-base] is the
// attribute of vertex v — for a run of L lanes, vals[(v-base)*L+l] is
// lane l's. A full-array view has base 0.
type view struct {
	vals []float64
	base uint32
}

// applyRange applies accumulated contributions for vertices [v0, v1) of
// one program through the Program interface: with idx = int(v)*stride+off
// (a slab lane or a window lane — the LaneApplier convention),
// acc[idx] = Apply(v, old[idx], acc[idx]). It reports whether any vertex
// changed. Masked vertices keep their old attribute.
func applyRange(p Program, mask *bitset.Set, old, acc []float64, stride, off int, v0, v1 uint32) bool {
	changed := false
	for v := v0; v < v1; v++ {
		idx := int(v)*stride + off
		if mask != nil && mask.Test(int(v)) {
			acc[idx] = old[idx]
			continue
		}
		nv, ch := p.Apply(v, old[idx], acc[idx])
		acc[idx] = nv
		if ch {
			changed = true
		}
	}
	return changed
}

// copyLane carries lane l's attributes forward unchanged for vertices
// [v0, v1) — the untouched-interval (and retired-lane) path of the apply
// phase.
func copyLane(curr, next []float64, L, l int, v0, v1 uint32) {
	if L == 1 {
		copy(next[v0:v1], curr[v0:v1])
		return
	}
	for v := v0; v < v1; v++ {
		idx := int(v)*L + l
		next[idx] = curr[idx]
	}
}

// zeroSlab resets s to the run's Zero. The literal-0 branch compiles to
// memclr.
func zeroSlab(s []float64, zero float64) {
	if math.Float64bits(zero) == 0 {
		for i := range s {
			s[i] = 0
		}
	} else {
		fill(s, zero)
	}
}

// fill sets vals[i] = x for all i.
func fill(vals []float64, x float64) {
	for i := range vals {
		vals[i] = x
	}
}
