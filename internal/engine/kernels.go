package engine

import (
	"math"

	"nxgraph/internal/bitset"
	"nxgraph/internal/storage"
)

// view is a window over per-vertex attributes: vals[v-base] is the
// attribute of vertex v. A full-array view has base 0.
type view struct {
	vals []float64
	base uint32
}

func (v view) at(id uint32) float64 { return v.vals[id-v.base] }

// gatherCSR is the interface-path gather kernel, the reference the
// specialized kernels are checked against: for each distinct destination
// k0 ≤ k < k1 of a destination-sorted sub-shard it folds the Gather
// contributions of its (source-sorted) in-edges with Sum, starting from
// Zero. When hub is non-nil the partial is assigned to hub[k] (parallel
// to ss.Dsts — the ToHub kernel; every k is assigned, so reused arrays
// need no zeroing, and a destination whose base edges are all tombstoned
// stores Zero, which folds as a no-op); otherwise it is Sum-folded into
// acc. Distinct destination ranges are disjoint, so concurrent calls with
// non-overlapping [k0,k1) need no synchronization — this is the
// fine-grained parallelism of paper §III-D.
//
// del, when non-nil, is the delta-overlay tombstone predicate: base edges
// it reports as removed are skipped, so a run serves the post-mutation
// graph without rewriting the sub-shard on disk. Only a range that is a
// single dirty destination carries one (see cellTombs.gather); every
// other range passes nil and pays nothing.
func gatherCSR(p Program, deg []uint32, mask *bitset.Set, del delPred, ss *storage.SubShard, src, acc view, hub []float64, k0, k1 int) {
	zero := p.Zero()
	for k := k0; k < k1; k++ {
		local := zero
		d := ss.Dsts[k]
		lo, hi := ss.Offsets[k], ss.Offsets[k+1]
		for t := lo; t < hi; t++ {
			s := ss.Srcs[t]
			if mask != nil && mask.Test(int(s)) {
				continue
			}
			if del != nil && del(s, d) {
				continue
			}
			w := float32(1)
			if ss.Weights != nil {
				w = ss.Weights[t]
			}
			local = p.Sum(local, p.Gather(src.at(s), deg[s], w))
		}
		if hub != nil {
			hub[k] = local
		} else {
			acc.vals[d-acc.base] = p.Sum(acc.vals[d-acc.base], local)
		}
	}
}

// foldHub folds hub entries with destination index in [k0, k1) of the
// entry arrays into acc — the FromHub kernel.
func foldHub(p Program, dsts []uint32, vals []float64, acc view, k0, k1 int) {
	for k := k0; k < k1; k++ {
		d := dsts[k]
		acc.vals[d-acc.base] = p.Sum(acc.vals[d-acc.base], vals[k])
	}
}

// applyRange applies accumulated contributions for vertices [v0, v1) of
// one program through the Program interface: with idx = int(v)*stride+off
// (a slab lane, or a window with base b as stride 1, off -b — the
// LaneApplier convention), acc[idx] = Apply(v, old[idx], acc[idx]). It
// reports whether any vertex changed. Masked vertices keep their old
// attribute.
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
