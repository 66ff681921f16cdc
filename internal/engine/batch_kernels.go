package engine

import "nxgraph/internal/storage"

// This file holds the multi-lane gather kernels: what a Run of L > 1
// lanes folds a sub-shard through (a one-lane run uses scalar_kernels.go;
// Run.gatherTasks picks). They keep gatherCSR's shape — a per-destination
// local fold over the destination's in-edges, then one fold of the local
// into the accumulator — replicated per lane over the run's lane-minor
// slabs, so every lane's floating-point operations happen in exactly the
// order a one-lane run would perform them and results stay bit-identical.
//
// When every lane declares the same KernelHint, the per-edge Program
// interface dispatch (two calls per edge per lane in the generic path)
// is replaced by direct arithmetic on the slabs. This is where the fused
// throughput win comes from: the edge decode and degree load are paid
// once per edge, and the per-lane work shrinks to one or two FP
// operations on consecutive memory.

// gatherCell folds destinations [k0, k1) of sub-shard ss into the
// accumulator slab r.next for the given lanes, reading r.curr — a wide
// run is all-resident, so the kernels address the run's own slabs (as
// fields: measured ~10 % faster in gatherRankSumDense than the same
// slabs passed as arguments). del is the tombstone predicate when
// [k0, k1) is a single dirty destination of a base cell, nil for every
// clean run; scaled is the direction's hoisted rank-sum view, used
// exactly when the run's hint is KernelRankSum. contig and local (one
// float64 per lane of scratch) are per-task facts the caller computes
// once — see Run.gatherTasks.
func (r *Run) gatherCell(ss *storage.SubShard, deg []uint32, scaled []float64, del delPred, lanes []int, contig bool, local []float64, k0, k1 int) {
	switch r.hint {
	case KernelRankSum:
		r.gatherRankSum(ss, scaled, del, lanes, contig, local, k0, k1)
	case KernelHopMin:
		r.gatherMin(ss, del, lanes, contig, local, k0, k1, false)
	case KernelDistMin:
		r.gatherMin(ss, del, lanes, contig, local, k0, k1, true)
	default:
		r.gatherGeneric(ss, deg, del, lanes, local, k0, k1)
	}
}

// gatherGeneric is the hint-free lane kernel: per-edge Program dispatch,
// one Gather+Sum pair per lane.
func (r *Run) gatherGeneric(ss *storage.SubShard, deg []uint32, del delPred, lanes []int, local []float64, k0, k1 int) {
	L, zero := len(r.lanes), r.zero
	for k := k0; k < k1; k++ {
		d := ss.Dsts[k]
		for x := range local {
			local[x] = zero
		}
		lo, hi := ss.Offsets[k], ss.Offsets[k+1]
		for t := lo; t < hi; t++ {
			s := ss.Srcs[t]
			if del != nil && del(s, d) {
				continue
			}
			w := float32(1)
			if ss.Weights != nil {
				w = ss.Weights[t]
			}
			sb := int(s) * L
			for x, l := range lanes {
				p := r.lanes[l].p
				local[x] = p.Sum(local[x], p.Gather(r.curr[sb+l], deg[s], w))
			}
		}
		db := int(d) * L
		for x, l := range lanes {
			r.next[db+l] = r.lanes[l].p.Sum(r.next[db+l], local[x])
		}
	}
}

// gatherRankSum is the KernelRankSum specialization:
// Gather = attr/deg, Sum = +. The divisions by float64(deg[s]) were
// hoisted into the per-iteration scaled slab (see refreshScaled) with
// exactly the operands a scalar Gather would use, so the edge loop here
// is pure left-to-right additions and stays bit-identical to the scalar
// pprProg/pageRankProg operations.
func (r *Run) gatherRankSum(ss *storage.SubShard, scaled []float64, del delPred, lanes []int, contig bool, local []float64, k0, k1 int) {
	L := len(r.lanes)
	if contig && del == nil {
		r.gatherRankSumDense(ss, scaled, local, k0, k1, lanes[0])
		return
	}
	off, w := 0, len(local)
	if contig {
		off = lanes[0]
	}
	for k := k0; k < k1; k++ {
		d := ss.Dsts[k]
		for x := range local {
			local[x] = 0
		}
		lo, hi := ss.Offsets[k], ss.Offsets[k+1]
		for t := lo; t < hi; t++ {
			s := ss.Srcs[t]
			if del != nil && del(s, d) {
				continue
			}
			sb := int(s) * L
			if contig {
				addLanes(local, scaled[sb+off:sb+off+w])
			} else {
				for x, l := range lanes {
					local[x] += scaled[sb+l]
				}
			}
		}
		db := int(d) * L
		if contig {
			addLanes(r.next[db+off:db+off+w], local)
		} else {
			for x, l := range lanes {
				r.next[db+l] += local[x]
			}
		}
	}
}

// denseFoldMax bounds the per-destination edge count the interchanged
// fold handles; beyond it the streaming local-buffer fold wins (a hub
// destination's source rows overflow the cache when revisited per lane).
const denseFoldMax = 32

// gatherRankSumDense is gatherRankSum for the hot shape: a consecutive
// lane run with no overlay tombstones. With P intervals a destination
// sees only ~1/P of its in-edges per cell, so most destinations here
// carry a handful of edges; instead of the general three-pass
// local-buffer fold (zero local, add each edge, fold into next) it
// sweeps the lanes once, accumulating the destination's whole edge list
// in a register. Per lane the additions are the scalar fold's, in the
// scalar fold's order — ranks are never -0, so 0+g == g and
// next+(0+g) == next+g — keeping results bit-identical.
func (r *Run) gatherRankSumDense(ss *storage.SubShard, scaled, local []float64, k0, k1, off int) {
	L := len(r.lanes)
	w := len(local)
	var offBuf [denseFoldMax]int // per-destination source row offsets
	for k := k0; k < k1; k++ {
		lo, hi := ss.Offsets[k], ss.Offsets[k+1]
		if lo >= hi {
			continue // no edges: the fold would add local's zeros, a bitwise no-op
		}
		db := int(ss.Dsts[k])*L + off
		sb := int(ss.Srcs[lo])*L + off
		if hi == lo+1 {
			addLanes(r.next[db:db+w], scaled[sb:sb+w])
			continue
		}
		if e := int(hi - lo); e <= denseFoldMax {
			s0 := scaled[sb : sb+w]
			ns := r.next[db : db+w]
			switch e {
			case 2: // the offs loop's per-lane overhead rivals one add
				o1 := int(ss.Srcs[lo+1])*L + off
				s1 := scaled[o1 : o1+w]
				for x, g := range s0 {
					ns[x] += g + s1[x]
				}
			case 3:
				o1 := int(ss.Srcs[lo+1])*L + off
				o2 := int(ss.Srcs[lo+2])*L + off
				s1, s2 := scaled[o1:o1+w], scaled[o2:o2+w]
				for x, g := range s0 {
					ns[x] += g + s1[x] + s2[x]
				}
			default:
				offs := offBuf[:e-1]
				for t := lo + 1; t < hi; t++ {
					offs[t-lo-1] = int(ss.Srcs[t])*L + off
				}
				for x, g := range s0 {
					for _, so := range offs {
						g += scaled[so+x]
					}
					ns[x] += g
				}
			}
			continue
		}
		copy(local, scaled[sb:sb+w]) // local = 0 + first gather, as one move
		for t := lo + 1; t < hi; t++ {
			sb := int(ss.Srcs[t])*L + off
			addLanes(local, scaled[sb:sb+w])
		}
		addLanes(r.next[db:db+w], local)
	}
}

// addLanes is the fused rank kernel's innermost operation: element-wise
// dst[x] += src[x], unrolled four wide. The additions are independent
// across x, so unrolling reorders nothing; it exists because this loop
// runs once per edge per chunk and loop overhead otherwise rivals the
// arithmetic.
func addLanes(dst, src []float64) {
	if len(src) > len(dst) {
		return // never happens: both are lane-width; guards hoist checks
	}
	x := 0
	for ; x+4 <= len(src); x += 4 {
		dst[x] += src[x]
		dst[x+1] += src[x+1]
		dst[x+2] += src[x+2]
		dst[x+3] += src[x+3]
	}
	for ; x < len(src); x++ {
		dst[x] += src[x]
	}
}

// gatherMin is the KernelHopMin/KernelDistMin specialization:
// Gather = attr+1 (hops) or attr+float64(w) (distances), Sum = min — the
// builtin, which compiles inline where math.Min is a call per lane per
// edge (see KernelHopMin for the contract). Zero is +Inf for both
// programs, so local starts at the lanes' shared Zero value.
func (r *Run) gatherMin(ss *storage.SubShard, del delPred, lanes []int, contig bool, local []float64, k0, k1 int, weighted bool) {
	L, zero := len(r.lanes), r.zero
	off, w := 0, len(local)
	if contig {
		off = lanes[0]
	}
	for k := k0; k < k1; k++ {
		d := ss.Dsts[k]
		for x := range local {
			local[x] = zero
		}
		lo, hi := ss.Offsets[k], ss.Offsets[k+1]
		for t := lo; t < hi; t++ {
			s := ss.Srcs[t]
			if del != nil && del(s, d) {
				continue
			}
			step := 1.0
			if weighted {
				wt := float32(1)
				if ss.Weights != nil {
					wt = ss.Weights[t]
				}
				step = float64(wt)
			}
			sb := int(s) * L
			if contig {
				cs := r.curr[sb+off : sb+off+w]
				for x := range local {
					local[x] = min(local[x], cs[x]+step)
				}
			} else {
				for x, l := range lanes {
					local[x] = min(local[x], r.curr[sb+l]+step)
				}
			}
		}
		db := int(d) * L
		if contig {
			ns := r.next[db+off : db+off+w]
			for x := range local {
				ns[x] = min(ns[x], local[x])
			}
		} else {
			for x, l := range lanes {
				r.next[db+l] = min(r.next[db+l], local[x])
			}
		}
	}
}
