package engine

import "nxgraph/internal/storage"

// This file holds the lane gather kernels, what a Run folds a sub-shard
// through at every width: a per-destination local fold over the
// destination's in-edges, then one fold of the local into the
// accumulator (or one assignment into the ToHub partials), replicated per
// lane over lane-minor windows, so every lane's floating-point operations
// happen in exactly the order a one-lane run would perform them and
// results stay bit-identical. gatherGeneric, the hint-free kernel, is the
// reference every specialized fold is checked against. A one-lane run
// with a hint folds through the scalar loops instead (scalar_kernels.go),
// which measure faster at L = 1 (ADR-020).
//
// When every lane declares the same KernelHint, the per-edge Program
// interface dispatch (two calls per edge per lane in the generic path)
// is replaced by direct arithmetic on the windows. This is where the
// fused throughput win comes from: the edge decode and degree load are
// paid once per edge, and the per-lane work shrinks to one or two FP
// operations on consecutive memory.

// gatherCell folds destinations [k0, k1) of sub-shard ss for the given
// lanes from the source window src into the accumulator window acc, or —
// hub non-nil — assigns each destination's partials to its ToHub entry.
// Windows are lane-minor: vertex v's lane l sits at (v-base)*L+l, and hub
// entry k's at k*L+l. Each kernel folds the window's base into its lane
// offset once per call, so every per-edge index is int(v)*L + off. del
// is the tombstone predicate when [k0, k1) is a single dirty destination
// of a base cell, nil for every clean run. contig and local (one float64
// per lane of scratch) are per-task facts the caller computes once — see
// Run.gatherTasks.
func (r *Run) gatherCell(ss *storage.SubShard, deg []uint32, del delPred, src, acc view, hub []float64, lanes []int, contig bool, local []float64, k0, k1 int) {
	if len(r.lanes) == 1 {
		if f := scalarFoldFor(r.hint, ss.Weights != nil); f != foldNone {
			gatherSpec(f, r.mask, del, ss, src, acc, hub, k0, k1)
			return
		}
	}
	switch r.hint {
	case KernelRankSum:
		r.gatherRankSum(ss, del, src, acc, hub, lanes, contig, local, k0, k1)
	case KernelHopMin:
		r.gatherMin(ss, del, src, acc, hub, lanes, contig, local, k0, k1, false)
	case KernelDistMin:
		r.gatherMin(ss, del, src, acc, hub, lanes, contig, local, k0, k1, true)
	default:
		r.gatherGeneric(ss, deg, del, src, acc, hub, lanes, k0, k1)
	}
}

// laneOffsets returns the per-call index offsets of the source window,
// the accumulator window and the hub entries, each window's base folded
// in: vertex v's lanes start at int(v)*L+so in src (+ao in acc), entry
// k's at k*L+ho. For a contiguous lane run the offsets include its first
// lane, so its slot x sits at +x; for a lane list they do not, and lane l
// sits at +l.
func (r *Run) laneOffsets(src, acc view, lanes []int, contig bool) (so, ao, ho int) {
	L := len(r.lanes)
	if contig {
		ho = lanes[0]
	}
	return ho - int(src.base)*L, ho - int(acc.base)*L, ho
}

// toHub assigns one destination's lane partials to its hub entry, whose
// slots start at hub[hb] (a contiguous lane run) or sit at hub[hb+l].
func toHub(hub []float64, hb int, lanes []int, contig bool, local []float64) {
	if contig {
		copy(hub[hb:hb+len(local)], local)
		return
	}
	for x, l := range lanes {
		hub[hb+l] = local[x]
	}
}

// gatherGeneric is the hint-free lane kernel: per-edge Program dispatch,
// one Gather+Sum pair per lane, starting from Zero. It is the one
// interface-path kernel, at every width: every ToHub entry is assigned,
// so reused arrays need no zeroing, and a destination whose base edges
// are all tombstoned stores Zero, which folds as a no-op. Masked sources
// (a one-lane run's SetMask) are skipped. Each lane folds the
// destination's edge run in turn, so the fold and the lane's Program
// stay in registers across the interface calls. Distinct destination
// ranges are disjoint, so concurrent calls with non-overlapping [k0,k1)
// need no synchronization — the fine-grained parallelism of paper §III-D.
func (r *Run) gatherGeneric(ss *storage.SubShard, deg []uint32, del delPred, src, acc view, hub []float64, lanes []int, k0, k1 int) {
	L, zero, mask := len(r.lanes), r.zero, r.mask
	so, ao, _ := r.laneOffsets(src, acc, lanes, false)
	for k := k0; k < k1; k++ {
		d := ss.Dsts[k]
		for _, l := range lanes {
			p, local := r.lanes[l].p, zero
			for t := ss.Offsets[k]; t < ss.Offsets[k+1]; t++ {
				s := ss.Srcs[t]
				if mask != nil && mask.Test(int(s)) || del != nil && del(s, d) {
					continue
				}
				w := float32(1)
				if ss.Weights != nil {
					w = ss.Weights[t]
				}
				local = p.Sum(local, p.Gather(src.vals[int(s)*L+so+l], deg[s], w))
			}
			if hub != nil {
				hub[k*L+l] = local
			} else {
				i := int(d)*L + ao + l
				acc.vals[i] = p.Sum(acc.vals[i], local)
			}
		}
	}
}

// gatherRankSum is the KernelRankSum specialization:
// Gather = attr/deg, Sum = +. The divisions by float64(deg[s]) were
// hoisted into the per-iteration scaled window src (see refreshScaled)
// with exactly the operands a scalar Gather would use, so the edge loop
// here is pure left-to-right additions and stays bit-identical to the
// scalar pprProg/pageRankProg operations.
func (r *Run) gatherRankSum(ss *storage.SubShard, del delPred, src, acc view, hub []float64, lanes []int, contig bool, local []float64, k0, k1 int) {
	L, w := len(r.lanes), len(local)
	so, ao, ho := r.laneOffsets(src, acc, lanes, contig)
	scaled, next := src.vals, acc.vals
	if contig && del == nil && hub == nil {
		gatherRankSumDense(ss, scaled, next, L, so, ao, local, k0, k1)
		return
	}
	for k := k0; k < k1; k++ {
		d := ss.Dsts[k]
		clear(local)
		for t := ss.Offsets[k]; t < ss.Offsets[k+1]; t++ {
			s := ss.Srcs[t]
			if del != nil && del(s, d) {
				continue
			}
			sb := int(s)*L + so
			if contig {
				addLanes(local, scaled[sb:sb+w])
			} else {
				for x, l := range lanes {
					local[x] += scaled[sb+l]
				}
			}
		}
		if hub != nil {
			toHub(hub, k*L+ho, lanes, contig, local)
			continue
		}
		db := int(d)*L + ao
		if contig {
			addLanes(next[db:db+w], local)
		} else {
			for x, l := range lanes {
				next[db+l] += local[x]
			}
		}
	}
}

// denseFoldMax bounds the per-destination edge count the interchanged
// fold handles; beyond it the streaming local-buffer fold wins (a hub
// destination's source rows overflow the cache when revisited per lane).
const denseFoldMax = 32

// gatherRankSumDense is gatherRankSum for the hot shape: a consecutive
// lane run with no overlay tombstones, into the accumulator. With P
// intervals a destination sees only ~1/P of its in-edges per cell, so
// most destinations here carry a handful of edges; instead of the
// general three-pass local-buffer fold (zero local, add each edge, fold
// into next) it sweeps the lanes once, accumulating the destination's
// whole edge list in a register. Per lane the additions are the scalar
// fold's, in the scalar fold's order — ranks are never -0, so 0+g == g
// and next+(0+g) == next+g — keeping results bit-identical. so and ao
// are the windows' lane offsets (see laneOffsets).
func gatherRankSumDense(ss *storage.SubShard, scaled, next []float64, L, so, ao int, local []float64, k0, k1 int) {
	w := len(local)
	var offBuf [denseFoldMax]int // per-destination source row offsets
	for k := k0; k < k1; k++ {
		lo, hi := ss.Offsets[k], ss.Offsets[k+1]
		if lo >= hi {
			continue // no edges: the fold would add local's zeros, a bitwise no-op
		}
		db := int(ss.Dsts[k])*L + ao
		sb := int(ss.Srcs[lo])*L + so
		if hi == lo+1 {
			addLanes(next[db:db+w], scaled[sb:sb+w])
			continue
		}
		if e := int(hi - lo); e <= denseFoldMax {
			s0 := scaled[sb : sb+w]
			ns := next[db : db+w]
			switch e {
			case 2: // the offs loop's per-lane overhead rivals one add
				o1 := int(ss.Srcs[lo+1])*L + so
				s1 := scaled[o1 : o1+w]
				for x, g := range s0 {
					ns[x] += g + s1[x]
				}
			case 3:
				o1 := int(ss.Srcs[lo+1])*L + so
				o2 := int(ss.Srcs[lo+2])*L + so
				s1, s2 := scaled[o1:o1+w], scaled[o2:o2+w]
				for x, g := range s0 {
					ns[x] += g + s1[x] + s2[x]
				}
			default:
				offs := offBuf[:e-1]
				for t := lo + 1; t < hi; t++ {
					offs[t-lo-1] = int(ss.Srcs[t])*L + so
				}
				for x, g := range s0 {
					for _, o := range offs {
						g += scaled[o+x]
					}
					ns[x] += g
				}
			}
			continue
		}
		copy(local, scaled[sb:sb+w]) // local = 0 + first gather, as one move
		for t := lo + 1; t < hi; t++ {
			sb := int(ss.Srcs[t])*L + so
			addLanes(local, scaled[sb:sb+w])
		}
		addLanes(next[db:db+w], local)
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
func (r *Run) gatherMin(ss *storage.SubShard, del delPred, src, acc view, hub []float64, lanes []int, contig bool, local []float64, k0, k1 int, weighted bool) {
	L, zero, w := len(r.lanes), r.zero, len(local)
	so, ao, ho := r.laneOffsets(src, acc, lanes, contig)
	vals, next := src.vals, acc.vals
	for k := k0; k < k1; k++ {
		d := ss.Dsts[k]
		for x := range local {
			local[x] = zero
		}
		for t := ss.Offsets[k]; t < ss.Offsets[k+1]; t++ {
			s := ss.Srcs[t]
			if del != nil && del(s, d) {
				continue
			}
			step := 1.0
			if weighted && ss.Weights != nil {
				step = float64(ss.Weights[t])
			}
			sb := int(s)*L + so
			if contig {
				cs := vals[sb : sb+w]
				for x := range local {
					local[x] = min(local[x], cs[x]+step)
				}
			} else {
				for x, l := range lanes {
					local[x] = min(local[x], vals[sb+l]+step)
				}
			}
		}
		if hub != nil {
			toHub(hub, k*L+ho, lanes, contig, local)
			continue
		}
		db := int(d)*L + ao
		if contig {
			ns := next[db : db+w]
			for x := range local {
				ns[x] = min(ns[x], local[x])
			}
		} else {
			for x, l := range lanes {
				next[db+l] = min(next[db+l], local[x])
			}
		}
	}
}
