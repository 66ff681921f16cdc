package engine

import (
	"math"

	"nxgraph/internal/storage"
)

// This file holds the lane gather kernels, what a Run folds a sub-shard
// through at every width: per destination, each lane folds the
// destination's in-edges from Zero and then folds the result into the
// accumulator (or assigns it to the ToHub partials), over lane-minor
// windows, so every lane's floating-point operations happen in exactly
// the order a one-lane run would perform them and results stay
// bit-identical. gatherGeneric, the hint-free kernel, is the reference
// every specialized fold is checked against. A one-lane run with a hint
// folds through the scalar loops instead (scalar_kernels.go), which
// measure faster at L = 1 (ADR-020).
//
// When every lane declares the same KernelHint, gatherLanes replaces the
// per-edge Program dispatch (two interface calls per edge per lane) with
// direct arithmetic, register-blocked: one pass over a destination's
// source ids folds a block of lanes held in registers from Zero to the
// settled value, so no partial goes through memory and the edge's
// source id is read once per block, not once per lane. A consecutive
// lane run reads one window of each source row per edge, eight lanes and
// then four per pass; a lane list (a BFS frontier), the lanes a run's
// windows leave over, a tombstoned destination and a weighted fold read
// lane by lane, four per pass. A destination with one in-edge, nearly
// half of a cell's, is a single pass over a lane run's slots. The hop
// fold adds its +1 once per destination instead of once per edge
// (ADR-021).

// gatherCell folds destinations [k0, k1) of sub-shard ss for the given
// lanes from the source window src into the accumulator window acc, or —
// hub non-nil — assigns each destination's partials to its ToHub entry.
// Windows are lane-minor: vertex v's lane l sits at (v-base)*L+l, and hub
// entry k's at k*L+l. Each kernel folds the window's base into its lane
// offset once per call, so every per-edge index is int(v)*L + off. del
// is the tombstone predicate when [k0, k1) is a single dirty destination
// of a base cell, nil for every clean run. contig (lanes is a run of
// consecutive lane ids) is a per-task fact the caller computes once —
// see Run.gatherTasks.
func (r *Run) gatherCell(ss *storage.SubShard, deg []uint32, del delPred, src, acc view, hub []float64, lanes []int, contig bool, k0, k1 int) {
	if len(r.lanes) == 1 {
		if f := scalarFoldFor(r.hint, ss.Weights != nil); f != foldNone {
			gatherSpec(f, r.mask, del, ss, src, acc, hub, k0, k1)
			return
		}
	}
	switch r.hint {
	case KernelRankSum:
		r.gatherLanes(opSum, ss, del, src, acc, hub, lanes, contig, k0, k1)
	case KernelHopMin:
		r.gatherLanes(opHop, ss, del, src, acc, hub, lanes, contig, k0, k1)
	case KernelDistMin:
		r.gatherLanes(opDist, ss, del, src, acc, hub, lanes, contig, k0, k1)
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

// laneOp is the fold a hinted lane kernel runs (see gatherLanes).
type laneOp uint8

const (
	opSum  laneOp = iota // Gather a,   Sum +,   Zero 0 (RankSum over the scaled view)
	opHop                // Gather a+1, Sum min, Zero +Inf (the +1 added once per destination)
	opDist               // Gather a+w, Sum min, Zero +Inf (weighted cells)
)

// gatherLanes is the hinted lane kernel (see the file comment). Each
// lane's fold is the generic kernel's, operation for operation: Zero,
// then the Sum of each surviving edge's Gather in edge order, then one
// Sum into the accumulator (or an assignment to the ToHub entry): the
// same bits for every input, -0 included, with NaN propagated as
// KernelHint documents. The hop fold is the one regrouping: it takes the
// min of the raw attributes and adds 1 once, the same bits as the min
// over a+1 because x -> x+1 rounds monotonically and never yields -0
// (minRuns, ADR-015).
func (r *Run) gatherLanes(op laneOp, ss *storage.SubShard, del delPred, src, acc view, hub []float64, lanes []int, contig bool, k0, k1 int) {
	L, w := len(r.lanes), len(lanes)
	so, ao, ho := r.laneOffsets(src, acc, lanes, contig)
	vals, dst, toHub, z := src.vals, acc.vals, hub != nil, 0.0
	if toHub {
		dst, ao = hub, ho
	}
	if op != opSum {
		z = math.Inf(1)
	}
	if op == opDist && ss.Weights == nil {
		op = opHop // Gather(a, _, 1) == a + float64(float32(1)) == a+1
	}
	hop, win := op == opHop, 0 // win: the lane slots folded through windows
	if contig && del == nil && op != opDist {
		win = w
	}
	// slots[x] is lane slot x's offset from a vertex's first slot (see
	// laneOffsets), padded to whole four-lane passes with the last lane.
	var slotBuf [16]int
	slots := slotBuf[:0]
	for x := range (w + 3) &^ 3 {
		sl := min(x, w-1)
		if !contig {
			sl = lanes[sl]
		}
		slots = append(slots, sl)
	}
	for k := k0; k < k1; k++ {
		t, hi := ss.Offsets[k], ss.Offsets[k+1]
		db := int(ss.Dsts[k])*L + ao
		if toHub {
			db = k*L + ao
		}
		srcs, x := ss.Srcs[t:hi], 0
		if len(srcs) == 1 && win > 0 { // one edge: a single pass over the lanes
			o := int(srcs[0])*L + so
			v, q := vals[o:o+w], dst[db:db+w]
			for x := range q {
				switch {
				case hop && toHub:
					q[x] = v[x] + 1
				case hop:
					q[x] = min(q[x], v[x]+1)
				case toHub:
					q[x] = z + v[x]
				default:
					q[x] += z + v[x]
				}
			}
			continue
		}
		for ; x+8 <= win; x += 8 {
			a0, a1, a2, a3, a4, a5, a6, a7 := z, z, z, z, z, z, z, z
			if hop {
				for _, s := range srcs {
					o := int(s)*L + so + x
					v := (*[8]float64)(vals[o : o+8 : o+8])
					a0, a1, a2, a3 = min(a0, v[0]), min(a1, v[1]), min(a2, v[2]), min(a3, v[3])
					a4, a5, a6, a7 = min(a4, v[4]), min(a5, v[5]), min(a6, v[6]), min(a7, v[7])
				}
				a0, a1, a2, a3, a4, a5, a6, a7 = a0+1, a1+1, a2+1, a3+1, a4+1, a5+1, a6+1, a7+1
			} else {
				for _, s := range srcs {
					o := int(s)*L + so + x
					v := (*[8]float64)(vals[o : o+8 : o+8])
					a0, a1, a2, a3 = a0+v[0], a1+v[1], a2+v[2], a3+v[3]
					a4, a5, a6, a7 = a4+v[4], a5+v[5], a6+v[6], a7+v[7]
				}
			}
			q := (*[8]float64)(dst[db+x : db+x+8 : db+x+8])
			switch {
			case toHub:
				q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7] = a0, a1, a2, a3, a4, a5, a6, a7
			case hop:
				q[0], q[1], q[2], q[3] = min(q[0], a0), min(q[1], a1), min(q[2], a2), min(q[3], a3)
				q[4], q[5], q[6], q[7] = min(q[4], a4), min(q[5], a5), min(q[6], a6), min(q[7], a7)
			default:
				q[0], q[1], q[2], q[3] = q[0]+a0, q[1]+a1, q[2]+a2, q[3]+a3
				q[4], q[5], q[6], q[7] = q[4]+a4, q[5]+a5, q[6]+a6, q[7]+a7
			}
		}
		if x+4 <= win {
			a0, a1, a2, a3 := z, z, z, z
			if hop {
				for _, s := range srcs {
					o := int(s)*L + so + x
					v := (*[4]float64)(vals[o : o+4 : o+4])
					a0, a1, a2, a3 = min(a0, v[0]), min(a1, v[1]), min(a2, v[2]), min(a3, v[3])
				}
				a0, a1, a2, a3 = a0+1, a1+1, a2+1, a3+1
			} else {
				for _, s := range srcs {
					o := int(s)*L + so + x
					v := (*[4]float64)(vals[o : o+4 : o+4])
					a0, a1, a2, a3 = a0+v[0], a1+v[1], a2+v[2], a3+v[3]
				}
			}
			q := (*[4]float64)(dst[db+x : db+x+4 : db+x+4])
			switch {
			case toHub:
				q[0], q[1], q[2], q[3] = a0, a1, a2, a3
			case hop:
				q[0], q[1], q[2], q[3] = min(q[0], a0), min(q[1], a1), min(q[2], a2), min(q[3], a3)
			default:
				q[0], q[1], q[2], q[3] = q[0]+a0, q[1]+a1, q[2]+a2, q[3]+a3
			}
			x += 4
		}
		var ws []float32 // edge weights, for opDist
		if op == opDist {
			ws = ss.Weights[t:hi]
		}
		for ; x < w; x += 4 {
			i := slots[x : x+4 : x+4]
			var a [4]float64
			a[0], a[1], a[2], a[3] = foldSlots(op, del, ss.Dsts[k], vals, srcs, ws, L, so, i[0], i[1], i[2], i[3], z)
			for j, v := range a[:min(4, w-x)] {
				if hop {
					v++
				}
				switch q := &dst[db+i[j]]; {
				case toHub:
					*q = v
				case hop || op == opDist:
					*q = min(*q, v)
				default:
					*q += v
				}
			}
		}
	}
}

// foldSlots folds, from Zero z, the lanes at slots i0..i3 past
// int(s)*L+so of each source s's row over destination d's source ids
// srcs: the raw attributes' min for opHop, the sum in edge order for
// opSum, the min of attribute plus edge weight ws[e] for opDist. del,
// when non-nil, drops tombstoned edges. (A filtered opHop fold takes
// min(a, v+0): v+0 only turns -0 into +0, which the +1 the caller adds
// erases.)
func foldSlots(op laneOp, del delPred, d uint32, vals []float64, srcs []uint32, ws []float32, L, so, i0, i1, i2, i3 int, z float64) (a0, a1, a2, a3 float64) {
	a0, a1, a2, a3 = z, z, z, z
	switch {
	case del != nil || op == opDist:
		for e, s := range srcs {
			if del != nil && del(s, d) {
				continue
			}
			o, st := int(s)*L+so, 0.0
			if op == opDist {
				st = float64(ws[e])
			}
			if op == opSum {
				a0, a1, a2, a3 = a0+vals[o+i0], a1+vals[o+i1], a2+vals[o+i2], a3+vals[o+i3]
			} else {
				a0, a1, a2, a3 = min(a0, vals[o+i0]+st), min(a1, vals[o+i1]+st), min(a2, vals[o+i2]+st), min(a3, vals[o+i3]+st)
			}
		}
	case op == opSum:
		for _, s := range srcs {
			o := int(s)*L + so
			a0, a1, a2, a3 = a0+vals[o+i0], a1+vals[o+i1], a2+vals[o+i2], a3+vals[o+i3]
		}
	default:
		for _, s := range srcs {
			o := int(s)*L + so
			a0, a1, a2, a3 = min(a0, vals[o+i0]), min(a1, vals[o+i1]), min(a2, vals[o+i2]), min(a3, vals[o+i3])
		}
	}
	return a0, a1, a2, a3
}
