package engine

import (
	"math"

	"nxgraph/internal/storage"
)

// This file holds the gather kernels, what a Run folds a sub-shard
// through at every width: per destination, each lane folds the
// destination's in-edges from Zero and then folds the result into the
// accumulator (or assigns it to the ToHub partials), over lane-minor
// windows, so every lane's floating-point operations happen in exactly
// the order a one-lane run would perform them and results stay
// bit-identical. gatherGeneric, the hint-free kernel, is the reference
// every hinted fold is checked against.
//
// When every lane declares the same KernelHint, gatherLanes replaces the
// per-edge Program dispatch (two interface calls per edge per lane) with
// direct arithmetic. The sum and hop folds are register-blocked: one
// pass over a destination's source ids folds a block of lanes held in
// registers from Zero to the settled value, so no partial goes through
// memory and the edge's source id is read once per block, not once per
// lane. A consecutive lane run reads one window of each source row per
// edge, eight lanes and then four per pass; a lane list (a BFS
// frontier) and a weighted fold read lane by lane, four per pass, and a
// last block of three lanes is padded to four. A destination with one
// in-edge, nearly half of a cell's, is a single pass over a lane run's
// slots. The hop fold adds its +1 once per destination instead of once
// per edge (ADR-021).
//
// The one or two lanes those blocks leave over — the whole of a one-lane
// run among them — and every lane of a min or max fold run through
// foldLane, the one-lane leaf, once per lane over the task's
// destinations (ADR-022).
//
// Every kernel folds exactly the edges it is handed: no kernel takes a
// vertex mask or an edge predicate. A program that freezes vertices
// holds its mask itself (a frozen vertex holds its fold's Zero and its
// Apply keeps it), and a tombstoned destination arrives as a cell of its
// surviving edges (tombstones.go; ADR-023).

// gatherCell folds destinations [k0, k1) of sub-shard ss for the given
// lanes from the source window src into the accumulator window acc, or —
// hub non-nil — assigns each destination's partials to its ToHub entry.
// Windows are lane-minor: vertex v's lane l sits at (v-base)*L+l, and hub
// entry k's at k*L+l. Each kernel folds the window's base into its lane
// offset once per call, so every per-edge index is int(v)*L + off.
// contig (lanes is a run of consecutive lane ids) is a per-task fact the
// caller computes once — see Run.gatherTasks.
func (r *Run) gatherCell(ss *storage.SubShard, deg []uint32, src, acc view, hub []float64, lanes []int, contig bool, k0, k1 int) {
	if r.op == opGeneric {
		r.gatherGeneric(ss, deg, src, acc, hub, lanes, k0, k1)
		return
	}
	r.gatherLanes(ss, src, acc, hub, lanes, contig, k0, k1)
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
// are all tombstoned (an empty run) stores Zero, which folds as a no-op.
// Each lane folds the destination's edge run in turn, so the fold and
// the lane's Program stay in registers across the interface calls. Distinct destination
// ranges are disjoint, so concurrent calls with non-overlapping [k0,k1)
// need no synchronization — the fine-grained parallelism of paper §III-D.
func (r *Run) gatherGeneric(ss *storage.SubShard, deg []uint32, src, acc view, hub []float64, lanes []int, k0, k1 int) {
	L, zero := len(r.lanes), r.zero
	so, ao, _ := r.laneOffsets(src, acc, lanes, false)
	for k := k0; k < k1; k++ {
		d := ss.Dsts[k]
		for _, l := range lanes {
			p, local := r.lanes[l].p, zero
			for t := ss.Offsets[k]; t < ss.Offsets[k+1]; t++ {
				s := ss.Srcs[t]
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

// laneOp is the fold a hinted kernel runs: a KernelHint's Gather, Sum
// and Zero (see opFor).
type laneOp uint8

const (
	opGeneric laneOp = iota // no hint: per-edge Program dispatch (gatherGeneric)
	opSum                   // Gather a,   Sum +,   Zero 0 (RankSum over the scaled view)
	opMin                   // Gather a,   Sum min, Zero +Inf
	opMax                   // Gather a,   Sum max, Zero -Inf
	opHop                   // Gather a+1, Sum min, Zero +Inf
	opDist                  // Gather a+w, Sum min, Zero +Inf (weighted cells)
)

// opFor maps the hint a run's lanes share to the fold its kernels run.
// A RankSum run reads the scaled view (its division hoisted per
// iteration, see refreshScaled), so it folds as a copy-sum. The FromHub
// kernel (Run.foldHub) uses the op's Sum alone.
func opFor(hint KernelHint) laneOp {
	switch hint {
	case KernelRankSum, KernelCopySum:
		return opSum
	case KernelMinFold:
		return opMin
	case KernelMaxFold:
		return opMax
	case KernelHopMin:
		return opHop
	case KernelDistMin:
		return opDist
	}
	return opGeneric
}

// gatherLanes is the hinted kernel (see the file comment). Each lane's
// fold is the generic kernel's, operation for operation: Zero, then the
// Sum of each edge's Gather in edge order, then one Sum into the
// accumulator (or an assignment to the ToHub entry): the same bits for
// every input, -0 included, with NaN propagated as KernelHint
// documents. The min and hop folds are the one regrouping:
// the builtin min is the same bits under any grouping, and the hop fold
// takes the min of the raw attributes and adds 1 once, the same bits as
// the min over a+1 because x -> x+1 rounds monotonically and never
// yields -0 (ADR-015).
func (r *Run) gatherLanes(ss *storage.SubShard, src, acc view, hub []float64, lanes []int, contig bool, k0, k1 int) {
	L, w, op := len(r.lanes), len(lanes), r.op
	so, ao, ho := r.laneOffsets(src, acc, lanes, contig)
	vals, dst, toHub, z := src.vals, acc.vals, hub != nil, 0.0
	if toHub {
		dst, ao = hub, ho
	}
	if op == opDist && ss.Weights == nil {
		op = opHop // Gather(a, _, 1) == a + float64(float32(1)) == a+1
	}
	// nb: the lane slots folded in blocks of four — whole blocks, or all
	// of them when the last block has three lanes. The slots past nb go
	// through the leaf, which a pass padded to four would cost up to four
	// times their arithmetic.
	nb := 0
	if op == opSum || op == opHop || op == opDist {
		nb = w &^ 3
		if w&3 == 3 {
			nb = w
		}
	}
	for x := nb; x < w; x++ {
		sl := x
		if !contig {
			sl = lanes[x]
		}
		foldLane(op, ss, vals, dst, L, so+sl, ao+sl, toHub, k0, k1)
	}
	if nb == 0 {
		return
	}
	if op != opSum {
		z = math.Inf(1)
	}
	hop, win := op == opHop, 0 // win: the lane slots folded through windows
	if contig && op != opDist {
		win = nb
	}
	// slots[x] is lane slot x's offset from a vertex's first slot (see
	// laneOffsets), padded to whole four-lane passes with the last lane.
	var slotBuf [16]int
	slots := slotBuf[:0]
	for x := range (nb + 3) &^ 3 {
		sl := min(x, nb-1)
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
			v, q := vals[o:o+win], dst[db:db+win]
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
		for ; x < nb; x += 4 {
			i := slots[x : x+4 : x+4]
			var a [4]float64
			a[0], a[1], a[2], a[3] = foldSlots(op, vals, srcs, ws, L, so, i[0], i[1], i[2], i[3], z)
			for j, v := range a[:min(4, nb-x)] {
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
// int(s)*L+so of each source s's row over a destination's source ids
// srcs: the raw attributes' min for opHop, the sum in edge order for
// opSum, the min of attribute plus edge weight ws[e] for opDist.
func foldSlots(op laneOp, vals []float64, srcs []uint32, ws []float32, L, so, i0, i1, i2, i3 int, z float64) (a0, a1, a2, a3 float64) {
	a0, a1, a2, a3 = z, z, z, z
	switch op {
	case opDist:
		for e, s := range srcs {
			o, st := int(s)*L+so, float64(ws[e])
			a0, a1, a2, a3 = min(a0, vals[o+i0]+st), min(a1, vals[o+i1]+st), min(a2, vals[o+i2]+st), min(a3, vals[o+i3]+st)
		}
	case opSum:
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

// foldLane is gatherLanes' one-lane leaf: it folds the lane whose slot
// sits at int(v)*L+so in vals over destinations [k0, k1) into dst at
// int(d)*L+do — or, toHub, assigns it to k*L+do. Each fold has a loop of
// its own (sumRuns, minRuns, and the max and dist loops below), so none
// shares its registers with another fold's. The sum and min folds, which
// PageRank, WCC and BFS run, also split a block's count classes into
// loops of their own; the max and dist loops walk every class alike. The max fold runs as a min
// over negated attributes, negated back per destination: max(a, b) and
// -min(-a, -b) are the same bits for every non-NaN pair, either zero
// included, and the compiler's max is that identity per call — two sign
// flips on every link of the chain. The dist fold is Zero, then
// min(local, a+w) per edge in edge order: weighted cells only, since
// gatherLanes folds an unweighted one as opHop.
func foldLane(op laneOp, ss *storage.SubShard, vals, dst []float64, L, so, do int, toHub bool, k0, k1 int) {
	srcs, offs, dsts := ss.Srcs, ss.Offsets, ss.Dsts
	switch op {
	case opSum:
		sumRuns(ss, vals, dst, L, so, do, toHub, k0, k1)
	case opMin, opHop:
		minRuns(ss, vals, dst, L, so, do, toHub, k0, k1, op == opHop)
	case opMax:
		for k := k0; k < k1; k++ {
			local := math.Inf(1)
			for _, s := range srcs[offs[k]:offs[k+1]] {
				local = min(local, -vals[int(s)*L+so])
			}
			if toHub {
				dst[k*L+do] = -local
			} else {
				i := int(dsts[k])*L + do
				dst[i] = max(dst[i], -local)
			}
		}
	default: // opDist
		ws := ss.Weights
		for k := k0; k < k1; k++ {
			local := math.Inf(1)
			for t := offs[k]; t < offs[k+1]; t++ {
				local = min(local, vals[int(srcs[t])*L+so]+float64(ws[t]))
			}
			if toHub {
				dst[k*L+do] = local
			} else {
				i := int(dsts[k])*L + do
				dst[i] = min(dst[i], local)
			}
		}
	}
}

// sumRuns is the sum fold of foldLane. It writes the e = 1/2/3 chains
// out literally: 0 + g1 + g2 is ((0+g1)+g2), so -0 inputs
// keep their bits. A block's one-, two- and three-edge destinations
// come first, each class a loop of its own over its edges in stride
// (storage.ClassOrder); the last class — every destination of a
// sub-shard in id order — branches on each destination's run length.
func sumRuns(ss *storage.SubShard, vals, dst []float64, L, so, do int, toHub bool, k0, k1 int) {
	srcs, offs, dsts := ss.Srcs, ss.Offsets, ss.Dsts
	b := ss.Classes()
	a, e := classSpan(b, 0, k0, k1)
	run := srcs[offs[a]:offs[e]]
	for x, d := range dsts[a:e] {
		local := 0 + vals[int(run[x])*L+so]
		if toHub {
			dst[(a+x)*L+do] = local
		} else {
			dst[int(d)*L+do] += local
		}
	}
	a, e = classSpan(b, 1, k0, k1)
	run = srcs[offs[a]:offs[e]]
	for x, d := range dsts[a:e] {
		r := run[2*x : 2*x+2 : 2*x+2]
		local := 0 + vals[int(r[0])*L+so] + vals[int(r[1])*L+so]
		if toHub {
			dst[(a+x)*L+do] = local
		} else {
			dst[int(d)*L+do] += local
		}
	}
	a, e = classSpan(b, 2, k0, k1)
	run = srcs[offs[a]:offs[e]]
	for x, d := range dsts[a:e] {
		r := run[3*x : 3*x+3 : 3*x+3]
		local := 0 + vals[int(r[0])*L+so] + vals[int(r[1])*L+so] + vals[int(r[2])*L+so]
		if toHub {
			dst[(a+x)*L+do] = local
		} else {
			dst[int(d)*L+do] += local
		}
	}
	a, e = classSpan(b, 3, k0, k1)
	for k := a; k < e; k++ {
		var local float64
		switch run := srcs[offs[k]:offs[k+1]]; len(run) {
		case 0:
			local = 0
		case 1:
			local = 0 + vals[int(run[0])*L+so]
		case 2:
			local = 0 + vals[int(run[0])*L+so] + vals[int(run[1])*L+so]
		case 3:
			local = 0 + vals[int(run[0])*L+so] + vals[int(run[1])*L+so] + vals[int(run[2])*L+so]
		default:
			local = 0
			for _, s := range run {
				local += vals[int(s)*L+so]
			}
		}
		if toHub {
			dst[k*L+do] = local
		} else {
			dst[int(dsts[k])*L+do] += local
		}
	}
}

// classSpan returns the part [a, e) of destinations [k0, k1) in class c
// of bounds b (see storage.SubShard.Classes): empty, a = e, when they
// do not meet.
func classSpan(b [storage.NumClasses + 1]int, c, k0, k1 int) (a, e int) {
	a, e = max(k0, b[c]), min(k1, b[c+1])
	return a, max(a, e)
}

// minRuns is the min fold of foldLane and, with hop set, the hop fold.
// A destination's run is one load for e = 1 (min(+Inf, a) is a), a
// literal min for e = 2, 3, and two independent accumulators for longer
// runs, so the fold is not one dependent chain of min latencies (four
// measured no faster, ADR-015). The hop fold adds
// its +1 once per destination; the plain fold must not be written
// min(...)+0 instead, which turns -0 into +0. The classes run as in
// sumRuns.
func minRuns(ss *storage.SubShard, vals, dst []float64, L, so, do int, toHub bool, k0, k1 int, hop bool) {
	srcs, offs, dsts := ss.Srcs, ss.Offsets, ss.Dsts
	b := ss.Classes()
	a, e := classSpan(b, 0, k0, k1)
	run := srcs[offs[a]:offs[e]]
	for x, d := range dsts[a:e] {
		local := vals[int(run[x])*L+so]
		if hop {
			local++
		}
		if toHub {
			dst[(a+x)*L+do] = local
		} else {
			i := int(d)*L + do
			dst[i] = min(dst[i], local)
		}
	}
	a, e = classSpan(b, 1, k0, k1)
	run = srcs[offs[a]:offs[e]]
	for x, d := range dsts[a:e] {
		r := run[2*x : 2*x+2 : 2*x+2]
		local := min(vals[int(r[0])*L+so], vals[int(r[1])*L+so])
		if hop {
			local++
		}
		if toHub {
			dst[(a+x)*L+do] = local
		} else {
			i := int(d)*L + do
			dst[i] = min(dst[i], local)
		}
	}
	a, e = classSpan(b, 2, k0, k1)
	run = srcs[offs[a]:offs[e]]
	for x, d := range dsts[a:e] {
		r := run[3*x : 3*x+3 : 3*x+3]
		local := min(vals[int(r[0])*L+so], vals[int(r[1])*L+so], vals[int(r[2])*L+so])
		if hop {
			local++
		}
		if toHub {
			dst[(a+x)*L+do] = local
		} else {
			i := int(d)*L + do
			dst[i] = min(dst[i], local)
		}
	}
	a, e = classSpan(b, 3, k0, k1)
	for k := a; k < e; k++ {
		var local float64
		switch run := srcs[offs[k]:offs[k+1]]; len(run) {
		case 0:
			local = math.Inf(1)
		case 1:
			local = vals[int(run[0])*L+so]
		case 2:
			local = min(vals[int(run[0])*L+so], vals[int(run[1])*L+so])
		case 3:
			local = min(vals[int(run[0])*L+so], vals[int(run[1])*L+so], vals[int(run[2])*L+so])
		default:
			m0, m1 := vals[int(run[0])*L+so], vals[int(run[1])*L+so]
			for run = run[2:]; len(run) >= 2; run = run[2:] {
				m0 = min(m0, vals[int(run[0])*L+so])
				m1 = min(m1, vals[int(run[1])*L+so])
			}
			if len(run) == 1 {
				m0 = min(m0, vals[int(run[0])*L+so])
			}
			local = min(m0, m1)
		}
		if hop {
			local++
		}
		if toHub {
			dst[k*L+do] = local
		} else {
			i := int(dsts[k])*L + do
			dst[i] = min(dst[i], local)
		}
	}
}
