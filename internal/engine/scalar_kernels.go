package engine

import (
	"math"

	"nxgraph/internal/bitset"
	"nxgraph/internal/storage"
)

// This file holds the devirtualized one-lane gather kernels: what a Run
// of a single program with a KernelHint folds a sub-shard through — the
// L = 1 case of Run.gatherCell (batch_kernels.go), which measures faster
// than the lane kernels at one lane (ADR-020). The program's per-edge
// Gather/Sum pair is compiled into a direct arithmetic loop — no
// interface dispatch per edge — selected once per call.
//
// Each hint maps to a scalarFold, the concrete fold loop for one
// (Gather, Sum, Zero) triple. The mapping happens per sub-shard cell, so
// per-cell facts fold into the selection too: KernelDistMin on an
// unweighted cell resolves to the hop fold (float64(float32(1)) == 1),
// and KernelRankSum resolves to the plain copy-sum fold because the run
// hoists the per-edge division into a scaled attribute view (see
// refreshScaled).
//
// Every fold produces, per destination, the bits the generic lane kernel
// (gatherGeneric) would at one lane: a left-associative fold over the destination's in-edges
// starting from Zero, then one Sum into the accumulator (or an
// assignment into the hub array). The add-family folds perform exactly
// those operations; their e = 1/2/3 unrolls write the chain out
// literally — 0 + g1 + g2 is ((0+g1)+g2), identity additions included,
// so results stay bit-identical even for -0 inputs. The unfiltered min
// and hop folds (minRuns) regroup the chain instead, which the builtin
// min allows bit for bit; the max, weighted and filtered min folds stay
// one dependent chain. Equivalence is enforced by
// TestScalarKernelsMatchGeneric and the algorithm-level suite in
// internal/algorithms.
//
// A note on mechanism: these loops are hand-monomorphized rather than
// instantiated from one generic function over a fold typeclass. Go's
// gcshape stenciling compiles type-parameterized bodies against
// dictionaries, leaving the per-edge method calls indirect — measured at
// ~4x the cost of the direct loops below. See
// docs/adr/ADR-002-scalar-kernels.md.

// scalarFold identifies one specialized fold loop.
type scalarFold uint8

const (
	foldNone     scalarFold = iota // no specialization: generic interface path
	foldCopySum                    // Gather a        Sum +    Zero 0 (RankSum: a = the scaled view)
	foldCountSum                   // Gather 1        Sum +    Zero 0
	foldMin                        // Gather a        Sum min  Zero +Inf
	foldMax                        // Gather a        Sum max  Zero -Inf
	foldHopMin                     // Gather a+1      Sum min  Zero +Inf
	foldDistMin                    // Gather a+w      Sum min  Zero +Inf (weighted cells)
)

// scalarFoldFor maps a program hint to the fold loop for one cell;
// weighted reports whether the cell carries per-edge weights. A RankSum
// run reads the scaled view (its division hoisted per iteration), so it
// folds as a copy-sum.
func scalarFoldFor(hint KernelHint, weighted bool) scalarFold {
	switch hint {
	case KernelRankSum, KernelCopySum:
		return foldCopySum
	case KernelHopMin:
		return foldHopMin
	case KernelDistMin:
		if !weighted {
			return foldHopMin // Gather(a, _, 1) == a + float64(float32(1)) == a+1
		}
		return foldDistMin
	case KernelMinFold:
		return foldMin
	case KernelMaxFold:
		return foldMax
	case KernelCountSum:
		return foldCountSum
	}
	return foldNone
}

// sumFoldFor maps a hint to the fold of its Sum alone — the FromHub
// kernel (Run.foldHub) folds pre-gathered partials, so only the combine
// op matters.
func sumFoldFor(hint KernelHint) scalarFold {
	switch hint {
	case KernelRankSum, KernelCountSum, KernelCopySum:
		return foldCopySum
	case KernelHopMin, KernelDistMin, KernelMinFold:
		return foldMin
	case KernelMaxFold:
		return foldMax
	}
	return foldNone
}

// gatherSpec is the specialized counterpart of gatherGeneric: it folds
// destinations [k0, k1) of ss with fold f. When hub is non-nil the
// per-destination partial is assigned to hub[k] (the ToHub kernel);
// otherwise it is Sum-folded into acc. The fold dispatch and the
// mask/del presence check run once per call, so the inner loops carry
// no per-edge nil tests beyond what filtering itself requires. A
// call covers a run of clean destinations — thousands of edges, del ==
// nil, the unfiltered loops — or one dirty destination of a tombstoned
// base cell with its predicate (see cellTombs.gather).
func gatherSpec(f scalarFold, mask *bitset.Set, del delPred, ss *storage.SubShard, src view, acc view, hub []float64, k0, k1 int) {
	switch f {
	case foldCopySum:
		gatherCopySum(mask, del, ss, src, acc, hub, k0, k1)
	case foldCountSum:
		gatherCountSum(mask, del, ss, acc, hub, k0, k1)
	case foldMin:
		gatherMinMax(mask, del, ss, src, acc, hub, k0, k1, false)
	case foldMax:
		gatherMinMax(mask, del, ss, src, acc, hub, k0, k1, true)
	case foldHopMin:
		gatherHopMin(mask, del, ss, src, acc, hub, k0, k1)
	case foldDistMin:
		gatherDistMin(mask, del, ss, src, acc, hub, k0, k1)
	}
}

// gatherCopySum: local = 0 + a1 + a2 + ... over the destination's
// in-edges. Serves KernelCopySum directly and KernelRankSum over a
// scaled source view.
func gatherCopySum(mask *bitset.Set, del delPred, ss *storage.SubShard, src view, acc view, hub []float64, k0, k1 int) {
	if mask != nil || del != nil {
		for k := k0; k < k1; k++ {
			d := ss.Dsts[k]
			local := 0.0
			for t := ss.Offsets[k]; t < ss.Offsets[k+1]; t++ {
				s := ss.Srcs[t]
				if mask != nil && mask.Test(int(s)) {
					continue
				}
				if del != nil && del(s, d) {
					continue
				}
				local += src.at(s)
			}
			if hub != nil {
				hub[k] = local
			} else {
				acc.vals[d-acc.base] += local
			}
		}
		return
	}
	srcs, vals, base := ss.Srcs, src.vals, src.base
	for k := k0; k < k1; k++ {
		lo, hi := ss.Offsets[k], ss.Offsets[k+1]
		var local float64
		switch hi - lo {
		case 0:
			local = 0
		case 1:
			local = 0 + vals[srcs[lo]-base]
		case 2:
			local = 0 + vals[srcs[lo]-base] + vals[srcs[lo+1]-base]
		case 3:
			local = 0 + vals[srcs[lo]-base] + vals[srcs[lo+1]-base] + vals[srcs[lo+2]-base]
		default:
			local = 0
			for t := lo; t < hi; t++ {
				local += vals[srcs[t]-base]
			}
		}
		if hub != nil {
			hub[k] = local
		} else {
			acc.vals[ss.Dsts[k]-acc.base] += local
		}
	}
}

// gatherCountSum: local = 0 + 1 + 1 + ... — integer-valued float64
// additions are exact far past any edge count, so the unfiltered fold is
// just float64(edge count), bit-identical to the serial chain.
func gatherCountSum(mask *bitset.Set, del delPred, ss *storage.SubShard, acc view, hub []float64, k0, k1 int) {
	if mask != nil || del != nil {
		for k := k0; k < k1; k++ {
			d := ss.Dsts[k]
			n := 0
			for t := ss.Offsets[k]; t < ss.Offsets[k+1]; t++ {
				s := ss.Srcs[t]
				if mask != nil && mask.Test(int(s)) {
					continue
				}
				if del != nil && del(s, d) {
					continue
				}
				n++
			}
			if hub != nil {
				hub[k] = float64(n)
			} else {
				acc.vals[d-acc.base] += float64(n)
			}
		}
		return
	}
	for k := k0; k < k1; k++ {
		local := float64(ss.Offsets[k+1] - ss.Offsets[k])
		if hub != nil {
			hub[k] = local
		} else {
			acc.vals[ss.Dsts[k]-acc.base] += local
		}
	}
}

// gatherMinMax: local = min(...min(Zero, a1)..., ae) (or max), the label
// propagation folds of WCC and SCC coloring. The unfiltered min fold
// runs minRuns; the rest fold one edge at a time, with the builtin
// expanded in the loop — math.Min is a call per edge (math.archMin was
// a quarter of a warm round's CPU, ADR-007). The max fold runs as a min
// over negated attributes, negated back per destination: max(a, b) and
// -min(-a, -b) are the same bits for every non-NaN pair, either zero
// included, and the compiler's max is that identity per call — two sign
// flips on every link of the chain.
func gatherMinMax(mask *bitset.Set, del delPred, ss *storage.SubShard, src view, acc view, hub []float64, k0, k1 int, isMax bool) {
	filtered := mask != nil || del != nil
	if !filtered && !isMax {
		minRuns(ss, src, acc, hub, k0, k1, false)
		return
	}
	for k := k0; k < k1; k++ {
		d := ss.Dsts[k]
		local := math.Inf(1)
		for t := ss.Offsets[k]; t < ss.Offsets[k+1]; t++ {
			s := ss.Srcs[t]
			if filtered {
				if mask != nil && mask.Test(int(s)) {
					continue
				}
				if del != nil && del(s, d) {
					continue
				}
			}
			a := src.at(s)
			if isMax {
				a = -a
			}
			local = min(local, a)
		}
		if isMax {
			local = -local
		}
		if hub != nil {
			hub[k] = local
		} else if isMax {
			acc.vals[d-acc.base] = max(acc.vals[d-acc.base], local)
		} else {
			acc.vals[d-acc.base] = min(acc.vals[d-acc.base], local)
		}
	}
}

// gatherHopMin: local = min(local, a+1) — BFS, and SSSP over unweighted
// cells (where Gather's float64(float32(1)) step is exactly 1).
func gatherHopMin(mask *bitset.Set, del delPred, ss *storage.SubShard, src view, acc view, hub []float64, k0, k1 int) {
	if mask == nil && del == nil {
		minRuns(ss, src, acc, hub, k0, k1, true)
		return
	}
	for k := k0; k < k1; k++ {
		d := ss.Dsts[k]
		local := math.Inf(1)
		for t := ss.Offsets[k]; t < ss.Offsets[k+1]; t++ {
			s := ss.Srcs[t]
			if mask != nil && mask.Test(int(s)) {
				continue
			}
			if del != nil && del(s, d) {
				continue
			}
			local = min(local, src.at(s)+1)
		}
		if hub != nil {
			hub[k] = local
		} else {
			acc.vals[d-acc.base] = min(acc.vals[d-acc.base], local)
		}
	}
}

// minRuns is the unfiltered min fold and, with hop set, the unfiltered
// hop fold. A destination's run is one load for e = 1 (min(+Inf, a) is
// a), a literal min for e = 2, 3, and two independent accumulators for
// longer runs, so the fold is not one dependent chain of min latencies
// (four measured no faster, ADR-015).
//
// The builtin min selects under a total order on non-NaN values (-0 <
// +0) and yields a NaN whenever an operand is one, so every grouping is
// the same bits. The hop fold takes the min of the raw attributes and
// adds 1 once: x -> x+1 rounds monotonically and never yields -0, so
// min(a+1, b+1) and min(a, b)+1 are the same bits. The plain fold must
// not be written as min(...)+0 instead, which turns -0 into +0.
func minRuns(ss *storage.SubShard, src view, acc view, hub []float64, k0, k1 int, hop bool) {
	srcs, offs, dsts := ss.Srcs, ss.Offsets, ss.Dsts
	vals, base := src.vals, src.base
	for k := k0; k < k1; k++ {
		run := srcs[offs[k]:offs[k+1]]
		var local float64
		switch len(run) {
		case 0:
			local = math.Inf(1)
		case 1:
			local = vals[run[0]-base]
		case 2:
			local = min(vals[run[0]-base], vals[run[1]-base])
		case 3:
			local = min(vals[run[0]-base], vals[run[1]-base], vals[run[2]-base])
		default:
			m0, m1 := vals[run[0]-base], vals[run[1]-base]
			for run = run[2:]; len(run) >= 2; run = run[2:] {
				m0 = min(m0, vals[run[0]-base])
				m1 = min(m1, vals[run[1]-base])
			}
			if len(run) == 1 {
				m0 = min(m0, vals[run[0]-base])
			}
			local = min(m0, m1)
		}
		if hop {
			local++
		}
		if hub != nil {
			hub[k] = local
		} else {
			i := dsts[k] - acc.base
			acc.vals[i] = min(acc.vals[i], local)
		}
	}
}

// gatherDistMin: local = min(local, a+float64(w)) — weighted SSSP. Only
// selected for cells with a weight array.
func gatherDistMin(mask *bitset.Set, del delPred, ss *storage.SubShard, src view, acc view, hub []float64, k0, k1 int) {
	filtered := mask != nil || del != nil
	ws := ss.Weights
	for k := k0; k < k1; k++ {
		d := ss.Dsts[k]
		local := math.Inf(1)
		for t := ss.Offsets[k]; t < ss.Offsets[k+1]; t++ {
			s := ss.Srcs[t]
			if filtered {
				if mask != nil && mask.Test(int(s)) {
					continue
				}
				if del != nil && del(s, d) {
					continue
				}
			}
			local = min(local, src.at(s)+float64(ws[t]))
		}
		if hub != nil {
			hub[k] = local
		} else {
			acc.vals[d-acc.base] = min(acc.vals[d-acc.base], local)
		}
	}
}
