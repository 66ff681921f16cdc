// Package algorithms implements the graph computations the paper
// evaluates — PageRank, BFS, WCC, SCC — plus weighted SSSP and HITS as
// extensions, all expressed as engine Programs (paper §II-B's
// Initialize/Update/Output decomposition).
package algorithms

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"nxgraph/internal/engine"
)

// pageRankProg implements the PageRank power iteration with dangling-mass
// redistribution. The global aggregate carries the dangling mass of the
// current attributes into Apply's base term.
type pageRankProg struct {
	n        float64
	damping  float64
	dangling float64
	// maxDelta tracks the largest per-vertex change of the last
	// iteration (atomic float64 bits; Apply runs concurrently).
	maxDelta atomic.Uint64
	dang     danglingCache
}

func (p *pageRankProg) Name() string  { return "pagerank" }
func (p *pageRankProg) Zero() float64 { return 0 }

func (p *pageRankProg) Init(v uint32) (float64, bool) { return 1 / p.n, true }

func (p *pageRankProg) Gather(srcAttr float64, srcDeg uint32, _ float32) float64 {
	return srcAttr / float64(srcDeg)
}

func (p *pageRankProg) Sum(a, b float64) float64 { return a + b }

// FusedKernelHint declares the attr/deg-and-add gather form so fused
// batch runs specialize the multi-lane kernel.
func (p *pageRankProg) FusedKernelHint() engine.KernelHint { return engine.KernelRankSum }

func (p *pageRankProg) Apply(v uint32, old, acc float64) (float64, bool) {
	nv := (1-p.damping)/p.n + p.damping*(p.dangling/p.n+acc)
	p.updateDelta(math.Abs(nv - old))
	// PageRank is non-monotone: accumulators rebuild from scratch every
	// iteration, so every interval must stay active until the driver
	// stops iterating.
	return nv, true
}

func (p *pageRankProg) updateDelta(d float64) {
	for {
		cur := p.maxDelta.Load()
		if d <= math.Float64frombits(cur) {
			return
		}
		if p.maxDelta.CompareAndSwap(cur, math.Float64bits(d)) {
			return
		}
	}
}

func (p *pageRankProg) takeDelta() float64 {
	return math.Float64frombits(p.maxDelta.Swap(0))
}

// GlobalAggregator: dangling mass of the current ranks.
func (p *pageRankProg) AggZero() float64 { return 0 }
func (p *pageRankProg) AggVertex(v uint32, attr float64, deg uint32) float64 {
	if deg == 0 {
		return attr
	}
	return 0
}
func (p *pageRankProg) AggCombine(a, b float64) float64 { return a + b }
func (p *pageRankProg) SetGlobal(g float64)             { p.dangling = g }

// AggLane implements engine.LaneAggregator; see pprProg.AggLane for why
// skipping non-dangling vertices reproduces the scalar fold bit-for-bit.
func (p *pageRankProg) AggLane(curr []float64, stride, off int, deg []uint32) float64 {
	val := 0.0
	for _, v := range p.dang.indexFor(deg) {
		val += curr[int(v)*stride+off]
	}
	return val
}

// ApplyLane implements engine.LaneApplier. The two per-iteration
// constants hoist out of the loop — computed with exactly Apply's
// operations, so each vertex's rank is bit-identical — and the atomic
// convergence delta updates once per range instead of once per vertex
// (updateDelta keeps a max, and the max of per-vertex deltas is the
// range's local max).
func (p *pageRankProg) ApplyLane(curr, next []float64, stride, off int, v0, v1 uint32) bool {
	base := (1 - p.damping) / p.n
	dm := p.dangling / p.n
	maxd := 0.0
	for v := v0; v < v1; v++ {
		idx := int(v)*stride + off
		nv := base + p.damping*(dm+next[idx])
		if d := math.Abs(nv - curr[idx]); d > maxd {
			maxd = d
		}
		next[idx] = nv
	}
	if maxd > 0 {
		p.updateDelta(maxd)
	}
	return v1 > v0
}

// PageRank runs exactly iters power iterations and returns per-vertex
// ranks (summing to 1).
func PageRank(e *engine.Engine, damping float64, iters int) (*engine.Result, error) {
	return PageRankContext(context.Background(), e, damping, iters, nil)
}

// PageRankContext is PageRank with cancellation and per-iteration progress
// reporting (progress may be nil). On cancellation it returns ctx.Err();
// the engine stays reusable.
func PageRankContext(ctx context.Context, e *engine.Engine, damping float64, iters int, progress engine.ProgressFunc) (*engine.Result, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("algorithms: pagerank needs iters > 0")
	}
	prog := &pageRankProg{n: float64(e.Store().Meta().NumVertices), damping: damping}
	return runOne(ctx, e, prog, iters, progress, nil)
}

// PageRankConverge iterates until the largest per-vertex change drops
// below eps (or maxIters is hit).
func PageRankConverge(e *engine.Engine, damping, eps float64, maxIters int) (*engine.Result, error) {
	return PageRankConvergeContext(context.Background(), e, damping, eps, maxIters, nil)
}

// PageRankConvergeContext is PageRankConverge with cancellation and
// progress reporting.
func PageRankConvergeContext(ctx context.Context, e *engine.Engine, damping, eps float64, maxIters int, progress engine.ProgressFunc) (*engine.Result, error) {
	prog := &pageRankProg{n: float64(e.Store().Meta().NumVertices), damping: damping}
	return runOne(ctx, e, prog, maxIters, progress, func() bool { return prog.takeDelta() < eps })
}
