package algorithms

import (
	"context"
	"fmt"

	"nxgraph/internal/engine"
)

// pprProg is Personalized PageRank: the random walk teleports back to a
// single source vertex instead of the uniform distribution, scoring
// proximity to that source. Dangling mass also returns to the source.
type pprProg struct {
	root     uint32
	damping  float64
	dangling float64
	dang     danglingCache
}

// danglingCache memoizes the ascending list of zero-degree vertices the
// rank programs' AggLane folds over. The degree array is fixed for the
// life of a run, so the full-degree walk happens once per program
// instead of once per iteration. Each program instance owns its cache;
// lanes aggregate on distinct instances, so no synchronization needed.
type danglingCache struct {
	deg []uint32 // the slice the index was built from (same backing array)
	idx []uint32
}

// indexFor returns the ascending zero-degree vertex ids of deg,
// rebuilding the index only when deg is a different array.
func (c *danglingCache) indexFor(deg []uint32) []uint32 {
	if len(deg) == 0 {
		return nil
	}
	if len(c.deg) == len(deg) && &c.deg[0] == &deg[0] {
		return c.idx
	}
	c.deg = deg
	c.idx = c.idx[:0]
	for v, d := range deg {
		if d == 0 {
			c.idx = append(c.idx, uint32(v))
		}
	}
	return c.idx
}

func (p *pprProg) Name() string  { return "ppr" }
func (p *pprProg) Zero() float64 { return 0 }

func (p *pprProg) Init(v uint32) (float64, bool) {
	if v == p.root {
		return 1, true
	}
	return 0, true
}

func (p *pprProg) Gather(srcAttr float64, srcDeg uint32, _ float32) float64 {
	return srcAttr / float64(srcDeg)
}

func (p *pprProg) Sum(a, b float64) float64 { return a + b }

// FusedKernelHint declares the attr/deg-and-add gather form so fused
// batch runs specialize the multi-lane kernel.
func (p *pprProg) FusedKernelHint() engine.KernelHint { return engine.KernelRankSum }

func (p *pprProg) Apply(v uint32, old, acc float64) (float64, bool) {
	nv := p.damping * (acc)
	if v == p.root {
		nv += (1 - p.damping) + p.damping*p.dangling
	}
	return nv, true
}

func (p *pprProg) AggZero() float64 { return 0 }
func (p *pprProg) AggVertex(v uint32, attr float64, deg uint32) float64 {
	if deg == 0 {
		return attr
	}
	return 0
}
func (p *pprProg) AggCombine(a, b float64) float64 { return a + b }
func (p *pprProg) SetGlobal(g float64)             { p.dangling = g }

// ApplyLane implements engine.LaneApplier: Apply over a strided vertex
// range with no per-vertex interface dispatch. The per-vertex operations
// are exactly Apply's (one multiply, plus the root's teleport term);
// every vertex changes, matching Apply's unconditional true.
func (p *pprProg) ApplyLane(curr, next []float64, stride, off int, v0, v1 uint32) bool {
	for v := v0; v < v1; v++ {
		idx := int(v)*stride + off
		nv := p.damping * (next[idx])
		if v == p.root {
			nv += (1 - p.damping) + p.damping*p.dangling
		}
		next[idx] = nv
	}
	return v1 > v0
}

// AggLane implements engine.LaneAggregator: the dangling-mass reduction
// over one strided lane. Non-dangling vertices contribute AggVertex's
// literal 0, and adding 0 to a non-negative running sum is the identity
// bit pattern (ranks are never -0), so skipping them reproduces the
// scalar fold exactly.
func (p *pprProg) AggLane(curr []float64, stride, off int, deg []uint32) float64 {
	val := 0.0
	for _, v := range p.dang.indexFor(deg) {
		val += curr[int(v)*stride+off]
	}
	return val
}

// PersonalizedPageRank runs iters iterations of the single-source
// personalized PageRank from root. Scores sum to 1 and measure random-
// walk-with-restart proximity to root.
func PersonalizedPageRank(e *engine.Engine, root uint32, damping float64, iters int) (*engine.Result, error) {
	return PersonalizedPageRankContext(context.Background(), e, root, damping, iters, nil)
}

// PersonalizedPageRankContext is PersonalizedPageRank with cancellation
// and progress reporting.
func PersonalizedPageRankContext(ctx context.Context, e *engine.Engine, root uint32, damping float64, iters int, progress engine.ProgressFunc) (*engine.Result, error) {
	n := e.Store().Meta().NumVertices
	if root >= n {
		return nil, fmt.Errorf("algorithms: ppr root %d out of range n=%d", root, n)
	}
	if iters <= 0 {
		return nil, fmt.Errorf("algorithms: ppr needs iters > 0")
	}
	return runOne(ctx, e, &pprProg{root: root, damping: damping}, iters, progress, nil)
}
