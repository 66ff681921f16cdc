package algorithms

import (
	"context"
	"fmt"
	"math"
	"time"

	"nxgraph/internal/bitset"
	"nxgraph/internal/engine"
)

// stepAll drives run to termination, honouring ctx and reporting
// per-iteration progress (progress may be nil). Used by the SCC
// fixpoints, which run until inactivity rather than a fixed count.
func stepAll(ctx context.Context, run *engine.Run, progress engine.ProgressFunc) error {
	run.SetProgress(progress)
	for {
		more, err := run.StepContext(ctx)
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
}

// offsetProgress shifts per-run progress by cumulative counters so that
// multi-phase algorithms (SCC, KCore) report monotone iteration and edge
// counts across their many engine runs.
func offsetProgress(progress engine.ProgressFunc, baseIter int, baseEdges int64) engine.ProgressFunc {
	if progress == nil {
		return nil
	}
	return func(p engine.Progress) {
		p.Iteration += baseIter
		p.Edges += baseEdges
		progress(p)
	}
}

// SCC computes strongly connected components with the trim + forward-
// coloring + backward-confirmation scheme used by vertex-centric
// out-of-core systems (the same family GraphChi's SCC belongs to):
//
//  1. Trim: unassigned vertices with no unassigned in- or out-neighbor
//     are singleton SCCs (removed repeatedly, bounded rounds).
//  2. Color: propagate the maximum vertex id along forward edges to a
//     fixpoint. A vertex whose color equals its own id roots a candidate
//     component.
//  3. Confirm: propagate root confirmation backwards (along reverse
//     edges) within equal colors. Every confirmed vertex belongs to the
//     SCC rooted at its color. Because forward max-coloring guarantees
//     color(u) ≥ color(v) for every edge v→u, "some confirmed
//     out-neighbor has my color" reduces to an associative min.
//  4. Assign confirmed vertices, freeze them behind a vertex mask, repeat.
//
// The mask is data each phase's program holds (see frozen): a frozen
// vertex starts at its fold's Zero, so it emits nothing, and its Apply
// keeps its attribute.
//
// The store must be preprocessed with Transpose. Labels identify
// components by their root's id (an arbitrary canonical member).
func SCC(e *engine.Engine) (*SCCResult, error) {
	return SCCContext(context.Background(), e, nil)
}

// SCCContext is SCC with cancellation and progress reporting. Cancellation
// is checked inside every engine fixpoint and between phases; progress
// reports cumulative engine iterations across all phases.
func SCCContext(ctx context.Context, e *engine.Engine, progress engine.ProgressFunc) (*SCCResult, error) {
	meta := e.Store().Meta()
	if !meta.HasTranspose {
		return nil, fmt.Errorf("algorithms: scc requires a store preprocessed with Transpose")
	}
	n := int(meta.NumVertices)
	start := time.Now()
	res := &SCCResult{Components: make([]uint32, n)}
	mask := bitset.New(n)
	remaining := n
	const trimRoundsPerPhase = 4

	for remaining > 0 {
		res.Rounds++
		// Phase 1: trim.
		for t := 0; t < trimRoundsPerPhase && remaining > 0; t++ {
			trimmed, err := trimOnce(ctx, e, mask, res, progress)
			if err != nil {
				return nil, err
			}
			if trimmed == 0 {
				break
			}
			remaining -= trimmed
		}
		if remaining == 0 {
			break
		}
		// Phase 2: forward max-coloring to fixpoint.
		colors, err := colorFixpoint(ctx, e, mask, res, progress)
		if err != nil {
			return nil, err
		}
		// Phase 3: backward confirmation to fixpoint.
		confirmed, err := confirmFixpoint(ctx, e, mask, colors, res, progress)
		if err != nil {
			return nil, err
		}
		// Phase 4: assign confirmed vertices.
		assigned := 0
		for v := 0; v < n; v++ {
			if mask.Test(v) || !confirmed[v] {
				continue
			}
			res.Components[v] = uint32(colors[v])
			mask.Set(v)
			assigned++
		}
		if assigned == 0 {
			return nil, fmt.Errorf("algorithms: scc made no progress (round %d, %d left)",
				res.Rounds, remaining)
		}
		remaining -= assigned
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// SCCResult reports an SCC computation.
type SCCResult struct {
	// Components maps each vertex to its component root's id.
	Components []uint32
	// Rounds counts outer trim/color/confirm rounds.
	Rounds int
	// Iterations counts engine iterations across all phases.
	Iterations int
	// EdgesTraversed accumulates edge visits across all phases.
	EdgesTraversed int64
	// Elapsed is total wall time.
	Elapsed time.Duration
}

// NumComponents counts distinct components.
func (r *SCCResult) NumComponents() int {
	seen := make(map[uint32]struct{})
	for _, c := range r.Components {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// frozen reports whether mask (nil: none) freezes vertex v.
func frozen(mask *bitset.Set, v uint32) bool { return mask != nil && mask.Test(int(v)) }

// degreeCountProg counts, in a single iteration, each live vertex's live
// in-neighbors (Forward) or out-neighbors (Reverse); Both adds the two.
// A live vertex holds 1 and a frozen one 0, the fold's Zero, so the
// copy-sum of a vertex's in-neighbors' attributes is its live count —
// exact integers, the same bits in any fold order. A frozen vertex's
// Apply keeps its 0.
type degreeCountProg struct{ mask *bitset.Set }

func (degreeCountProg) Name() string  { return "scc-degree-count" }
func (degreeCountProg) Zero() float64 { return 0 }
func (p degreeCountProg) Init(v uint32) (float64, bool) {
	if frozen(p.mask, v) {
		return 0, true
	}
	return 1, true
}
func (degreeCountProg) Gather(srcAttr float64, _ uint32, _ float32) float64 { return srcAttr }
func (degreeCountProg) Sum(a, b float64) float64                            { return a + b }
func (p degreeCountProg) Apply(v uint32, old, acc float64) (float64, bool) {
	if frozen(p.mask, v) {
		return old, false
	}
	return acc, false
}
func (degreeCountProg) DenseApply() {}

// FusedKernelHint declares the copy-and-add gather form so runs
// specialize the live-degree inner loop (KCore peeling re-runs it every
// round).
func (degreeCountProg) FusedKernelHint() engine.KernelHint { return engine.KernelCopySum }

// ApplyLane implements engine.LaneApplier: Apply keeps the accumulated
// count (already in next), pins frozen vertices and never reports change.
func (p degreeCountProg) ApplyLane(curr, next []float64, stride, off int, v0, v1 uint32) bool {
	if p.mask == nil {
		return false
	}
	for v := v0; v < v1; v++ {
		if idx := int(v)*stride + off; p.mask.Test(int(v)) {
			next[idx] = curr[idx]
		}
	}
	return false
}

// trimOnce assigns singleton SCCs to unmasked vertices with zero live
// in-degree or zero live out-degree, returning how many were trimmed.
func trimOnce(ctx context.Context, e *engine.Engine, mask *bitset.Set, res *SCCResult, progress engine.ProgressFunc) (int, error) {
	inCnt, err := oneShotCount(ctx, e, mask, engine.Forward, res, progress)
	if err != nil {
		return 0, err
	}
	outCnt, err := oneShotCount(ctx, e, mask, engine.Reverse, res, progress)
	if err != nil {
		return 0, err
	}
	trimmed := 0
	for v := range inCnt {
		if mask.Test(v) {
			continue
		}
		if inCnt[v] == 0 || outCnt[v] == 0 {
			res.Components[v] = uint32(v)
			mask.Set(v)
			trimmed++
		}
	}
	return trimmed, nil
}

func oneShotCount(ctx context.Context, e *engine.Engine, mask *bitset.Set, dir engine.Direction, res *SCCResult, progress engine.ProgressFunc) ([]float64, error) {
	run, err := e.NewRun(degreeCountProg{mask}, dir)
	if err != nil {
		return nil, err
	}
	defer run.Close()
	run.SetProgress(offsetProgress(progress, res.Iterations, res.EdgesTraversed))
	if _, err := run.StepContext(ctx); err != nil {
		return nil, err
	}
	r, err := run.Finish()
	if err != nil {
		return nil, err
	}
	res.Iterations += r.Iterations
	res.EdgesTraversed += r.EdgesTraversed
	return r.Attrs, nil
}

// colorProg propagates maximum vertex ids forward among live vertices.
// A frozen vertex starts at -Inf, the fold's Zero, and keeps it.
type colorProg struct{ mask *bitset.Set }

func (colorProg) Name() string  { return "scc-color" }
func (colorProg) Zero() float64 { return math.Inf(-1) }
func (p colorProg) Init(v uint32) (float64, bool) {
	if frozen(p.mask, v) {
		return math.Inf(-1), true
	}
	return float64(v), true
}
func (colorProg) Gather(srcAttr float64, _ uint32, _ float32) float64 {
	return srcAttr
}
func (colorProg) Sum(a, b float64) float64 { return math.Max(a, b) }

// FusedKernelHint declares the copy-and-max gather form so runs
// specialize the coloring inner loop.
func (colorProg) FusedKernelHint() engine.KernelHint { return engine.KernelMaxFold }

func (p colorProg) Apply(v uint32, old, acc float64) (float64, bool) {
	if acc > old && !frozen(p.mask, v) {
		return acc, true
	}
	return old, false
}

// ApplyLane implements engine.LaneApplier: max-relaxation, the mirror of
// wccProg.ApplyLane, with frozen vertices pinned.
func (p colorProg) ApplyLane(curr, next []float64, stride, off int, v0, v1 uint32) bool {
	changed := false
	for v := v0; v < v1; v++ {
		idx := int(v)*stride + off
		if next[idx] > curr[idx] && !frozen(p.mask, v) {
			changed = true
		} else {
			next[idx] = curr[idx]
		}
	}
	return changed
}

func colorFixpoint(ctx context.Context, e *engine.Engine, mask *bitset.Set, res *SCCResult, progress engine.ProgressFunc) ([]float64, error) {
	run, err := e.NewRun(colorProg{mask}, engine.Forward)
	if err != nil {
		return nil, err
	}
	defer run.Close()
	if err := stepAll(ctx, run, offsetProgress(progress, res.Iterations, res.EdgesTraversed)); err != nil {
		return nil, err
	}
	r, err := run.Finish()
	if err != nil {
		return nil, err
	}
	res.Iterations += r.Iterations
	res.EdgesTraversed += r.EdgesTraversed
	return r.Attrs, nil
}

// confirmProg propagates root confirmation along reverse edges. The
// attribute packs (color, confirmed) as color*2 + flag; both fit a
// float64 exactly for any uint32 color. A frozen vertex holds an even
// value (flag 0), so it gathers as the fold's Zero, and keeps it.
type confirmProg struct{ mask *bitset.Set }

func (confirmProg) Name() string  { return "scc-confirm" }
func (confirmProg) Zero() float64 { return math.Inf(1) }

// Init is overwritten by SetAttrs before stepping.
func (confirmProg) Init(v uint32) (float64, bool) { return 0, true }

func (confirmProg) Gather(srcAttr float64, _ uint32, _ float32) float64 {
	if int64(srcAttr)&1 == 1 {
		return math.Floor(srcAttr / 2)
	}
	return math.Inf(1)
}

func (confirmProg) Sum(a, b float64) float64 { return math.Min(a, b) }

func (p confirmProg) Apply(v uint32, old, acc float64) (float64, bool) {
	if int64(old)&1 == 1 || frozen(p.mask, v) {
		return old, false
	}
	color := math.Floor(old / 2)
	if acc == color {
		return old + 1, true
	}
	return old, false
}

func confirmFixpoint(ctx context.Context, e *engine.Engine, mask *bitset.Set, colors []float64, res *SCCResult, progress engine.ProgressFunc) ([]bool, error) {
	run, err := e.NewRun(confirmProg{mask}, engine.Reverse)
	if err != nil {
		return nil, err
	}
	defer run.Close()
	packed := make([]float64, len(colors))
	for v := range colors {
		if mask.Test(v) {
			continue // packed 0: even, whatever colorProg left (-Inf)
		}
		flag := 0.0
		if colors[v] == float64(v) {
			flag = 1
		}
		packed[v] = colors[v]*2 + flag
	}
	if err := run.SetAttrs(packed); err != nil {
		return nil, err
	}
	run.ActivateAll()
	if err := stepAll(ctx, run, offsetProgress(progress, res.Iterations, res.EdgesTraversed)); err != nil {
		return nil, err
	}
	r, err := run.Finish()
	if err != nil {
		return nil, err
	}
	res.Iterations += r.Iterations
	res.EdgesTraversed += r.EdgesTraversed
	confirmed := make([]bool, len(colors))
	for v, a := range r.Attrs {
		confirmed[v] = int64(a)&1 == 1
	}
	return confirmed, nil
}
