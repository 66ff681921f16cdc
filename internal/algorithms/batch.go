package algorithms

import (
	"context"
	"fmt"

	"nxgraph/internal/engine"
)

// This file holds the one run loop every root- or rank-parameterized
// entry point goes through (runLanes) and the multi-query entry points:
// each builds one program per query root, runs them as the lanes of a
// single engine Run, and returns per-query results in submission order.
// A nil slot in the returned slice is a lane cancelled via the
// BatchControl handle; every other slot is bit-identical to the
// corresponding single-query run.
//
// ctrl, when non-nil, is invoked once with the run's per-lane control
// surface before the first iteration — the serving layer uses it to wire
// each fused job's cancel to its own lane.

// validateRoots checks every root is a valid vertex id.
func validateRoots(e *engine.Engine, algo string, roots []uint32) error {
	n := e.Store().Meta().NumVertices
	if len(roots) == 0 {
		return fmt.Errorf("algorithms: %s batch needs at least one root", algo)
	}
	for _, r := range roots {
		if r >= n {
			return fmt.Errorf("algorithms: %s root %d out of range n=%d", algo, r, n)
		}
	}
	return nil
}

// runLanes drives one forward run of ps (one lane each; a single-query
// entry point passes one program and takes slot 0) until every lane
// finishes, capped at iters when iters > 0. stop, when non-nil, is
// consulted after every completed iteration and ends the run early when
// it reports true.
func runLanes(ctx context.Context, e *engine.Engine, ps []engine.Program, iters int, progress engine.ProgressFunc, ctrl func(engine.BatchControl), stop func() bool) ([]*engine.Result, error) {
	run, err := e.NewBatchRun(ps, engine.Forward)
	if err != nil {
		return nil, err
	}
	defer run.Close()
	run.SetProgress(progress)
	if ctrl != nil {
		ctrl(run)
	}
	for it := 0; iters <= 0 || it < iters; it++ {
		more, err := run.StepContext(ctx)
		if err != nil {
			return nil, err
		}
		if !more || stop != nil && stop() {
			break
		}
	}
	return run.FinishLanes()
}

// runOne is runLanes for a single program.
func runOne(ctx context.Context, e *engine.Engine, p engine.Program, iters int, progress engine.ProgressFunc, stop func() bool) (*engine.Result, error) {
	res, err := runLanes(ctx, e, []engine.Program{p}, iters, progress, nil, stop)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// PersonalizedPageRankBatch runs iters iterations of personalized
// PageRank from every root in one fused sweep, returning one result per
// root in order.
func PersonalizedPageRankBatch(e *engine.Engine, roots []uint32, damping float64, iters int) ([]*engine.Result, error) {
	return PersonalizedPageRankBatchContext(context.Background(), e, roots, damping, iters, nil, nil)
}

// PersonalizedPageRankBatchContext is PersonalizedPageRankBatch with
// cancellation, progress reporting, and per-lane control (all optional).
func PersonalizedPageRankBatchContext(ctx context.Context, e *engine.Engine, roots []uint32, damping float64, iters int, progress engine.ProgressFunc, ctrl func(engine.BatchControl)) ([]*engine.Result, error) {
	if err := validateRoots(e, "ppr", roots); err != nil {
		return nil, err
	}
	if iters <= 0 {
		return nil, fmt.Errorf("algorithms: ppr needs iters > 0")
	}
	ps := make([]engine.Program, len(roots))
	for i, r := range roots {
		ps[i] = &pprProg{root: r, damping: damping}
	}
	return runLanes(ctx, e, ps, iters, progress, ctrl, nil)
}

// BFSBatch computes hop distances from every root in one fused sweep,
// returning one result per root in order.
func BFSBatch(e *engine.Engine, roots []uint32) ([]*engine.Result, error) {
	return BFSBatchContext(context.Background(), e, roots, nil, nil)
}

// BFSBatchContext is BFSBatch with cancellation, progress reporting, and
// per-lane control (all optional).
func BFSBatchContext(ctx context.Context, e *engine.Engine, roots []uint32, progress engine.ProgressFunc, ctrl func(engine.BatchControl)) ([]*engine.Result, error) {
	if err := validateRoots(e, "bfs", roots); err != nil {
		return nil, err
	}
	ps := make([]engine.Program, len(roots))
	for i, r := range roots {
		ps[i] = &bfsProg{root: r}
	}
	return runLanes(ctx, e, ps, 0, progress, ctrl, nil)
}

// SSSPBatch computes shortest-path distances from every root in one
// fused sweep, returning one result per root in order.
func SSSPBatch(e *engine.Engine, roots []uint32) ([]*engine.Result, error) {
	return SSSPBatchContext(context.Background(), e, roots, nil, nil)
}

// SSSPBatchContext is SSSPBatch with cancellation, progress reporting,
// and per-lane control (all optional).
func SSSPBatchContext(ctx context.Context, e *engine.Engine, roots []uint32, progress engine.ProgressFunc, ctrl func(engine.BatchControl)) ([]*engine.Result, error) {
	if err := validateRoots(e, "sssp", roots); err != nil {
		return nil, err
	}
	ps := make([]engine.Program, len(roots))
	for i, r := range roots {
		ps[i] = &ssspProg{root: r}
	}
	return runLanes(ctx, e, ps, 0, progress, ctrl, nil)
}
