package algorithms

import (
	"context"
	"fmt"
	"time"

	"nxgraph/internal/bitset"
	"nxgraph/internal/engine"
)

// KCore computes the core number of every vertex — the largest k such
// that the vertex belongs to the k-core of the *undirected* view of the
// graph (self-loops contribute 2 to a vertex's degree, parallel edges
// count with multiplicity). It is an extension beyond the paper's
// evaluated tasks, built from the same machinery SCC uses: iterative
// peeling driven by one-shot live-degree counts over both edge
// orientations, with peeled vertices frozen behind a vertex mask that the
// count program holds.
//
// Requires a store preprocessed with Transpose.
func KCore(e *engine.Engine) (*KCoreResult, error) {
	return KCoreContext(context.Background(), e, nil)
}

// KCoreContext is KCore with cancellation and progress reporting.
// Cancellation is checked inside every degree-recount pass; progress
// reports cumulative engine iterations across passes.
func KCoreContext(ctx context.Context, e *engine.Engine, progress engine.ProgressFunc) (*KCoreResult, error) {
	meta := e.Store().Meta()
	if !meta.HasTranspose {
		return nil, fmt.Errorf("algorithms: kcore requires a store preprocessed with Transpose")
	}
	n := int(meta.NumVertices)
	start := time.Now()
	res := &KCoreResult{Core: make([]uint32, n)}
	mask := bitset.New(n)
	remaining := n
	k := uint32(1)
	for remaining > 0 {
		// Peel everything of degree < k until stable, then raise k.
		peeledAny := true
		for peeledAny && remaining > 0 {
			counts, err := liveDegrees(ctx, e, mask, res, progress)
			if err != nil {
				return nil, err
			}
			peeledAny = false
			for v := 0; v < n; v++ {
				if mask.Test(v) {
					continue
				}
				if uint32(counts[v]) < k {
					res.Core[v] = k - 1
					mask.Set(v)
					remaining--
					peeledAny = true
				}
			}
			res.Passes++
		}
		k++
	}
	res.MaxCore = 0
	for _, c := range res.Core {
		if c > res.MaxCore {
			res.MaxCore = c
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// KCoreResult reports a k-core decomposition.
type KCoreResult struct {
	// Core holds each vertex's core number.
	Core []uint32
	// MaxCore is the degeneracy of the graph.
	MaxCore uint32
	// Passes counts degree-recount engine passes.
	Passes int
	// Iterations counts engine iterations.
	Iterations int
	// EdgesTraversed counts edge visits.
	EdgesTraversed int64
	// Elapsed is wall time.
	Elapsed time.Duration
}

// liveDegrees counts, for every vertex, its unmasked undirected degree
// (in + out) with a single Both-direction engine iteration.
func liveDegrees(ctx context.Context, e *engine.Engine, mask *bitset.Set, res *KCoreResult, progress engine.ProgressFunc) ([]float64, error) {
	run, err := e.NewRun(degreeCountProg{mask}, engine.Both)
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
