package server

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	nxgraph "nxgraph"
)

// algoFunc executes one whole-graph algorithm over an opened graph
// under ctx, reporting per-iteration progress, and shapes the outcome as
// a Result.
type algoFunc func(ctx context.Context, g *nxgraph.Graph, p Params, progress nxgraph.ProgressFunc) (*Result, error)

// laneFunc executes a root-parameterized algorithm as one engine run
// with one lane per root, all sharing p's other parameters, and shapes
// each lane's outcome as a Result. A nil slot is a lane cancelled
// mid-run through the BatchControl handed to ctrl.
type laneFunc func(ctx context.Context, g *nxgraph.Graph, roots []uint32, p Params, progress nxgraph.ProgressFunc, ctrl func(nxgraph.BatchControl)) ([]*Result, error)

// Algorithms lists the algorithm names the server accepts.
func Algorithms() []string {
	names := make([]string, 0, len(algos)+len(laneAlgos))
	for name := range algos {
		names = append(names, name)
	}
	for name := range laneAlgos {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

var algos = map[string]algoFunc{
	"pagerank": runPageRank,
	"wcc":      runWCC,
	"scc":      runSCC,
	"hits":     runHITS,
	"kcore":    runKCore,
}

// laneAlgos are the algorithms whose queued jobs can fuse into one run
// (jobs that differ only in their root vertex). A job that runs alone is
// a one-lane run of the same entry point.
var laneAlgos = map[string]laneFunc{
	"ppr":  pprLanes,
	"bfs":  bfsLanes,
	"sssp": ssspLanes,
}

// fromEngineResult shapes an engine result into the serving form.
func fromEngineResult(algo, label string, res *nxgraph.Result) *Result {
	return &Result{
		Algo:           algo,
		ValueLabel:     label,
		Values:         res.Attrs,
		Iterations:     res.Iterations,
		EdgesTraversed: res.EdgesTraversed,
		Strategy:       res.Strategy.String(),
		ElapsedMS:      res.Elapsed.Milliseconds(),
		Trace:          res.Trace,
	}
}

// shapeLanes shapes each lane's engine result into the serving form,
// leaving cancelled lanes nil. Distance-like (ascending) results have
// +Inf (unreachable) rewritten to -1 in place so the array is
// JSON-encodable.
func shapeLanes(res []*nxgraph.Result, err error, algo, label string, ascending bool) ([]*Result, error) {
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(res))
	for i, r := range res {
		if r == nil {
			continue
		}
		out[i] = fromEngineResult(algo, label, r)
		if ascending {
			for v, x := range out[i].Values {
				if math.IsInf(x, 1) {
					out[i].Values[v] = -1
				}
			}
			out[i].Ascending = true
		}
	}
	return out, nil
}

func pprLanes(ctx context.Context, g *nxgraph.Graph, roots []uint32, p Params, progress nxgraph.ProgressFunc, ctrl func(nxgraph.BatchControl)) ([]*Result, error) {
	res, err := g.PersonalizedPageRankBatchContext(ctx, roots, p.Damping, p.Iters, progress, ctrl)
	return shapeLanes(res, err, "ppr", "score", false)
}

func bfsLanes(ctx context.Context, g *nxgraph.Graph, roots []uint32, p Params, progress nxgraph.ProgressFunc, ctrl func(nxgraph.BatchControl)) ([]*Result, error) {
	res, err := g.BFSBatchContext(ctx, roots, progress, ctrl)
	return shapeLanes(res, err, "bfs", "depth", true)
}

func ssspLanes(ctx context.Context, g *nxgraph.Graph, roots []uint32, p Params, progress nxgraph.ProgressFunc, ctrl func(nxgraph.BatchControl)) ([]*Result, error) {
	res, err := g.SSSPBatchContext(ctx, roots, progress, ctrl)
	return shapeLanes(res, err, "sssp", "distance", true)
}

func runPageRank(ctx context.Context, g *nxgraph.Graph, p Params, progress nxgraph.ProgressFunc) (*Result, error) {
	var (
		res *nxgraph.Result
		err error
	)
	if p.Eps > 0 {
		res, err = g.PageRankConvergeContext(ctx, p.Damping, p.Eps, p.Iters, progress)
	} else {
		res, err = g.PageRankContext(ctx, p.Damping, p.Iters, progress)
	}
	if err != nil {
		return nil, err
	}
	return fromEngineResult("pagerank", "rank", res), nil
}

func runWCC(ctx context.Context, g *nxgraph.Graph, p Params, progress nxgraph.ProgressFunc) (*Result, error) {
	res, err := g.WCCContext(ctx, progress)
	if err != nil {
		return nil, err
	}
	out := fromEngineResult("wcc", "component", res)
	comps := make(map[int64]struct{})
	for _, v := range out.Values {
		comps[int64(v)] = struct{}{}
	}
	out.Stats = map[string]float64{"num_components": float64(len(comps))}
	return out, nil
}

func runSCC(ctx context.Context, g *nxgraph.Graph, p Params, progress nxgraph.ProgressFunc) (*Result, error) {
	res, err := g.SCCContext(ctx, progress)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, len(res.Components))
	for i, c := range res.Components {
		vals[i] = float64(c)
	}
	return &Result{
		Algo:       "scc",
		ValueLabel: "component",
		Values:     vals,
		Stats: map[string]float64{
			"num_components": float64(res.NumComponents()),
			"rounds":         float64(res.Rounds),
		},
		Iterations:     res.Iterations,
		EdgesTraversed: res.EdgesTraversed,
		ElapsedMS:      res.Elapsed.Milliseconds(),
	}, nil
}

func runHITS(ctx context.Context, g *nxgraph.Graph, p Params, progress nxgraph.ProgressFunc) (*Result, error) {
	start := time.Now()
	// HITSContext has no engine.Result; recover the traversal count
	// from its per-half-step progress stream (Edges is cumulative).
	var edges int64
	auth, hub, err := g.HITSContext(ctx, p.Iters, func(pr nxgraph.Progress) {
		edges = pr.Edges
		if progress != nil {
			progress(pr)
		}
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Algo:       "hits",
		ValueLabel: "authority",
		Values:     auth,
		Aux:        map[string][]float64{"hub": hub},
		// Each HITS iteration is two engine half-steps; report engine
		// iterations so the count matches the job's progress stream.
		Iterations:     2 * p.Iters,
		EdgesTraversed: edges,
		ElapsedMS:      time.Since(start).Milliseconds(),
	}, nil
}

func runKCore(ctx context.Context, g *nxgraph.Graph, p Params, progress nxgraph.ProgressFunc) (*Result, error) {
	res, err := g.KCoreContext(ctx, progress)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, len(res.Core))
	for i, c := range res.Core {
		vals[i] = float64(c)
	}
	return &Result{
		Algo:       "kcore",
		ValueLabel: "core",
		Values:     vals,
		Stats: map[string]float64{
			"max_core": float64(res.MaxCore),
			"passes":   float64(res.Passes),
		},
		Iterations:     res.Iterations,
		EdgesTraversed: res.EdgesTraversed,
		ElapsedMS:      res.Elapsed.Milliseconds(),
	}, nil
}

// validateAlgo checks the algorithm exists and its parameters are sane
// for the target graph before the job is queued, so obvious mistakes
// fail synchronously at submit time.
func validateAlgo(algo string, p Params, g *nxgraph.Graph) error {
	_, whole := algos[algo]
	if _, lanes := laneAlgos[algo]; !whole && !lanes {
		return fmt.Errorf("unknown algorithm %q (have %v)", algo, Algorithms())
	}
	switch algo {
	case "bfs", "sssp", "ppr":
		if p.Root >= g.NumVertices() {
			return fmt.Errorf("%s root %d out of range n=%d", algo, p.Root, g.NumVertices())
		}
	case "wcc", "scc", "hits", "kcore":
		if !g.HasTranspose() {
			return fmt.Errorf("%s requires a store preprocessed with Transpose", algo)
		}
	}
	if p.Iters < 0 {
		return fmt.Errorf("iters must be >= 0")
	}
	if p.Damping < 0 || p.Damping >= 1 || math.IsNaN(p.Damping) {
		return fmt.Errorf("damping must be in [0, 1)")
	}
	if p.Eps < 0 || math.IsNaN(p.Eps) {
		return fmt.Errorf("eps must be >= 0")
	}
	return nil
}
