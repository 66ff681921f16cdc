// Package nxgraph is a single-machine out-of-core graph processing
// library, a from-scratch Go implementation of
//
//	Chi et al., "NXgraph: An Efficient Graph Processing System on a
//	Single Machine", ICDE 2016 (arXiv:1510.06916).
//
// Graphs are preprocessed into the Destination-Sorted Sub-Shard (DSSS)
// representation: vertices partitioned into P intervals, edges into P²
// destination-sorted sub-shards. Computations run as synchronous
// gather–sum–apply programs under one of three update strategies —
// Single-Phase (all intervals memory-resident), Double-Phase (fully
// disk-based via hubs) or Mixed-Phase (Q resident intervals) — chosen
// adaptively from the configured memory budget.
//
// # Quick start
//
//	g, _ := nxgraph.Generate(nxgraph.RMAT(16, 16, 1))
//	gr, _ := nxgraph.Build("/tmp/mygraph", g, nxgraph.Options{Transpose: true})
//	defer gr.Close()
//	ranks, _ := gr.PageRank(0.85, 10)
//
// Every algorithm also has a Context variant (PageRankContext, BFSContext,
// RunProgramContext, ...) that honours context cancellation — checked at
// iteration and sub-shard-batch boundaries — and reports per-iteration
// Progress to an optional callback. These power the serving layer in
// internal/server: a long-running HTTP service (cmd/nxserve) with a graph
// registry, an asynchronous job scheduler with a bounded worker pool, and
// an LRU result cache. The serving layer also supports online structural
// updates: internal/dynamic's DeltaLog overlays pending edge
// insertions/removals on the engine at query time (engine.Overlay), with
// background compaction folding them into a rebuilt store.
//
// The cmd/ directory provides the same functionality as CLI tools
// (nxgen, nxpre, nxrun, nxbench, nxserve); examples/ contains runnable
// scenarios.
package nxgraph

import (
	"context"
	"fmt"
	"os"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/blockcache"
	"nxgraph/internal/diskio"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/graph"
	"nxgraph/internal/preprocess"
	"nxgraph/internal/storage"
	"nxgraph/internal/trace"
)

// Re-exported basic types.
type (
	// Edge is a directed edge with an optional weight.
	Edge = graph.Edge
	// EdgeList is an in-memory graph in coordinate form.
	EdgeList = graph.EdgeList
	// Program is a custom gather–sum–apply computation; see
	// internal/engine.Program for the full contract.
	Program = engine.Program
	// Result reports a program execution (attributes, iterations,
	// traffic, timing).
	Result = engine.Result
	// DiskProfile models a disk (bandwidth + seek); see SSD, HDD,
	// Unthrottled.
	DiskProfile = diskio.Profile
	// Progress reports the state of a running computation after each
	// iteration (see ProgressFunc).
	Progress = engine.Progress
	// ProgressFunc observes per-iteration progress of the *Context
	// algorithm variants. Called synchronously; must be cheap.
	ProgressFunc = engine.ProgressFunc
	// CacheStats is a snapshot of the sub-shard block cache counters
	// (see Graph.CacheStats and Options.CacheBytes).
	CacheStats = blockcache.Stats
	// Trace is a run's span recorder; Result.Trace carries one unless
	// tracing was disabled via Options.TraceSpans < 0.
	Trace = trace.Trace
	// TraceSpan is one timed section of a traced run.
	TraceSpan = trace.Span
	// TraceStep is one iteration's aggregate stage stats (stall vs
	// compute, blocks hit/missed, bytes moved).
	TraceStep = trace.StepStats
	// TraceTimeline is a JSON-ready snapshot of a run trace.
	TraceTimeline = trace.Timeline
	// BatchControl is the per-lane control surface of a fused batch run
	// (see the *Batch methods): Width reports the lane count and
	// CancelLane cancels one query without disturbing its siblings.
	BatchControl = engine.BatchControl
)

// Disk profiles for Options.Profile.
var (
	// Unthrottled does byte accounting only (the default).
	Unthrottled = diskio.Unthrottled
	// SSD simulates a SATA SSD.
	SSD = diskio.SSD
	// HDD simulates a 7200 rpm disk.
	HDD = diskio.HDD
)

// Strategy selects the update strategy.
type Strategy = engine.Strategy

// Update strategies.
const (
	// Auto adapts to the memory budget (the library default).
	Auto = engine.Auto
	// SPU forces Single-Phase Update.
	SPU = engine.SPU
	// DPU forces Double-Phase Update.
	DPU = engine.DPU
	// MPU forces Mixed-Phase Update.
	MPU = engine.MPU
)

// Options configures Build and Open.
type Options struct {
	// P is the number of vertex intervals (default 12, the paper's
	// sweet spot).
	P int
	// Threads sizes the worker pool (default GOMAXPROCS).
	Threads int
	// MemoryBudget is BM in bytes; 0 means unlimited (SPU with all
	// sub-shards cached).
	MemoryBudget int64
	// CacheBytes budgets the graph's decoded sub-shard block cache,
	// shared by every run on the graph: 0 derives the budget from
	// MemoryBudget (unlimited when MemoryBudget is 0), a positive value
	// sets it in bytes, and a negative value disables caching.
	CacheBytes int64
	// Strategy overrides adaptive strategy selection.
	Strategy Strategy
	// LockSync switches worker synchronization from conflict-free
	// callback scheduling to per-interval locking.
	LockSync bool
	// Weighted keeps edge weights (needed by SSSP).
	Weighted bool
	// Transpose materializes the reverse-edge replica (needed by WCC,
	// SCC and HITS).
	Transpose bool
	// Profile simulates a disk; zero value means unthrottled.
	Profile DiskProfile
	// TraceSpans bounds each run's trace span ring buffer: 0 selects the
	// default capacity, a positive value sets the bound, and a negative
	// value disables run tracing (Result.Trace is then nil).
	TraceSpans int
}

func (o Options) p() int {
	if o.P <= 0 {
		return 12
	}
	return o.P
}

func (o Options) profile() DiskProfile {
	if o.Profile.Name == "" {
		return Unthrottled
	}
	return o.Profile
}

func (o Options) engineConfig() engine.Config {
	sync := engine.Callback
	if o.LockSync {
		sync = engine.Lock
	}
	return engine.Config{
		Threads:      o.Threads,
		MemoryBudget: o.MemoryBudget,
		CacheBytes:   o.CacheBytes,
		Strategy:     o.Strategy,
		Sync:         sync,
		TraceSpans:   o.TraceSpans,
	}
}

// Graph is an opened DSSS store bound to a compute engine.
type Graph struct {
	store  *storage.Store
	engine *engine.Engine
	opt    Options
}

// Build preprocesses g into a DSSS store rooted at dir and opens it. The
// directory is created (and truncated) as needed. Isolated vertices are
// dropped; RemapTable recovers original ids.
func Build(dir string, g *EdgeList, opt Options) (*Graph, error) {
	disk, err := diskio.New(dir, opt.profile())
	if err != nil {
		return nil, err
	}
	res, err := preprocess.FromEdgeList(disk, "dsss", g, preprocess.Options{
		Name:      dir,
		P:         opt.p(),
		Weighted:  opt.Weighted,
		Transpose: opt.Transpose,
	})
	if err != nil {
		return nil, err
	}
	return attach(res.Store, opt)
}

// BuildFromFile parses a whitespace-separated edge-list text file
// ("src dst [weight]" lines) and builds a store from it.
func BuildFromFile(dir, path string, opt Options) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nxgraph: open edge file: %w", err)
	}
	defer f.Close()
	edges, err := graph.ParseEdgeText(f)
	if err != nil {
		return nil, err
	}
	disk, err := diskio.New(dir, opt.profile())
	if err != nil {
		return nil, err
	}
	res, err := preprocess.FromIndexEdges(disk, "dsss", edges, preprocess.Options{
		Name:      dir,
		P:         opt.p(),
		Weighted:  opt.Weighted,
		Transpose: opt.Transpose,
	})
	if err != nil {
		return nil, err
	}
	return attach(res.Store, opt)
}

// Open opens a store previously written by Build.
func Open(dir string, opt Options) (*Graph, error) {
	disk, err := diskio.New(dir, opt.profile())
	if err != nil {
		return nil, err
	}
	st, err := storage.Open(disk, "dsss")
	if err != nil {
		return nil, err
	}
	return attach(st, opt)
}

func attach(st *storage.Store, opt Options) (*Graph, error) {
	e, err := engine.New(st, opt.engineConfig())
	if err != nil {
		st.Close()
		return nil, err
	}
	return &Graph{store: st, engine: e, opt: opt}, nil
}

// Close releases the store.
func (g *Graph) Close() error { return g.store.Close() }

// NumVertices returns the dense vertex count (isolated vertices
// excluded, as in the paper).
func (g *Graph) NumVertices() uint32 { return g.store.Meta().NumVertices }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int64 { return g.store.Meta().NumEdges }

// P returns the interval count.
func (g *Graph) P() int { return g.store.Meta().P }

// HasTranspose reports whether the store carries the reverse-edge
// replica (required by WCC, SCC, HITS and KCore).
func (g *Graph) HasTranspose() bool { return g.store.Meta().HasTranspose }

// RemapTable returns, for each dense id, the vertex's id in the edge
// list passed to Build (or the raw index for BuildFromFile).
func (g *Graph) RemapTable() ([]uint64, error) { return g.store.IDMap() }

// Degrees returns out- and in-degree arrays indexed by dense id.
func (g *Graph) Degrees() (out, in []uint32, err error) { return g.store.Degrees() }

// IOStats returns cumulative disk traffic counters for the graph's disk.
func (g *Graph) IOStats() diskio.StatsSnapshot {
	return g.store.Disk().Stats().Snapshot()
}

// CacheStats returns the graph's sub-shard block cache counters (hits,
// misses, evictions, resident and pinned bytes).
func (g *Graph) CacheStats() CacheStats { return g.engine.CacheStats() }

// PageRank runs iters power iterations with the given damping and
// returns per-vertex ranks summing to 1.
func (g *Graph) PageRank(damping float64, iters int) (*Result, error) {
	return algorithms.PageRank(g.engine, damping, iters)
}

// PageRankContext is PageRank with cancellation and per-iteration
// progress reporting (progress may be nil). On cancellation it returns
// ctx.Err() and the graph remains usable for further runs; the same
// contract holds for every *Context method below.
func (g *Graph) PageRankContext(ctx context.Context, damping float64, iters int, progress ProgressFunc) (*Result, error) {
	return algorithms.PageRankContext(ctx, g.engine, damping, iters, progress)
}

// PageRankConvergeContext is PageRankConverge with cancellation and
// progress reporting.
func (g *Graph) PageRankConvergeContext(ctx context.Context, damping, eps float64, maxIters int, progress ProgressFunc) (*Result, error) {
	return algorithms.PageRankConvergeContext(ctx, g.engine, damping, eps, maxIters, progress)
}

// PageRankConverge iterates until the largest rank change is below eps.
func (g *Graph) PageRankConverge(damping, eps float64, maxIters int) (*Result, error) {
	return algorithms.PageRankConverge(g.engine, damping, eps, maxIters)
}

// PersonalizedPageRank scores random-walk-with-restart proximity to
// root; scores sum to 1.
func (g *Graph) PersonalizedPageRank(root uint32, damping float64, iters int) (*Result, error) {
	return algorithms.PersonalizedPageRank(g.engine, root, damping, iters)
}

// PersonalizedPageRankContext is PersonalizedPageRank with cancellation
// and progress reporting.
func (g *Graph) PersonalizedPageRankContext(ctx context.Context, root uint32, damping float64, iters int, progress ProgressFunc) (*Result, error) {
	return algorithms.PersonalizedPageRankContext(ctx, g.engine, root, damping, iters, progress)
}

// PersonalizedPageRankBatch fuses one personalized PageRank query per
// root into a single run: every decoded sub-shard block is gathered once
// and applied to all query lanes, so a batch of b roots costs roughly
// one graph traversal instead of b. Results come back in root order and
// are bit-identical to running each query alone.
func (g *Graph) PersonalizedPageRankBatch(roots []uint32, damping float64, iters int) ([]*Result, error) {
	return algorithms.PersonalizedPageRankBatch(g.engine, roots, damping, iters)
}

// PersonalizedPageRankBatchContext is PersonalizedPageRankBatch with
// cancellation, progress reporting, and per-lane control. ctrl, when
// non-nil, receives the run's BatchControl before the first iteration;
// a lane cancelled through it yields a nil slot in the result slice
// while its siblings run to completion.
func (g *Graph) PersonalizedPageRankBatchContext(ctx context.Context, roots []uint32, damping float64, iters int, progress ProgressFunc, ctrl func(BatchControl)) ([]*Result, error) {
	return algorithms.PersonalizedPageRankBatchContext(ctx, g.engine, roots, damping, iters, progress, ctrl)
}

// BFS returns hop distances from root (+Inf where unreachable).
func (g *Graph) BFS(root uint32) (*Result, error) {
	return algorithms.BFS(g.engine, root)
}

// BFSContext is BFS with cancellation and progress reporting.
func (g *Graph) BFSContext(ctx context.Context, root uint32, progress ProgressFunc) (*Result, error) {
	return algorithms.BFSContext(ctx, g.engine, root, progress)
}

// BFSBatch fuses one BFS per root into a single run; see
// PersonalizedPageRankBatch for the fusion contract.
func (g *Graph) BFSBatch(roots []uint32) ([]*Result, error) {
	return algorithms.BFSBatch(g.engine, roots)
}

// BFSBatchContext is BFSBatch with cancellation, progress reporting,
// and per-lane control (see PersonalizedPageRankBatchContext).
func (g *Graph) BFSBatchContext(ctx context.Context, roots []uint32, progress ProgressFunc, ctrl func(BatchControl)) ([]*Result, error) {
	return algorithms.BFSBatchContext(ctx, g.engine, roots, progress, ctrl)
}

// SSSP returns weighted shortest-path distances from root (+Inf where
// unreachable). Build the store with Weighted for real weights.
func (g *Graph) SSSP(root uint32) (*Result, error) {
	return algorithms.SSSP(g.engine, root)
}

// SSSPContext is SSSP with cancellation and progress reporting.
func (g *Graph) SSSPContext(ctx context.Context, root uint32, progress ProgressFunc) (*Result, error) {
	return algorithms.SSSPContext(ctx, g.engine, root, progress)
}

// SSSPBatch fuses one SSSP per root into a single run; see
// PersonalizedPageRankBatch for the fusion contract.
func (g *Graph) SSSPBatch(roots []uint32) ([]*Result, error) {
	return algorithms.SSSPBatch(g.engine, roots)
}

// SSSPBatchContext is SSSPBatch with cancellation, progress reporting,
// and per-lane control (see PersonalizedPageRankBatchContext).
func (g *Graph) SSSPBatchContext(ctx context.Context, roots []uint32, progress ProgressFunc, ctrl func(BatchControl)) ([]*Result, error) {
	return algorithms.SSSPBatchContext(ctx, g.engine, roots, progress, ctrl)
}

// WCC labels every vertex with the smallest id in its weakly connected
// component. Requires Transpose.
func (g *Graph) WCC() (*Result, error) { return algorithms.WCC(g.engine) }

// WCCContext is WCC with cancellation and progress reporting.
func (g *Graph) WCCContext(ctx context.Context, progress ProgressFunc) (*Result, error) {
	return algorithms.WCCContext(ctx, g.engine, progress)
}

// SCC computes strongly connected components. Requires Transpose.
func (g *Graph) SCC() (*algorithms.SCCResult, error) { return algorithms.SCC(g.engine) }

// SCCContext is SCC with cancellation and progress reporting.
func (g *Graph) SCCContext(ctx context.Context, progress ProgressFunc) (*algorithms.SCCResult, error) {
	return algorithms.SCCContext(ctx, g.engine, progress)
}

// HITS runs hubs-and-authorities for iters iterations. Requires
// Transpose.
func (g *Graph) HITS(iters int) (auth, hub []float64, err error) {
	return algorithms.HITS(g.engine, iters)
}

// HITSContext is HITS with cancellation and progress reporting.
func (g *Graph) HITSContext(ctx context.Context, iters int, progress ProgressFunc) (auth, hub []float64, err error) {
	return algorithms.HITSContext(ctx, g.engine, iters, progress)
}

// KCore computes every vertex's core number in the undirected view of
// the graph. Requires Transpose.
func (g *Graph) KCore() (*algorithms.KCoreResult, error) {
	return algorithms.KCore(g.engine)
}

// KCoreContext is KCore with cancellation and progress reporting.
func (g *Graph) KCoreContext(ctx context.Context, progress ProgressFunc) (*algorithms.KCoreResult, error) {
	return algorithms.KCoreContext(ctx, g.engine, progress)
}

// Verify checks every on-disk invariant of the graph's DSSS store.
func (g *Graph) Verify() error { return storage.Verify(g.store) }

// RunProgram executes a custom Program in the forward direction.
func (g *Graph) RunProgram(p Program) (*Result, error) {
	return g.engine.Run(p, engine.Forward)
}

// RunProgramContext executes a custom Program in the forward direction
// with cancellation (checked at iteration and sub-shard-batch boundaries)
// and per-iteration progress reporting (progress may be nil).
func (g *Graph) RunProgramContext(ctx context.Context, p Program, progress ProgressFunc) (*Result, error) {
	return g.engine.RunContext(ctx, p, engine.Forward, progress)
}

// Engine exposes the underlying engine for advanced orchestration
// (stepping, masks, custom directions).
func (g *Graph) Engine() *engine.Engine { return g.engine }

// GenSpec describes a synthetic graph for Generate.
type GenSpec struct {
	kind              string
	scale, edgeFactor int
	rows, cols        int
	seed              int64
	weighted          bool
}

// RMAT describes a power-law graph with 2^scale vertices and
// edgeFactor·2^scale edges (Graph500 skew).
func RMAT(scale, edgeFactor int, seed int64) GenSpec {
	return GenSpec{kind: "rmat", scale: scale, edgeFactor: edgeFactor, seed: seed}
}

// WeightedRMAT is RMAT with uniform random weights in (0, 1].
func WeightedRMAT(scale, edgeFactor int, seed int64) GenSpec {
	s := RMAT(scale, edgeFactor, seed)
	s.weighted = true
	return s
}

// Mesh describes a triangulated rows×cols grid (planar, avg degree ≈ 6).
func Mesh(rows, cols int, seed int64) GenSpec {
	return GenSpec{kind: "mesh", rows: rows, cols: cols, seed: seed}
}

// Generate produces the described synthetic graph.
func Generate(spec GenSpec) (*EdgeList, error) {
	switch spec.kind {
	case "rmat":
		cfg := gen.DefaultRMAT(spec.scale, spec.edgeFactor, spec.seed)
		cfg.Weighted = spec.weighted
		return gen.RMAT(cfg)
	case "mesh":
		return gen.Mesh(spec.rows, spec.cols, spec.seed)
	default:
		return nil, fmt.Errorf("nxgraph: unknown generator %q", spec.kind)
	}
}
