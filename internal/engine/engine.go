package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"nxgraph/internal/blockcache"
	"nxgraph/internal/diskio"
	"nxgraph/internal/storage"
	"nxgraph/internal/trace"
)

// Strategy identifies an update strategy (paper §III-B).
type Strategy int

const (
	// Auto selects the fastest valid strategy from the memory budget:
	// SPU when two copies of all intervals fit for every lane of the run,
	// otherwise MPU (which degenerates to DPU when not even one interval
	// pair fits).
	Auto Strategy = iota
	// SPU is Single-Phase Update: ping-pong intervals resident in
	// memory, sub-shards streamed (or cached when the budget allows).
	SPU
	// DPU is Double-Phase Update: fully disk-based, ToHub + FromHub.
	DPU
	// MPU is Mixed-Phase Update: Q resident intervals handled SPU-style,
	// the rest via hubs.
	MPU
)

func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case SPU:
		return "spu"
	case DPU:
		return "dpu"
	case MPU:
		return "mpu"
	}
	return "unknown"
}

// Ba is the attribute size in bytes (float64), matching the paper's
// PageRank accounting.
const Ba = 8

// Config tunes an Engine.
type Config struct {
	// Threads is the worker pool size; 0 means GOMAXPROCS.
	Threads int
	// MemoryBudget is BM in bytes; 0 means unlimited.
	MemoryBudget int64
	// Strategy picks the update strategy; Auto adapts to MemoryBudget.
	Strategy Strategy
	// MaxIterations caps the number of iterations; 0 means run until
	// every interval is inactive.
	MaxIterations int
	// CacheBytes budgets the engine's sub-shard block cache, shared by
	// all runs on the store: 0 derives the budget from MemoryBudget
	// (unlimited when MemoryBudget is 0, the headroom past the ping-pong
	// arrays otherwise), a positive value sets it in bytes, and a
	// negative value disables caching — blocks are held only while
	// pinned by the running iteration's prefetch pipeline.
	CacheBytes int64
	// TraceSpans bounds each run's span ring buffer (see internal/trace):
	// 0 selects trace.DefaultCapacity, a positive value sets the bound,
	// and a negative value disables run tracing entirely (Result.Trace is
	// then nil and instrumentation costs nothing).
	TraceSpans int
}

// cacheBudget resolves CacheBytes against MemoryBudget for a graph of n
// vertices, in the block cache's convention (< 0 unlimited, >= 0 bytes).
func (c *Config) cacheBudget(n uint32) int64 {
	switch {
	case c.CacheBytes > 0:
		return c.CacheBytes
	case c.CacheBytes < 0:
		return 0
	case c.MemoryBudget <= 0:
		return -1
	}
	b := c.MemoryBudget - 2*int64(n)*Ba
	if b < 0 {
		b = 0
	}
	return b
}

func (c *Config) threads() int {
	if c.Threads <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Threads
}

// chunkDsts sizes a run's gather tasks (see gatherChunkCost). Suites
// that aim at chunk boundaries set it through their test hook.
var chunkDsts = 2048

// Engine executes Programs over one DSSS store.
type Engine struct {
	store *storage.Store
	cfg   Config

	outDeg []uint32 // forward out-degrees
	inDeg  []uint32 // forward in-degrees (= reverse out-degrees)

	// cache holds decoded sub-shard blocks shared by every run on the
	// store; cacheGen is the store generation its keys carry. New gives
	// each engine a private cache sized by Config.CacheBytes; a serving
	// layer may substitute a process-wide cache via SetBlockCache.
	cache    *blockcache.Cache
	cacheGen uint64

	// overlayProvider, when set, supplies each new run's delta-overlay
	// snapshot (see SetOverlayProvider).
	overlayProvider OverlayProvider

	// slabMu guards slabs, a free list of the lane-minor float64 arrays of
	// wide (L > 1) runs. Those are tens of megabytes (vertices × lanes);
	// reusing them spares every fused job after the first the allocation
	// and first-touch page faults. One-lane runs never touch the list:
	// their arrays are small, short-lived garbage the collector handles,
	// whereas retaining them would show up in a library user's live heap —
	// and a one-lane request must not walk off with a 16-lane slab.
	slabMu sync.Mutex
	slabs  [][]float64
}

// getSlab returns a float64 slab of length size for a run of L lanes,
// reusing the smallest pooled one that fits when L > 1. A size of 0 (a
// DPU run keeps no vertex interval resident) is nil and leaves the pool
// alone. Contents are unspecified — callers must initialize every slot
// they read.
func (e *Engine) getSlab(L, size int) []float64 {
	if size == 0 {
		return nil
	}
	if L > 1 {
		e.slabMu.Lock()
		defer e.slabMu.Unlock()
		best := -1
		for i, b := range e.slabs {
			if cap(b) >= size && (best < 0 || cap(b) < cap(e.slabs[best])) {
				best = i
			}
		}
		if best >= 0 {
			b, last := e.slabs[best], len(e.slabs)-1
			e.slabs[best] = e.slabs[last]
			e.slabs = e.slabs[:last]
			return b[:size]
		}
	}
	return make([]float64, size)
}

// putSlab returns an L-lane run's slabs to the free list (a no-op at
// L = 1). The list is bounded only by the number of concurrent wide runs
// (each holds a handful of slabs), so no explicit cap is needed.
func (e *Engine) putSlab(L int, slabs ...[]float64) {
	if L == 1 {
		return
	}
	e.slabMu.Lock()
	defer e.slabMu.Unlock()
	for _, b := range slabs {
		if b != nil {
			e.slabs = append(e.slabs, b)
		}
	}
}

// New creates an engine over store.
func New(store *storage.Store, cfg Config) (*Engine, error) {
	out, in, err := store.Degrees()
	if err != nil {
		return nil, err
	}
	return &Engine{
		store:    store,
		cfg:      cfg,
		outDeg:   out,
		inDeg:    in,
		cache:    blockcache.New(cfg.cacheBudget(store.Meta().NumVertices)),
		cacheGen: blockcache.NextGeneration(),
	}, nil
}

// SetBlockCache substitutes a shared block cache (and the store
// generation this engine's reads are keyed under) for the engine's
// private one. It must be called before runs are created; the serving
// layer uses it to share one budgeted cache across every registered
// graph and to retire a generation when compaction swaps the store.
func (e *Engine) SetBlockCache(c *blockcache.Cache, gen uint64) {
	e.cache, e.cacheGen = c, gen
}

// CacheStats returns the engine's block cache counters. With a shared
// cache installed they cover every store on that cache.
func (e *Engine) CacheStats() blockcache.Stats { return e.cache.Stats() }

// Store returns the engine's store.
func (e *Engine) Store() *storage.Store { return e.store }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// chooseStrategy resolves Auto against the memory budget for a run of L
// lanes, following §III-B with Ba·L bytes per vertex: SPU needs 2·n·Ba·L
// for the ping-pong intervals; otherwise MPU with Q = ⌊BM/(2·n·Ba·L)·P⌋
// resident intervals, which is DPU when Q = 0.
func (e *Engine) chooseStrategy(L int) (Strategy, int) {
	m := e.store.Meta()
	P := m.P
	if e.cfg.Strategy == SPU {
		return SPU, P
	}
	if e.cfg.Strategy == DPU {
		return DPU, 0
	}
	pingPong := 2 * int64(m.NumVertices) * Ba * int64(L)
	bm := e.cfg.MemoryBudget
	if bm <= 0 || bm >= pingPong {
		if e.cfg.Strategy == MPU {
			return MPU, P
		}
		return SPU, P
	}
	q := min(P, int(float64(bm)/float64(pingPong)*float64(P)))
	if e.cfg.Strategy == Auto && q == 0 {
		return DPU, 0
	}
	return MPU, q
}

// Result reports one program execution.
type Result struct {
	// Attrs holds the final attribute of every vertex (dense id order).
	Attrs []float64
	// Iterations is the number of iterations executed.
	Iterations int
	// Strategy is the strategy actually used (after Auto resolution).
	Strategy Strategy
	// ResidentIntervals is Q, the number of memory-resident intervals
	// (P for SPU, 0 for DPU).
	ResidentIntervals int
	// EdgesTraversed counts edge visits over all iterations (drives the
	// MTEPS metric of Fig 11).
	EdgesTraversed int64
	// IO is the store disk traffic during the run.
	IO diskio.StatsSnapshot
	// Elapsed is wall-clock run time.
	Elapsed time.Duration
	// Trace is the run's span timeline and per-iteration stage stats,
	// nil when tracing is disabled (Config.TraceSpans < 0).
	Trace *trace.Trace
}

// MTEPS returns millions of traversed edges per second.
func (r *Result) MTEPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.EdgesTraversed) / 1e6 / r.Elapsed.Seconds()
}

// Run executes p to completion (inactivity or MaxIterations) in the given
// direction and returns the final attributes.
func (e *Engine) Run(p Program, dir Direction) (*Result, error) {
	return e.RunContext(context.Background(), p, dir, nil)
}

// Progress reports the state of a running computation after one iteration.
type Progress struct {
	// Iteration is the number of iterations completed so far.
	Iteration int
	// Edges is the cumulative edge-traversal count.
	Edges int64
	// ActiveIntervals counts intervals active for the next iteration.
	ActiveIntervals int
	// Elapsed is wall-clock time since the run started.
	Elapsed time.Duration
}

// ProgressFunc observes per-iteration progress. It is called synchronously
// from the driving goroutine after each completed iteration, so it must be
// cheap; it must not call back into the Run.
type ProgressFunc func(Progress)

// RunContext executes p to completion like Run, but honours ctx
// cancellation — checked before every iteration and at sub-shard-batch
// (row/column) boundaries within one — and reports per-iteration progress
// to progress (which may be nil). On cancellation it returns ctx.Err();
// the engine and its store remain usable for subsequent runs.
func (e *Engine) RunContext(ctx context.Context, p Program, dir Direction, progress ProgressFunc) (*Result, error) {
	run, err := e.NewRun(p, dir)
	if err != nil {
		return nil, err
	}
	defer run.Close()
	run.SetProgress(progress)
	for {
		more, err := run.StepContext(ctx)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
	}
	return run.Finish()
}

// validateDirection checks the store supports dir.
func (e *Engine) validateDirection(dir Direction) error {
	if dir != Forward && !e.store.Meta().HasTranspose {
		return fmt.Errorf("engine: direction %s requires a store preprocessed with Transpose", dir)
	}
	return nil
}
