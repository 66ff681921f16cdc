// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§IV). Each Exp* method builds the
// scaled stand-in datasets, runs the relevant systems, and returns a
// text table whose rows mirror what the paper reports. cmd/nxbench
// drives this package and its tests check every experiment at a reduced
// scale.
//
// Absolute numbers differ from the paper — the datasets are scaled
// stand-ins and the disks are simulated — but the comparisons (who wins,
// by what factor, where curves bend) are the reproduction targets. The
// repository's own regression benchmark, with recorded results, is
// described in benchmark/README.md.
package bench

import (
	"fmt"
	"io"
	"os"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/baseline"
	"nxgraph/internal/blockcache"
	"nxgraph/internal/diskio"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/graph"
	"nxgraph/internal/preprocess"
	"nxgraph/internal/storage"
)

// Suite configures one harness run.
type Suite struct {
	// ScaleDelta is added to every dataset preset's scale (negative
	// shrinks; -2 quarters the vertex count).
	ScaleDelta int
	// Threads is the worker count for all systems.
	Threads int
	// Seed drives all generators.
	Seed int64
	// Profile is the simulated disk used for timed runs (experiments
	// that sweep disks override it).
	Profile diskio.Profile
	// WorkDir hosts scratch stores; empty means a fresh temp dir.
	WorkDir string
	// PageRankIters is the iteration count for PageRank experiments
	// (the paper uses 10).
	PageRankIters int
	// CacheBytes overrides every engine's sub-shard block cache budget:
	// 0 keeps the per-engine derivation from the experiment's memory
	// budget (so budgeted experiments still measure streaming I/O),
	// positive sets the budget in bytes, negative disables caching.
	CacheBytes int64
	// CacheL2Frac is every engine's encoded-tier share of the cache
	// budget (zero or negative = decoded tier only, the default).
	CacheL2Frac float64
	// Log, when non-nil, receives progress lines.
	Log io.Writer

	graphs map[string]*graph.EdgeList
	nstore int
	// cacheTotals accumulates the final block-cache counters of every
	// engine the suite created (read when the engine's store closes).
	cacheTotals blockcache.Stats
	// encodedBytes/fixedBytes accumulate each built store's on-disk
	// sub-shard footprint against its fixed-width equivalent, for the
	// compression line in summaries.
	encodedBytes, fixedBytes int64
}

// NewSuite returns a Suite with the paper's defaults at reduced scale.
func NewSuite() *Suite {
	return &Suite{Threads: 4, Seed: 42, Profile: diskio.Unthrottled, PageRankIters: 10}
}

func (s *Suite) logf(format string, args ...any) {
	if s.Log != nil {
		fmt.Fprintf(s.Log, format+"\n", args...)
	}
}

func (s *Suite) workdir() (string, error) {
	if s.WorkDir == "" {
		dir, err := os.MkdirTemp("", "nxbench-*")
		if err != nil {
			return "", err
		}
		s.WorkDir = dir
	}
	return s.WorkDir, nil
}

// Graph returns (generating and caching) the named preset stand-in.
func (s *Suite) Graph(name string) (*graph.EdgeList, error) {
	if g, ok := s.graphs[name]; ok {
		return g, nil
	}
	g, err := gen.FromPreset(name, s.ScaleDelta, s.Seed)
	if err != nil {
		return nil, err
	}
	if s.graphs == nil {
		s.graphs = make(map[string]*graph.EdgeList)
	}
	s.graphs[name] = g
	s.logf("generated %s: %d vertices, %d edges", name, g.NumVertices, g.NumEdges())
	return g, nil
}

// buildStore preprocesses g (on an unthrottled disk — preprocessing is
// not part of any timed experiment) and reopens the store on a disk with
// the given profile for measurement.
func (s *Suite) buildStore(g *graph.EdgeList, p int, transpose bool, prof diskio.Profile) (*storage.Store, error) {
	wd, err := s.workdir()
	if err != nil {
		return nil, err
	}
	s.nstore++
	dir := fmt.Sprintf("store-%04d", s.nstore)
	build := diskio.MustNew(wd, diskio.Unthrottled)
	res, err := preprocess.FromEdgeList(build, dir, g, preprocess.Options{
		Name: dir, P: p, Transpose: transpose,
	})
	if err != nil {
		return nil, err
	}
	res.Store.Close()
	run := diskio.MustNew(wd, prof)
	st, err := storage.Open(run, dir)
	if err != nil {
		return nil, err
	}
	enc, fixed := st.CompressionRatio()
	s.encodedBytes += enc
	s.fixedBytes += fixed
	return st, nil
}

// nxEngine builds an engine over a fresh store of g. The returned
// cleanup folds the engine's block-cache counters into the suite totals
// before closing the store.
func (s *Suite) nxEngine(g *graph.EdgeList, p int, transpose bool, cfg engine.Config, prof diskio.Profile) (*engine.Engine, func(), error) {
	st, err := s.buildStore(g, p, transpose, prof)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Threads == 0 {
		cfg.Threads = s.Threads
	}
	if s.CacheBytes != 0 {
		cfg.CacheBytes = s.CacheBytes
	}
	cfg.CacheL2Frac = s.CacheL2Frac
	e, err := engine.New(st, cfg)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return e, func() {
		cs := e.CacheStats()
		s.cacheTotals.Hits += cs.Hits
		s.cacheTotals.L2Hits += cs.L2Hits
		s.cacheTotals.Misses += cs.Misses
		s.cacheTotals.Evictions += cs.Evictions
		s.cacheTotals.L2Evictions += cs.L2Evictions
		st.Close()
	}, nil
}

// CacheSummary reports the block-cache traffic aggregated over every
// engine the suite ran, or "" before any engine closed.
func (s *Suite) CacheSummary() string { return s.cacheTotals.Summary() }

// CompressionSummary reports the on-disk sub-shard footprint of every
// store the suite built against its fixed-width (v1) equivalent, or ""
// when nothing was built or the stores are uncompressed.
func (s *Suite) CompressionSummary() string {
	if s.fixedBytes == 0 || s.encodedBytes >= s.fixedBytes {
		return ""
	}
	return fmt.Sprintf("store compression: %d B encoded vs %d B fixed-width (%.2fx)",
		s.encodedBytes, s.fixedBytes, float64(s.fixedBytes)/float64(s.encodedBytes))
}

// realGraphs lists the paper's three real-world datasets (stand-ins).
var realGraphs = []string{"livejournal", "twitter", "yahoo"}

// Close removes the suite's scratch directory.
func (s *Suite) Close() {
	if s.WorkDir != "" {
		os.RemoveAll(s.WorkDir)
		s.WorkDir = ""
	}
}

// pagerank runs the suite's standard PageRank measurement on an engine.
func (s *Suite) pagerank(e *engine.Engine) (*engine.Result, error) {
	return algorithms.PageRank(e, 0.85, s.PageRankIters)
}

// baselinePageRank runs PageRank on a baseline system for the standard
// iteration count.
func (s *Suite) baselinePageRank(sys baseline.System) (*baseline.Result, error) {
	return sys.RunProgram(algorithms.NewPageRankProgram(sys.NumVertices(), 0.85), s.PageRankIters)
}
