package engine_test

import (
	"math"
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/dynamic"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/graph"
	"nxgraph/internal/refalgo"
	"nxgraph/internal/testutil"
)

// The algorithms package's oracle suites run at the engine's default
// gather task size, one task per cell on their graphs. The task size is
// this package's to set (SetChunkDsts), so the same algorithms meet the
// same oracles here with small tasks: every cell is cut into several
// tasks that chain per destination interval, under each strategy, on the
// base store and under deltas, and the hinted kernels are held bit for
// bit to the generic ones.

// smallTasks is the gather task size of the oracle suites below.
const smallTasks = 64

// smallTaskCases: SPU unlimited and streamed, MPU with roughly half the
// intervals resident, DPU forced.
var smallTaskCases = []struct {
	name     string
	strategy engine.Strategy
	budget   func(n uint32) int64
}{
	{"spu", engine.SPU, func(uint32) int64 { return 0 }},
	{"spu-streamed", engine.SPU, func(n uint32) int64 { return 2*int64(n)*8 + 1 }},
	{"mpu", engine.Auto, func(n uint32) int64 { return int64(n) * 8 }},
	{"dpu", engine.DPU, func(uint32) int64 { return 0 }},
}

func oracleGraphs(t *testing.T) map[string]*graph.EdgeList {
	t.Helper()
	gs := map[string]*graph.EdgeList{}
	var err error
	if gs["rmat"], err = gen.RMAT(gen.DefaultRMAT(9, 8, 42)); err != nil {
		t.Fatal(err)
	}
	if gs["mesh"], err = gen.Mesh(16, 24, 7); err != nil {
		t.Fatal(err)
	}
	if gs["uniform"], err = gen.Uniform(300, 1500, 99); err != nil {
		t.Fatal(err)
	}
	if gs["rmat-weighted"], err = gen.RMAT(gen.RMATConfig{Scale: 9, EdgeFactor: 8,
		A: 0.57, B: 0.19, C: 0.19, Seed: 5, Weighted: true}); err != nil {
		t.Fatal(err)
	}
	return gs
}

func closeTo(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	for v := range want {
		if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) ||
			!math.IsInf(want[v], 1) && math.Abs(got[v]-want[v]) > tol {
			t.Fatalf("vertex %d: %s %.12g, want %.12g", v, what, got[v], want[v])
		}
	}
}

// TestAlgorithmsMatchOracleInSmallTasks: every algorithm matches its
// oracle with small gather tasks under every strategy.
func TestAlgorithmsMatchOracleInSmallTasks(t *testing.T) {
	defer engine.SetChunkDsts(smallTasks)()
	all := []string{"rmat", "mesh", "uniform"}
	checks := []struct {
		name     string
		graphs   []string
		p        int
		streamed bool // also run the spu-streamed case
		check    func(t *testing.T, e *engine.Engine, g *graph.EdgeList)
	}{
		{"pagerank", all, 5, true, func(t *testing.T, e *engine.Engine, g *graph.EdgeList) {
			res, err := algorithms.PageRank(e, 0.85, 10)
			if err != nil {
				t.Fatal(err)
			}
			closeTo(t, "rank", res.Attrs, refalgo.PageRank(g, 0.85, 10), 1e-9)
		}},
		{"bfs", all, 5, true, func(t *testing.T, e *engine.Engine, g *graph.EdgeList) {
			res, err := algorithms.BFS(e, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := refalgo.BFS(graph.BuildAdjacency(g), 0)
			for v := range want {
				got := int64(-1)
				if !math.IsInf(res.Attrs[v], 1) {
					got = int64(res.Attrs[v])
				}
				if got != want[v] {
					t.Fatalf("vertex %d: depth %d, want %d", v, got, want[v])
				}
			}
		}},
		{"wcc", all, 5, true, func(t *testing.T, e *engine.Engine, g *graph.EdgeList) {
			res, err := algorithms.WCC(e)
			if err != nil {
				t.Fatal(err)
			}
			testutil.SamePartition(t, algorithms.Labels(res.Attrs), refalgo.WCC(g))
		}},
		{"scc", all, 5, false, func(t *testing.T, e *engine.Engine, g *graph.EdgeList) {
			res, err := algorithms.SCC(e)
			if err != nil {
				t.Fatal(err)
			}
			testutil.SamePartition(t, res.Components, refalgo.SCC(graph.BuildAdjacency(g)))
		}},
		{"kcore", all, 4, false, func(t *testing.T, e *engine.Engine, g *graph.EdgeList) {
			res, err := algorithms.KCore(e)
			if err != nil {
				t.Fatal(err)
			}
			for v, want := range refalgo.KCore(g) {
				if res.Core[v] != want {
					t.Fatalf("vertex %d: core %d, want %d", v, res.Core[v], want)
				}
			}
		}},
		{"sssp", []string{"rmat-weighted"}, 5, true, func(t *testing.T, e *engine.Engine, g *graph.EdgeList) {
			res, err := algorithms.SSSP(e, 0)
			if err != nil {
				t.Fatal(err)
			}
			closeTo(t, "dist", res.Attrs, refalgo.SSSP(graph.BuildAdjacency(g), 0), 1e-6)
		}},
		{"hits", []string{"rmat"}, 4, false, func(t *testing.T, e *engine.Engine, g *graph.EdgeList) {
			auth, hub, err := algorithms.HITS(e, 8)
			if err != nil {
				t.Fatal(err)
			}
			wantAuth, wantHub := refalgo.HITS(g, 8)
			closeTo(t, "auth", auth, wantAuth, 1e-9)
			closeTo(t, "hub", hub, wantHub, 1e-9)
		}},
		{"ppr", []string{"rmat"}, 5, false, func(t *testing.T, e *engine.Engine, g *graph.EdgeList) {
			res, err := algorithms.PersonalizedPageRank(e, 3, 0.85, 8)
			if err != nil {
				t.Fatal(err)
			}
			closeTo(t, "score", res.Attrs, refalgo.PersonalizedPageRank(g, 3, 0.85, 8), 1e-10)
		}},
	}
	graphs := oracleGraphs(t)
	for _, c := range checks {
		for _, gname := range c.graphs {
			g := graphs[gname]
			st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: c.p, Weighted: g.Weighted, Transpose: true})
			for _, cc := range smallTaskCases {
				if cc.name == "spu-streamed" && !c.streamed {
					continue
				}
				t.Run(c.name+"/"+gname+"/"+cc.name, func(t *testing.T) {
					e, err := engine.New(st, engine.Config{Threads: 4,
						MemoryBudget: cc.budget(oracle.NumVertices), Strategy: cc.strategy})
					if err != nil {
						t.Fatal(err)
					}
					c.check(t, e, oracle)
				})
			}
		}
	}
}

// TestSCCAndKCoreMatchOracleUnderDeltasInSmallTasks runs the two
// algorithms whose programs hold a vertex mask over a transposed store
// with pending adds and base-edge removals, so both replicas carry
// overlay cells and tombstoned base cells cut into small tasks, some of
// whose dirty destinations keep no edge.
func TestSCCAndKCoreMatchOracleUnderDeltasInSmallTasks(t *testing.T) {
	defer engine.SetChunkDsts(smallTasks)()
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 17))
	if err != nil {
		t.Fatal(err)
	}
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4, Transpose: true})
	ids, err := st.IDMap()
	if err != nil {
		t.Fatal(err)
	}
	n := oracle.NumVertices
	log, err := dynamic.NewDeltaLog(st)
	if err != nil {
		t.Fatal(err)
	}
	removed := map[[2]uint32]bool{}
	for i, ed := range oracle.Edges {
		if i%7 == 0 || ed.Dst%61 == 5 {
			removed[[2]uint32{ed.Src, ed.Dst}] = true
		}
	}
	for p := range removed {
		log.Remove(ids[p[0]], ids[p[1]])
	}
	mutated := &graph.EdgeList{NumVertices: n}
	for _, ed := range oracle.Edges {
		if !removed[[2]uint32{ed.Src, ed.Dst}] {
			mutated.Edges = append(mutated.Edges, ed)
		}
	}
	for i := uint32(0); i < n/2; i++ {
		src, dst := (i*37+11)%n, (i*53+7)%n
		log.Add(ids[src], ids[dst], 1)
		mutated.Edges = append(mutated.Edges, graph.Edge{Src: src, Dst: dst, Weight: 1})
	}
	wantSCC := refalgo.SCC(graph.BuildAdjacency(mutated))
	wantCore := refalgo.KCore(mutated)

	for _, cc := range smallTaskCases {
		t.Run(cc.name, func(t *testing.T) {
			e, err := engine.New(st, engine.Config{Threads: 4, MemoryBudget: cc.budget(n), Strategy: cc.strategy})
			if err != nil {
				t.Fatal(err)
			}
			e.SetOverlayProvider(log.Overlay)
			scc, err := algorithms.SCC(e)
			if err != nil {
				t.Fatalf("SCC: %v", err)
			}
			testutil.SamePartition(t, scc.Components, wantSCC)
			kc, err := algorithms.KCore(e)
			if err != nil {
				t.Fatalf("KCore: %v", err)
			}
			for v := range wantCore {
				if kc.Core[v] != wantCore[v] {
					t.Fatalf("vertex %d: core %d, want %d", v, kc.Core[v], wantCore[v])
				}
			}
		})
	}
}

// TestHintedKernelsMatchGenericInSmallTasks: with tasks of 16
// destinations' cost, every exported hinted program agrees bit for bit
// with its generic-kernel twin under SPU, DPU and MPU, on the base store
// and on a mutated overlay snapshot, with weights present; foldProg
// stands in for SCC's and k-core's unexported ones.
func TestHintedKernelsMatchGenericInSmallTasks(t *testing.T) {
	defer engine.SetChunkDsts(16)()
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4, Weighted: true, Transpose: true})
	n := oracle.NumVertices
	log, err := dynamic.NewDeltaLog(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12 && i < len(oracle.Edges); i++ {
		ed := oracle.Edges[i*5%len(oracle.Edges)]
		log.Remove(uint64(ed.Src), uint64(ed.Dst))
	}
	for i := uint64(0); i < 20; i++ {
		log.Add((i*17)%uint64(n), (i*31+3)%uint64(n), 1)
	}
	configs := map[string]engine.Config{
		"spu": {Threads: 3, Strategy: engine.SPU},
		"dpu": {Threads: 3, Strategy: engine.DPU},
		"mpu": {Threads: 3, Strategy: engine.MPU, MemoryBudget: int64(n) * 8},
	}
	progs := []struct {
		name  string
		prog  func() engine.Program
		dir   engine.Direction
		iters int
	}{
		{"pagerank", func() engine.Program { return algorithms.NewPageRankProgram(n, 0.85) }, engine.Forward, 6},
		{"ppr", func() engine.Program { return algorithms.NewPPRProgram(1, 0.85) }, engine.Forward, 6},
		{"wcc", algorithms.NewWCCProgram, engine.Both, 0},
		{"bfs", func() engine.Program { return algorithms.NewBFSProgram(1) }, engine.Forward, 0},
		{"sssp", func() engine.Program { return algorithms.NewSSSPProgram(1) }, engine.Forward, 0},
		{"maxfold", func() engine.Program { return foldProg{max: true} }, engine.Forward, 0},
		{"copysum", func() engine.Program { return foldProg{} }, engine.Forward, 5},
	}
	for _, overlay := range []bool{false, true} {
		for cname, cfg := range configs {
			e, err := engine.New(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := "base/" + cname
			if overlay {
				e.SetOverlayProvider(log.Overlay)
				name = "overlay/" + cname
			}
			for _, p := range progs {
				t.Run(name+"/"+p.name, func(t *testing.T) {
					want := runEach(t, e, []engine.Program{stripHint(p.prog())}, p.dir, p.iters)
					got := runEach(t, e, []engine.Program{p.prog()}, p.dir, p.iters)
					sameBits(t, p.name, got, want)
				})
			}
		}
	}
}

// foldProg declares the two hints no exported program does: KernelMaxFold
// (SCC's forward coloring) and KernelCopySum (HITS' half-steps and the
// live-degree counts of SCC and k-core).
type foldProg struct{ max bool }

func (foldProg) Name() string { return "fold" }
func (p foldProg) Zero() float64 {
	if p.max {
		return math.Inf(-1)
	}
	return 0
}
func (foldProg) Init(v uint32) (float64, bool)                 { return float64(v), true }
func (foldProg) Gather(a float64, _ uint32, _ float32) float64 { return a }
func (p foldProg) Sum(a, b float64) float64 {
	if p.max {
		return math.Max(a, b)
	}
	return a + b
}
func (p foldProg) Apply(v uint32, old, acc float64) (float64, bool) {
	if p.max {
		m := math.Max(old, acc)
		return m, m != old
	}
	if acc == 0 {
		return old, false
	}
	return 0.5*old + 0.25*acc, true
}
func (p foldProg) FusedKernelHint() engine.KernelHint {
	if p.max {
		return engine.KernelMaxFold
	}
	return engine.KernelCopySum
}
