package engine_test

import (
	"math"
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/graph"
	"nxgraph/internal/refalgo"
	"nxgraph/internal/testutil"
)

// TestBothDirectionEqualsSymmetrized checks that a Both-direction run
// over a directed store gives the same labels as a Forward run over the
// explicitly symmetrized graph — i.e. Direction.Both really is the
// paper's "undirected graph = both orientations" convention.
func TestBothDirectionEqualsSymmetrized(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 6, 31))
	if err != nil {
		t.Fatal(err)
	}
	eBoth, oracle := buildEngine(t, g, 5, engine.Config{Threads: 2})
	both, err := eBoth.Run(algorithms.NewWCCProgram(), engine.Both)
	if err != nil {
		t.Fatal(err)
	}
	// Forward over the symmetrized compacted oracle graph.
	sym := oracle.Symmetrize()
	st, _ := testutil.BuildStore(t, sym, testutil.StoreOptions{P: 5})
	eSym, err := engine.New(st, engine.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := eSym.Run(algorithms.NewWCCProgram(), engine.Forward)
	if err != nil {
		t.Fatal(err)
	}
	testutil.SamePartition(t, algorithms.Labels(both.Attrs), algorithms.Labels(fwd.Attrs))
}

func TestSelfLoopsAndDuplicateEdges(t *testing.T) {
	// Self-loops feed rank back; duplicate edges count twice. The
	// oracle handles both, so exact agreement proves the engine does.
	g := &graph.EdgeList{NumVertices: 4, Edges: []graph.Edge{
		{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 0, Dst: 1}, // dup
		{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0},
	}}
	e, oracle := buildEngine(t, g, 2, engine.Config{Threads: 2})
	res, err := algorithms.PageRank(e, 0.85, 12)
	if err != nil {
		t.Fatal(err)
	}
	want := refalgo.PageRank(oracle, 0.85, 12)
	for v := range want {
		if math.Abs(res.Attrs[v]-want[v]) > 1e-12 {
			t.Fatalf("vertex %d: %v vs %v", v, res.Attrs[v], want[v])
		}
	}
}

func TestAllDanglingGraph(t *testing.T) {
	// Star into a single sink: nearly all mass ends in dangling
	// redistribution; exercises the aggregator heavily.
	g := &graph.EdgeList{NumVertices: 8}
	for v := uint32(0); v < 7; v++ {
		g.Edges = append(g.Edges, graph.Edge{Src: v, Dst: 7})
	}
	for _, strategy := range []engine.Strategy{engine.SPU, engine.DPU} {
		e, oracle := buildEngine(t, g, 2, engine.Config{Strategy: strategy, Threads: 2})
		res, err := algorithms.PageRank(e, 0.85, 20)
		if err != nil {
			t.Fatal(err)
		}
		want := refalgo.PageRank(oracle, 0.85, 20)
		for v := range want {
			if math.Abs(res.Attrs[v]-want[v]) > 1e-12 {
				t.Fatalf("%s vertex %d: %v vs %v", strategy, v, res.Attrs[v], want[v])
			}
		}
	}
}

// TestUnreachableBFSTerminates ensures the activity machinery terminates
// runs where the frontier dies immediately.
func TestUnreachableBFSTerminates(t *testing.T) {
	g := &graph.EdgeList{NumVertices: 4, Edges: []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 2, Dst: 3},
	}}
	e, _ := buildEngine(t, g, 2, engine.Config{Threads: 1})
	res, err := algorithms.BFS(e, 3) // vertex 3 has no out-edges
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Fatalf("dead frontier ran %d iterations", res.Iterations)
	}
	if res.Attrs[3] != 0 {
		t.Fatalf("root depth %v", res.Attrs[3])
	}
	for _, v := range []int{0, 1, 2} {
		if !math.IsInf(res.Attrs[v], 1) {
			t.Fatalf("vertex %d should be unreachable, got %v", v, res.Attrs[v])
		}
	}
}

// TestUnevenIntervals covers n not divisible by P (short last interval)
// for every strategy.
func TestUnevenIntervals(t *testing.T) {
	g, err := gen.Uniform(101, 900, 17) // 101 vertices, P=7 → last interval short
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []engine.Strategy{engine.SPU, engine.DPU, engine.MPU} {
		e, oracle := buildEngine(t, g, 7, engine.Config{
			Strategy: strategy, MemoryBudget: int64(g.NumVertices) * 8, Threads: 2,
		})
		res, err := algorithms.PageRank(e, 0.85, 6)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		want := refalgo.PageRank(oracle, 0.85, 6)
		for v := range want {
			if math.Abs(res.Attrs[v]-want[v]) > 1e-12 {
				t.Fatalf("%s vertex %d: %v vs %v", strategy, v, res.Attrs[v], want[v])
			}
		}
	}
}

// TestRunReuseAcrossPhases exercises the stepping API the SCC/HITS
// orchestration depends on: reset, reactivate, re-step.
func TestRunReuseAcrossPhases(t *testing.T) {
	g, _ := gen.Uniform(200, 1500, 23)
	e, oracle := buildEngine(t, g, 4, engine.Config{Threads: 2})
	run, err := e.NewRun(algorithms.NewPageRankProgram(oracle.NumVertices, 0.85), engine.Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if _, err := run.Step(); err != nil {
		t.Fatal(err)
	}
	if run.Iterations() != 1 {
		t.Fatalf("iterations = %d", run.Iterations())
	}
	run.ResetIterations()
	if run.Iterations() != 0 {
		t.Fatal("reset failed")
	}
	run.ActivateAll()
	if _, err := run.Step(); err != nil {
		t.Fatal(err)
	}
	run.ActivateVertex(0)
	if _, err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	// A closed run refuses to step.
	run.Close()
	if _, err := run.Step(); err == nil {
		t.Fatal("step on closed run accepted")
	}
}

// TestClosedRunFails: once Close has released a run's attributes (the
// resident slabs go back to the pool, the attribute file closes), every
// method that reads or writes them fails by name like Step does, rather
// than returning zeros or a file error.
func TestClosedRunFails(t *testing.T) {
	g, _ := gen.Uniform(200, 1500, 29)
	for _, strategy := range []engine.Strategy{engine.SPU, engine.DPU} {
		t.Run(strategy.String(), func(t *testing.T) {
			e, oracle := buildEngine(t, g, 4, engine.Config{Threads: 2, Strategy: strategy})
			run, err := e.NewRun(algorithms.NewPageRankProgram(oracle.NumVertices, 0.85), engine.Forward)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run.Step(); err != nil {
				t.Fatal(err)
			}
			run.Close()
			check := func(op string, err error) {
				t.Helper()
				if want := "engine: " + op + " on closed run"; err == nil || err.Error() != want {
					t.Errorf("%s after Close: err = %v, want %q", op, err, want)
				}
			}
			_, err = run.Step()
			check("Step", err)
			_, err = run.Finish()
			check("Finish", err)
			_, err = run.FinishLanes()
			check("FinishLanes", err)
			_, err = run.Attrs()
			check("Attrs", err)
			check("SetAttrs", run.SetAttrs(make([]float64, oracle.NumVertices)))
		})
	}
}

func TestEdgesTraversedCount(t *testing.T) {
	g, _ := gen.Uniform(100, 1000, 29)
	e, oracle := buildEngine(t, g, 4, engine.Config{Threads: 2})
	res, err := algorithms.PageRank(e, 0.85, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := int64(len(oracle.Edges))
	if res.EdgesTraversed != 3*m {
		t.Fatalf("traversed %d edges, want %d", res.EdgesTraversed, 3*m)
	}
}

// TestWeightedStoreDefaultsWeightOne checks SSSP over an unweighted
// store equals BFS (all weights read as 1).
func TestWeightedStoreDefaultsWeightOne(t *testing.T) {
	g, _ := gen.Uniform(150, 1200, 37)
	e, _ := buildEngine(t, g, 4, engine.Config{Threads: 2})
	bfs, err := algorithms.BFS(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	sssp, err := algorithms.SSSP(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range bfs.Attrs {
		if bfs.Attrs[v] != sssp.Attrs[v] {
			t.Fatalf("vertex %d: bfs %v, sssp %v", v, bfs.Attrs[v], sssp.Attrs[v])
		}
	}
}
