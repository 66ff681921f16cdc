package algorithms_test

import (
	"fmt"
	"math"
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/graph"
	"nxgraph/internal/refalgo"
	"nxgraph/internal/testutil"
)

// configs is the strategy × task-size matrix every algorithm is
// validated against. Budgets are computed from n at build time: SPU
// unlimited, MPU roughly half the intervals resident, DPU forced. The
// -callback rows cut small edge-balanced chunks; the -lock rows keep
// their names from the deleted Sync: Lock mode and run its schedule, one
// whole-cell task per sub-shard (ADR-016).
type configCase struct {
	name      string
	strategy  engine.Strategy
	chunkDsts int
	budget    func(n uint32) int64
}

const (
	smallChunks = 64      // exercises the parallel paths
	wholeCells  = 1 << 20 // past any test cell's cost: one task per cell
)

var configCases = []configCase{
	{"spu-callback", engine.SPU, smallChunks, func(n uint32) int64 { return 0 }},
	{"spu-lock", engine.SPU, wholeCells, func(n uint32) int64 { return 0 }},
	{"spu-streamed", engine.SPU, smallChunks, func(n uint32) int64 { return 2*int64(n)*8 + 1 }},
	{"mpu-callback", engine.Auto, smallChunks, func(n uint32) int64 { return int64(n) * 8 }},
	{"mpu-lock", engine.Auto, wholeCells, func(n uint32) int64 { return int64(n) * 8 }},
	{"dpu-callback", engine.DPU, smallChunks, func(n uint32) int64 { return 0 }},
	{"dpu-lock", engine.DPU, wholeCells, func(n uint32) int64 { return 0 }},
}

func buildEngine(t *testing.T, g *graph.EdgeList, p int, weighted bool, cc configCase) (*engine.Engine, *graph.EdgeList) {
	t.Helper()
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{
		P: p, Weighted: weighted, Transpose: true,
	})
	e, err := engine.New(st, engine.Config{
		Threads:      4,
		MemoryBudget: cc.budget(oracle.NumVertices),
		Strategy:     cc.strategy,
		ChunkDsts:    cc.chunkDsts,
	})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	return e, oracle
}

func testGraphs(t *testing.T) map[string]*graph.EdgeList {
	t.Helper()
	rmat, err := gen.RMAT(gen.DefaultRMAT(9, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := gen.Mesh(16, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := gen.Uniform(300, 1500, 99)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.EdgeList{"rmat": rmat, "mesh": mesh, "uniform": uni}
}

func TestPageRankMatchesOracle(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for _, cc := range configCases {
			t.Run(fmt.Sprintf("%s/%s", gname, cc.name), func(t *testing.T) {
				e, oracle := buildEngine(t, g, 5, false, cc)
				res, err := algorithms.PageRank(e, 0.85, 10)
				if err != nil {
					t.Fatalf("PageRank: %v", err)
				}
				want := refalgo.PageRank(oracle, 0.85, 10)
				if len(res.Attrs) != len(want) {
					t.Fatalf("got %d ranks, want %d", len(res.Attrs), len(want))
				}
				for v := range want {
					if math.Abs(res.Attrs[v]-want[v]) > 1e-9 {
						t.Fatalf("vertex %d: rank %.12f, want %.12f", v, res.Attrs[v], want[v])
					}
				}
				if res.Iterations != 10 {
					t.Errorf("ran %d iterations, want 10", res.Iterations)
				}
			})
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	for gname, g := range testGraphs(t) {
		t.Run(gname, func(t *testing.T) {
			e, _ := buildEngine(t, g, 4, false, configCases[0])
			res, err := algorithms.PageRank(e, 0.85, 5)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, r := range res.Attrs {
				sum += r
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("ranks sum to %.12f, want 1", sum)
			}
		})
	}
}

func TestPageRankConverge(t *testing.T) {
	g := testGraphs(t)["rmat"]
	e, oracle := buildEngine(t, g, 4, false, configCases[0])
	res, err := algorithms.PageRankConverge(e, 0.85, 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 5 || res.Iterations >= 200 {
		t.Fatalf("converged in %d iterations, expected a moderate count", res.Iterations)
	}
	// A converged fixpoint should be insensitive to many more oracle
	// iterations.
	want := refalgo.PageRank(oracle, 0.85, 300)
	for v := range want {
		if math.Abs(res.Attrs[v]-want[v]) > 1e-7 {
			t.Fatalf("vertex %d: rank %.12g, want %.12g", v, res.Attrs[v], want[v])
		}
	}
}

func TestBFSMatchesOracle(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for _, cc := range configCases {
			t.Run(fmt.Sprintf("%s/%s", gname, cc.name), func(t *testing.T) {
				e, oracle := buildEngine(t, g, 5, false, cc)
				res, err := algorithms.BFS(e, 0)
				if err != nil {
					t.Fatalf("BFS: %v", err)
				}
				want := refalgo.BFS(graph.BuildAdjacency(oracle), 0)
				for v := range want {
					got := int64(-1)
					if !math.IsInf(res.Attrs[v], 1) {
						got = int64(res.Attrs[v])
					}
					if got != want[v] {
						t.Fatalf("vertex %d: depth %d, want %d", v, got, want[v])
					}
				}
			})
		}
	}
}

func TestWCCMatchesOracle(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for _, cc := range configCases {
			t.Run(fmt.Sprintf("%s/%s", gname, cc.name), func(t *testing.T) {
				e, oracle := buildEngine(t, g, 5, false, cc)
				res, err := algorithms.WCC(e)
				if err != nil {
					t.Fatalf("WCC: %v", err)
				}
				want := refalgo.WCC(oracle)
				testutil.SamePartition(t, algorithms.Labels(res.Attrs), want)
			})
		}
	}
}

func TestSCCMatchesOracle(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for _, cc := range configCases {
			if cc.name == "spu-streamed" {
				continue // redundant with spu-callback for SCC, saves time
			}
			t.Run(fmt.Sprintf("%s/%s", gname, cc.name), func(t *testing.T) {
				e, oracle := buildEngine(t, g, 5, false, cc)
				res, err := algorithms.SCC(e)
				if err != nil {
					t.Fatalf("SCC: %v", err)
				}
				want := refalgo.SCC(graph.BuildAdjacency(oracle))
				testutil.SamePartition(t, res.Components, want)
			})
		}
	}
}

func TestSSSPMatchesOracle(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 9, EdgeFactor: 8, A: 0.57, B: 0.19, C: 0.19,
		Seed: 5, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range configCases {
		t.Run(cc.name, func(t *testing.T) {
			e, oracle := buildEngine(t, g, 5, true, cc)
			res, err := algorithms.SSSP(e, 0)
			if err != nil {
				t.Fatalf("SSSP: %v", err)
			}
			want := refalgo.SSSP(graph.BuildAdjacency(oracle), 0)
			for v := range want {
				if math.IsInf(want[v], 1) != math.IsInf(res.Attrs[v], 1) {
					t.Fatalf("vertex %d: reachability mismatch (%v vs %v)", v, res.Attrs[v], want[v])
				}
				if !math.IsInf(want[v], 1) && math.Abs(res.Attrs[v]-want[v]) > 1e-6 {
					t.Fatalf("vertex %d: dist %.9f, want %.9f", v, res.Attrs[v], want[v])
				}
			}
		})
	}
}

func TestHITSMatchesOracle(t *testing.T) {
	g := testGraphs(t)["rmat"]
	for _, cc := range []configCase{configCases[0], configCases[3], configCases[5]} {
		t.Run(cc.name, func(t *testing.T) {
			e, oracle := buildEngine(t, g, 4, false, cc)
			auth, hub, err := algorithms.HITS(e, 8)
			if err != nil {
				t.Fatalf("HITS: %v", err)
			}
			wantAuth, wantHub := refalgo.HITS(oracle, 8)
			for v := range wantAuth {
				if math.Abs(auth[v]-wantAuth[v]) > 1e-9 {
					t.Fatalf("vertex %d: auth %.12f, want %.12f", v, auth[v], wantAuth[v])
				}
				if math.Abs(hub[v]-wantHub[v]) > 1e-9 {
					t.Fatalf("vertex %d: hub %.12f, want %.12f", v, hub[v], wantHub[v])
				}
			}
		})
	}
}

func TestMaxDepth(t *testing.T) {
	depths := []float64{0, 1, 2, math.Inf(1), 3}
	if got := algorithms.MaxDepth(depths); got != 3 {
		t.Fatalf("MaxDepth = %d, want 3", got)
	}
	if got := algorithms.MaxDepth([]float64{math.Inf(1)}); got != -1 {
		t.Fatalf("MaxDepth of unreachable = %d, want -1", got)
	}
}

func TestPersonalizedPageRankMatchesOracle(t *testing.T) {
	g := testGraphs(t)["rmat"]
	for _, cc := range []configCase{configCases[0], configCases[3], configCases[5]} {
		t.Run(cc.name, func(t *testing.T) {
			e, oracle := buildEngine(t, g, 5, false, cc)
			res, err := algorithms.PersonalizedPageRank(e, 3, 0.85, 8)
			if err != nil {
				t.Fatalf("PPR: %v", err)
			}
			want := refalgo.PersonalizedPageRank(oracle, 3, 0.85, 8)
			var sum float64
			for v := range want {
				sum += res.Attrs[v]
				if math.Abs(res.Attrs[v]-want[v]) > 1e-10 {
					t.Fatalf("vertex %d: score %.12g, want %.12g", v, res.Attrs[v], want[v])
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("scores sum to %v", sum)
			}
			if res.Attrs[3] <= res.Attrs[0] && oracle.NumVertices > 4 {
				t.Fatalf("root should score highest locally: root=%v other=%v",
					res.Attrs[3], res.Attrs[0])
			}
		})
	}
}

// TestBatchMatchesSingleRuns: every fused entry point returns, per
// lane, exactly the single-query run's result — values, iterations and
// edges traversed — at widths 1, 3 and 16 under every config. A wide
// run resolves its strategy from the budget over all its lanes, so the
// mpu-* configs run one lane as MPU with Q = 2 of 4 and the wider runs
// as DPU; a forward run does not depend on Q.
func TestBatchMatchesSingleRuns(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 6, A: 0.57, B: 0.19, C: 0.19, Seed: 13, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		name   string
		batch  func(e *engine.Engine, roots []uint32) ([]*engine.Result, error)
		single func(e *engine.Engine, root uint32) (*engine.Result, error)
	}
	entries := []entry{
		{"ppr", func(e *engine.Engine, roots []uint32) ([]*engine.Result, error) {
			return algorithms.PersonalizedPageRankBatch(e, roots, 0.85, 5)
		}, func(e *engine.Engine, root uint32) (*engine.Result, error) {
			return algorithms.PersonalizedPageRank(e, root, 0.85, 5)
		}},
		{"bfs", algorithms.BFSBatch, algorithms.BFS},
		{"sssp", algorithms.SSSPBatch, algorithms.SSSP},
	}
	for _, cc := range configCases {
		t.Run(cc.name, func(t *testing.T) {
			e, oracle := buildEngine(t, g, 4, true, cc)
			roots := make([]uint32, 16)
			for l := range roots {
				roots[l] = uint32(l*37+3) % oracle.NumVertices
			}
			for _, en := range entries {
				want := make([]*engine.Result, len(roots))
				for l, root := range roots {
					if want[l], err = en.single(e, root); err != nil {
						t.Fatal(err)
					}
				}
				for _, w := range []int{1, 3, 16} {
					got, err := en.batch(e, roots[:w])
					if err != nil {
						t.Fatal(err)
					}
					for l := range got {
						name := fmt.Sprintf("%s width %d lane %d", en.name, w, l)
						for v, x := range got[l].Attrs {
							if math.Float64bits(x) != math.Float64bits(want[l].Attrs[v]) {
								t.Fatalf("%s vertex %d: %v, single run %v", name, v, x, want[l].Attrs[v])
							}
						}
						if got[l].Iterations != want[l].Iterations || got[l].EdgesTraversed != want[l].EdgesTraversed {
							t.Fatalf("%s: %d iterations, %d edges; single run %d, %d", name,
								got[l].Iterations, got[l].EdgesTraversed, want[l].Iterations, want[l].EdgesTraversed)
						}
					}
				}
			}
		})
	}
}

func TestPPRValidation(t *testing.T) {
	g := testGraphs(t)["uniform"]
	e, _ := buildEngine(t, g, 4, false, configCases[0])
	if _, err := algorithms.PersonalizedPageRank(e, 1<<30, 0.85, 5); err == nil {
		t.Fatal("out-of-range root accepted")
	}
	if _, err := algorithms.PersonalizedPageRank(e, 0, 0.85, 0); err == nil {
		t.Fatal("zero iterations accepted")
	}
}
