package nxgraph_test

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	nxgraph "nxgraph"
)

func buildSample(t *testing.T, opt nxgraph.Options) *nxgraph.Graph {
	t.Helper()
	g, err := nxgraph.Generate(nxgraph.RMAT(10, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	gr, err := nxgraph.Build(t.TempDir(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gr.Close() })
	return gr
}

func TestBuildAndPageRank(t *testing.T) {
	gr := buildSample(t, nxgraph.Options{P: 6})
	if gr.NumVertices() == 0 || gr.NumEdges() != 8<<10 {
		t.Fatalf("graph: %d vertices, %d edges", gr.NumVertices(), gr.NumEdges())
	}
	res, err := gr.PageRank(0.85, 5)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range res.Attrs {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ranks sum to %v", sum)
	}
	if res.Strategy != nxgraph.SPU {
		t.Fatalf("unlimited budget should pick SPU, got %s", res.Strategy)
	}
	if gr.IOStats().BytesWritten == 0 {
		t.Fatal("expected preprocessing writes on the graph's disk")
	}
}

func TestOpenExistingStore(t *testing.T) {
	g, err := nxgraph.Generate(nxgraph.Mesh(16, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gr, err := nxgraph.Build(dir, g, nxgraph.Options{P: 4, Transpose: true})
	if err != nil {
		t.Fatal(err)
	}
	n := gr.NumVertices()
	gr.Close()

	re, err := nxgraph.Open(dir, nxgraph.Options{P: 4, MemoryBudget: 64, Strategy: nxgraph.DPU})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumVertices() != n {
		t.Fatalf("reopened store has %d vertices, want %d", re.NumVertices(), n)
	}
	res, err := re.WCC()
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != nxgraph.DPU {
		t.Fatalf("forced DPU, got %s", res.Strategy)
	}
	first := uint32(res.Attrs[0])
	for v, l := range res.Attrs {
		if uint32(l) != first {
			t.Fatalf("mesh is connected; vertex %d got label %v", v, l)
		}
	}
}

func TestBuildFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.txt")
	content := "# tiny graph with sparse indices\n100 200\n200 300\n300 100\n300 999\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	gr, err := nxgraph.BuildFromFile(t.TempDir(), path, nxgraph.Options{P: 2, Transpose: true})
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Close()
	if gr.NumVertices() != 4 {
		t.Fatalf("n = %d, want 4", gr.NumVertices())
	}
	ids, err := gr.RemapTable()
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 100 || ids[3] != 999 {
		t.Fatalf("remap: %v", ids)
	}
	scc, err := gr.SCC()
	if err != nil {
		t.Fatal(err)
	}
	// {100,200,300} form a cycle; 999 is a sink singleton.
	if scc.NumComponents() != 2 {
		t.Fatalf("%d SCCs, want 2", scc.NumComponents())
	}
	out, in, err := gr.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	if out[3] != 0 || in[3] != 1 {
		t.Fatalf("sink degrees: out=%d in=%d", out[3], in[3])
	}
}

func TestBFSAndSSSPFacade(t *testing.T) {
	g, err := nxgraph.Generate(nxgraph.WeightedRMAT(9, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	gr, err := nxgraph.Build(t.TempDir(), g, nxgraph.Options{P: 4, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Close()
	bfs, err := gr.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	sssp, err := gr.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	// Weighted distance can never exceed hop count here only if all
	// weights ≤ 1 (they are, by WeightedRMAT's construction).
	for v := range bfs.Attrs {
		if math.IsInf(bfs.Attrs[v], 1) != math.IsInf(sssp.Attrs[v], 1) {
			t.Fatalf("vertex %d: reachability disagrees", v)
		}
		if !math.IsInf(bfs.Attrs[v], 1) && sssp.Attrs[v] > bfs.Attrs[v]+1e-9 {
			t.Fatalf("vertex %d: weighted dist %v exceeds hops %v with weights ≤ 1",
				v, sssp.Attrs[v], bfs.Attrs[v])
		}
	}
}

func TestHITSFacade(t *testing.T) {
	gr := buildSample(t, nxgraph.Options{P: 4, Transpose: true})
	auth, hub, err := gr.HITS(5)
	if err != nil {
		t.Fatal(err)
	}
	var na, nh float64
	for i := range auth {
		na += auth[i] * auth[i]
		nh += hub[i] * hub[i]
	}
	if math.Abs(na-1) > 1e-9 || math.Abs(nh-1) > 1e-9 {
		t.Fatalf("scores not normalized: %v %v", na, nh)
	}
}

func TestTransposeRequiredErrors(t *testing.T) {
	gr := buildSample(t, nxgraph.Options{P: 4}) // no transpose
	if _, err := gr.WCC(); err == nil {
		t.Fatal("WCC without transpose accepted")
	}
	if _, err := gr.SCC(); err == nil {
		t.Fatal("SCC without transpose accepted")
	}
	if _, _, err := gr.HITS(3); err == nil {
		t.Fatal("HITS without transpose accepted")
	}
	if _, err := gr.BFS(1 << 30); err == nil {
		t.Fatal("out-of-range BFS root accepted")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := nxgraph.Generate(nxgraph.GenSpec{}); err == nil {
		t.Fatal("zero spec accepted")
	}
	if _, err := nxgraph.Generate(nxgraph.RMAT(99, 1, 1)); err == nil {
		t.Fatal("huge scale accepted")
	}
}

// hops is BFS written against the public Program interface alone. It
// declares no kernel hint, so a run of it gathers through the engine's
// generic interface-dispatch kernel.
type hops struct{ root uint32 }

func (hops) Name() string  { return "hops" }
func (hops) Zero() float64 { return math.Inf(1) }

func (h hops) Init(v uint32) (float64, bool) {
	if v == h.root {
		return 0, true
	}
	return math.Inf(1), false
}

func (hops) Gather(srcAttr float64, _ uint32, _ float32) float64 { return srcAttr + 1 }
func (hops) Sum(a, b float64) float64                            { return math.Min(a, b) }

func (hops) Apply(_ uint32, old, acc float64) (float64, bool) {
	if acc < old {
		return acc, true
	}
	return old, false
}

// TestRunProgramMatchesBFS runs the custom hops program through
// Graph.RunProgram and Graph.RunProgramContext: both must match
// Graph.BFS, whose program declares the hop-min kernel, bit for bit, and
// a cancelled context must stop the run with context.Canceled.
func TestRunProgramMatchesBFS(t *testing.T) {
	gr := buildSample(t, nxgraph.Options{P: 6})
	want, err := gr.BFS(3)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(nxgraph.Program) (*nxgraph.Result, error){
		"RunProgram": gr.RunProgram,
		"RunProgramContext": func(p nxgraph.Program) (*nxgraph.Result, error) {
			return gr.RunProgramContext(context.Background(), p, nil)
		},
	} {
		got, err := run(hops{root: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Iterations != want.Iterations {
			t.Fatalf("%s: %d iterations, BFS took %d", name, got.Iterations, want.Iterations)
		}
		for v, x := range got.Attrs {
			if math.Float64bits(x) != math.Float64bits(want.Attrs[v]) {
				t.Fatalf("%s: vertex %d at depth %g, BFS says %g", name, v, x, want.Attrs[v])
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := gr.RunProgramContext(ctx, hops{root: 3}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}
