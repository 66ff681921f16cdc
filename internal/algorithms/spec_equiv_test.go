package algorithms

// White-box equivalence suite for the devirtualized kernels: every
// program that declares a KernelHint (and the LaneApplier fast paths that
// ride along) must produce attributes bit-identical to the same Program
// running through the generic interface kernels — across update
// strategies, with and without delta overlays, weights, and masks. The
// wrappers below strip the specialization interfaces from a Program so
// the engine falls back to per-edge interface dispatch.

import (
	"context"
	"math"
	"testing"

	"nxgraph/internal/bitset"
	"nxgraph/internal/dynamic"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/storage"
	"nxgraph/internal/testutil"
)

// hideSpec exposes only the plain Program method set: interface
// assertions for FusedKernel, LaneApplier, GlobalAggregator and
// LaneAggregator all fail, so the engine uses the generic paths.
type hideSpec struct{ engine.Program }

// hideSpecDense is hideSpec for programs whose DenseApply marker must
// survive (it changes which vertices Apply runs for, which is not what
// this suite tests).
type hideSpecDense struct{ engine.Program }

func (hideSpecDense) DenseApply() {}

// hideSpecAgg is hideSpec keeping the full aggregator surface —
// GlobalAggregator and LaneAggregator — because the aggregate path must
// stay identical while the gather/apply kernels vary.
type hideSpecAgg struct{ engine.Program }

func (h hideSpecAgg) AggZero() float64 { return h.Program.(engine.GlobalAggregator).AggZero() }
func (h hideSpecAgg) AggVertex(v uint32, attr float64, deg uint32) float64 {
	return h.Program.(engine.GlobalAggregator).AggVertex(v, attr, deg)
}
func (h hideSpecAgg) AggCombine(a, b float64) float64 {
	return h.Program.(engine.GlobalAggregator).AggCombine(a, b)
}
func (h hideSpecAgg) SetGlobal(g float64) { h.Program.(engine.GlobalAggregator).SetGlobal(g) }
func (h hideSpecAgg) AggLane(curr []float64, stride, off int, deg []uint32) float64 {
	return h.Program.(engine.LaneAggregator).AggLane(curr, stride, off, deg)
}

// hideLaneAgg keeps GlobalAggregator but hides LaneAggregator, forcing
// the engine's serial AggVertex fold (the path programs without a lane
// aggregate take).
type hideLaneAgg struct{ engine.Program }

func (h hideLaneAgg) AggZero() float64 { return h.Program.(engine.GlobalAggregator).AggZero() }
func (h hideLaneAgg) AggVertex(v uint32, attr float64, deg uint32) float64 {
	return h.Program.(engine.GlobalAggregator).AggVertex(v, attr, deg)
}
func (h hideLaneAgg) AggCombine(a, b float64) float64 {
	return h.Program.(engine.GlobalAggregator).AggCombine(a, b)
}
func (h hideLaneAgg) SetGlobal(g float64) { h.Program.(engine.GlobalAggregator).SetGlobal(g) }

func specConfigs(n int) map[string]engine.Config {
	return map[string]engine.Config{
		"spu": {Threads: 3, Strategy: engine.SPU, ChunkDsts: 16},
		"dpu": {Threads: 3, Strategy: engine.DPU, ChunkDsts: 16},
		"mpu": {Threads: 3, Strategy: engine.MPU, MemoryBudget: int64(n) * 8, ChunkDsts: 16},
	}
}

// runSpecProg drives prog for steps iterations (or to termination when
// steps <= 0) and returns the final attributes.
func runSpecProg(t *testing.T, st *storage.Store, cfg engine.Config, prog engine.Program, dir engine.Direction, steps int, mask *bitset.Set, setup func(*engine.Engine)) []float64 {
	t.Helper()
	e, err := engine.New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(e)
	}
	run, err := e.NewRun(prog, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if mask != nil {
		run.SetMask(mask)
	}
	for i := 0; steps <= 0 || i < steps; i++ {
		more, err := run.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		if steps <= 0 && i > 500 {
			t.Fatal("run did not terminate")
		}
	}
	res, err := run.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res.Attrs
}

func assertBitsEqual(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", name, len(want), len(got))
	}
	for v := range want {
		if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
			t.Fatalf("%s: vertex %d: %g (%x) vs %g (%x)", name, v,
				got[v], math.Float64bits(got[v]), want[v], math.Float64bits(want[v]))
		}
	}
}

// TestScalarSpecEquivalence is the acceptance gate for the hinted kernel
// on one-lane runs: for every hinted program, specialized and generic runs
// agree bit-for-bit under SPU, DPU and MPU, on the base store and on a
// mutated overlay snapshot, with weights present and (where the
// algorithms use them) masks installed.
func TestScalarSpecEquivalence(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4, Weighted: true, Transpose: true})
	n := int(oracle.NumVertices)
	prN := float64(oracle.NumVertices)

	mask := bitset.New(n)
	for v := 0; v < n; v += 3 {
		mask.Set(v)
	}

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
	withOverlay := func(e *engine.Engine) { e.SetOverlayProvider(log.Overlay) }

	cases := []struct {
		name  string
		spec  func() engine.Program
		gen   func() engine.Program
		dir   engine.Direction
		steps int
		mask  *bitset.Set
	}{
		{"pagerank",
			func() engine.Program { return &pageRankProg{n: prN, damping: 0.85} },
			func() engine.Program { return hideSpecAgg{&pageRankProg{n: prN, damping: 0.85}} },
			engine.Forward, 6, nil},
		{"wcc",
			func() engine.Program { return wccProg{} },
			func() engine.Program { return hideSpec{wccProg{}} },
			engine.Both, 0, nil},
		{"bfs",
			func() engine.Program { return &bfsProg{root: 1} },
			func() engine.Program { return hideSpec{&bfsProg{root: 1}} },
			engine.Forward, 0, nil},
		{"sssp",
			func() engine.Program { return &ssspProg{root: 1} },
			func() engine.Program { return hideSpec{&ssspProg{root: 1}} },
			engine.Forward, 0, nil},
		{"kcore-degree",
			func() engine.Program { return degreeCountProg{} },
			func() engine.Program { return hideSpecDense{degreeCountProg{}} },
			engine.Forward, 1, nil},
		{"kcore-degree-masked",
			func() engine.Program { return degreeCountProg{} },
			func() engine.Program { return hideSpecDense{degreeCountProg{}} },
			engine.Forward, 1, mask},
		{"scc-color",
			func() engine.Program { return colorProg{} },
			func() engine.Program { return hideSpec{colorProg{}} },
			engine.Forward, 0, nil},
		{"scc-color-masked",
			func() engine.Program { return colorProg{} },
			func() engine.Program { return hideSpec{colorProg{}} },
			engine.Forward, 0, mask},
		{"hits-halfstep",
			func() engine.Program { return sumProg{"hits-auth"} },
			func() engine.Program { return hideSpecDense{sumProg{"hits-auth"}} },
			engine.Forward, 2, nil},
	}
	overlays := []struct {
		name  string
		setup func(*engine.Engine)
	}{
		{"base", nil},
		{"overlay", withOverlay},
	}
	for _, ov := range overlays {
		for cfgName, cfg := range specConfigs(n) {
			for _, c := range cases {
				name := ov.name + "/" + cfgName + "/" + c.name
				t.Run(name, func(t *testing.T) {
					want := runSpecProg(t, st, cfg, c.gen(), c.dir, c.steps, c.mask, ov.setup)
					got := runSpecProg(t, st, cfg, c.spec(), c.dir, c.steps, c.mask, ov.setup)
					assertBitsEqual(t, name, want, got)
				})
			}
		}
	}
}

// TestAggregateHasOneRule: a GlobalAggregator folds the same way — and
// so to the same bits — whether or not the program also declares a
// LaneAggregator, at every thread count, strategy and run width. The
// graph is larger than any chunk size the engine ever summed partials
// over (32768 vertices), so a chunk-wise combine would show.
func TestAggregateHasOneRule(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(16, 4, 33))
	if err != nil {
		t.Fatal(err)
	}
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4})
	if oracle.NumVertices <= 1<<15 {
		t.Fatalf("fixture has %d vertices, want more than 32768", oracle.NumVertices)
	}
	prN := float64(oracle.NumVertices)
	const iters = 4
	hidden := func() engine.Program { return hideLaneAgg{&pageRankProg{n: prN, damping: 0.85}} }

	want := runSpecProg(t, st, engine.Config{Threads: 3},
		&pageRankProg{n: prN, damping: 0.85}, engine.Forward, iters, nil, nil)
	for _, threads := range []int{1, 8} {
		got := runSpecProg(t, st, engine.Config{Threads: threads}, hidden(), engine.Forward, iters, nil, nil)
		assertBitsEqual(t, "serial fold vs AggLane", want, got)
	}
	for name, cfg := range specConfigs(int(oracle.NumVertices)) {
		got := runSpecProg(t, st, cfg, hidden(), engine.Forward, iters, nil, nil)
		assertBitsEqual(t, name+" width 1", want, got)
	}

	// One lane of a three-lane run (the siblings keep their AggLane).
	e, err := engine.New(st, engine.Config{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runLanes(context.Background(), e, []engine.Program{
		&pageRankProg{n: prN, damping: 0.85}, hidden(), &pageRankProg{n: prN, damping: 0.85},
	}, iters, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for l := range res {
		assertBitsEqual(t, "width 3 lane", want, res[l].Attrs)
	}

	// The user-facing convergence driver rides the same aggregate.
	conv, err := PageRankConverge(e, 0.85, 0, iters)
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, "PageRankConverge", want, conv.Attrs)
}
