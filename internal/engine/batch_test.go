package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/dynamic"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/graph"
	"nxgraph/internal/testutil"
)

// batchRoots is the fused-query fixture: distinct sources spread over
// the id space so lanes hit different frontiers.
var batchRoots = []uint32{0, 3, 7, 11, 19}

// rootSets are the widths the equivalence suites fuse at: 1, 3, the
// five batchRoots and 16 roots spread over n vertices. A wide run's
// strategy follows the budget over its width, so one config runs them
// under different Q.
func rootSets(n uint32) [][]uint32 {
	return [][]uint32{batchRoots[:1], batchRoots[:3], batchRoots, benchRoots(16, n)}
}

// assertBitIdentical fails unless got and want agree bit-for-bit.
func assertBitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d = %v, want %v (fused diverges from scalar)", label, v, got[v], want[v])
		}
	}
}

// strategyConfigs enumerates the three update strategies a sequential
// run can execute under; n sizes the MPU budget to a mid-range Q.
func strategyConfigs(n int) map[string]engine.Config {
	return map[string]engine.Config{
		"spu": {Threads: 3, Strategy: engine.SPU, ChunkDsts: 16},
		"dpu": {Threads: 3, Strategy: engine.DPU, ChunkDsts: 16},
		"mpu": {Threads: 3, Strategy: engine.MPU, MemoryBudget: int64(n) * 8, ChunkDsts: 16},
	}
}

// TestFusedPPREquivalenceAllStrategies is the tentpole property: a fused
// batch of PPR queries produces, per lane, exactly the attributes a
// sequential run of that query produces — under every update strategy
// the sequential run might have used.
func TestFusedPPREquivalenceAllStrategies(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range strategyConfigs(200) {
		t.Run(name, func(t *testing.T) {
			e, _ := buildEngine(t, g, 5, cfg)
			for _, roots := range rootSets(e.Store().Meta().NumVertices) {
				fused, err := algorithms.PersonalizedPageRankBatch(e, roots, 0.85, 6)
				if err != nil {
					t.Fatal(err)
				}
				for i, root := range roots {
					seq, err := algorithms.PersonalizedPageRank(e, root, 0.85, 6)
					if err != nil {
						t.Fatal(err)
					}
					assertBitIdentical(t, fmt.Sprintf("%s width %d ppr root %d", name, len(roots), root), fused[i].Attrs, seq.Attrs)
					if fused[i].Iterations != seq.Iterations {
						t.Fatalf("root %d: fused %d iterations, sequential %d", root, fused[i].Iterations, seq.Iterations)
					}
					if fused[i].EdgesTraversed != seq.EdgesTraversed {
						t.Fatalf("root %d: fused traversed %d edges, sequential %d", root, fused[i].EdgesTraversed, seq.EdgesTraversed)
					}
				}
			}
		})
	}
}

// TestFusedTraversalEquivalence checks BFS (frontier-driven, lanes
// converge at different iterations) and weighted SSSP lanes against
// their sequential runs under every strategy.
func TestFusedTraversalEquivalence(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 6, A: 0.57, B: 0.19, C: 0.19, Seed: 11, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 5, Weighted: true, Transpose: true})
	for name, cfg := range strategyConfigs(200) {
		t.Run(name, func(t *testing.T) {
			e, err := engine.New(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, roots := range rootSets(st.Meta().NumVertices) {
				fusedBFS, err := algorithms.BFSBatch(e, roots)
				if err != nil {
					t.Fatal(err)
				}
				fusedSSSP, err := algorithms.SSSPBatch(e, roots)
				if err != nil {
					t.Fatal(err)
				}
				for i, root := range roots {
					seqBFS, err := algorithms.BFS(e, root)
					if err != nil {
						t.Fatal(err)
					}
					assertBitIdentical(t, "bfs", fusedBFS[i].Attrs, seqBFS.Attrs)
					if fusedBFS[i].Iterations != seqBFS.Iterations {
						t.Fatalf("bfs root %d: fused %d iterations, sequential %d", root, fusedBFS[i].Iterations, seqBFS.Iterations)
					}
					seqSSSP, err := algorithms.SSSP(e, root)
					if err != nil {
						t.Fatal(err)
					}
					assertBitIdentical(t, "sssp", fusedSSSP[i].Attrs, seqSSSP.Attrs)
				}
			}
		})
	}
}

// genericProg is a hint-free BFS clone: it exercises the generic
// per-edge interface-dispatch path of the fused kernel.
type genericProg struct{ root uint32 }

func (p *genericProg) Name() string  { return "generic-hops" }
func (p *genericProg) Zero() float64 { return inf() }
func (p *genericProg) Init(v uint32) (float64, bool) {
	if v == p.root {
		return 0, true
	}
	return inf(), false
}
func (p *genericProg) Gather(srcAttr float64, _ uint32, _ float32) float64 { return srcAttr + 1 }
func (p *genericProg) Sum(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
func (p *genericProg) Apply(v uint32, old, acc float64) (float64, bool) {
	if acc < old {
		return acc, true
	}
	return old, false
}

func inf() float64 { return math.Inf(1) }

// TestFusedGenericKernelEquivalence runs hint-free programs through the
// fused generic kernel and compares each lane to its scalar run.
func TestFusedGenericKernelEquivalence(t *testing.T) {
	g, err := gen.Uniform(300, 2400, 9)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := buildEngine(t, g, 4, engine.Config{Threads: 2, ChunkDsts: 32})
	ps := make([]engine.Program, len(batchRoots))
	for i, r := range batchRoots {
		ps[i] = &genericProg{root: r}
	}
	run, err := e.NewBatchRun(ps, engine.Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	for {
		more, err := run.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	fused, err := run.FinishLanes()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batchRoots {
		seq, err := e.Run(&genericProg{root: r}, engine.Forward)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "generic", fused[i].Attrs, seq.Attrs)
	}
}

// TestFusedOverlayEquivalence: a fused run over a delta overlay (inserts
// and removes pending against the base store) must match sequential runs
// over the same overlay snapshot, per lane, bit for bit.
func TestFusedOverlayEquivalence(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(7, 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4, Transpose: true})
	log, err := dynamic.NewDeltaLog(st)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate: remove some base edges, add fresh ones (including into a
	// high interval so overlay cells span the grid).
	n := uint64(oracle.NumVertices)
	for i := 0; i < 10 && i < len(oracle.Edges); i++ {
		ed := oracle.Edges[i*7%len(oracle.Edges)]
		log.Remove(uint64(ed.Src), uint64(ed.Dst))
	}
	for i := uint64(0); i < 15; i++ {
		log.Add((i*13)%n, (i*29+5)%n, 1)
	}
	for name, cfg := range strategyConfigs(int(n)) {
		t.Run(name, func(t *testing.T) {
			e, err := engine.New(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.SetOverlayProvider(log.Overlay)
			for _, roots := range rootSets(uint32(n)) {
				fused, err := algorithms.PersonalizedPageRankBatch(e, roots, 0.85, 5)
				if err != nil {
					t.Fatal(err)
				}
				for i, root := range roots {
					seq, err := algorithms.PersonalizedPageRank(e, root, 0.85, 5)
					if err != nil {
						t.Fatal(err)
					}
					assertBitIdentical(t, "overlay ppr", fused[i].Attrs, seq.Attrs)
				}
			}
		})
	}
}

// TestFusedLaneCancellation: cancelling one lane mid-run yields a nil
// result for that lane and leaves every sibling bit-identical to its
// sequential run.
func TestFusedLaneCancellation(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := buildEngine(t, g, 4, engine.Config{Threads: 2})
	roots := []uint32{1, 5, 9}
	ps := []engine.Program{
		algorithms.NewSSSPProgram(roots[0]),
		algorithms.NewSSSPProgram(roots[1]),
		algorithms.NewSSSPProgram(roots[2]),
	}
	run, err := e.NewBatchRun(ps, engine.Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if _, err := run.Step(); err != nil {
		t.Fatal(err)
	}
	run.CancelLane(1)
	for {
		more, err := run.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	fused, err := run.FinishLanes()
	if err != nil {
		t.Fatal(err)
	}
	if fused[1] != nil || !run.LaneCancelled(1) {
		t.Fatalf("cancelled lane: result %v, LaneCancelled %v; want nil result, cancelled", fused[1], run.LaneCancelled(1))
	}
	for _, i := range []int{0, 2} {
		if run.LaneCancelled(i) {
			t.Fatalf("sibling lane %d reported cancelled", i)
		}
		seq, err := algorithms.SSSP(e, roots[i])
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "sibling", fused[i].Attrs, seq.Attrs)
	}
}

// TestCancelLaneOnSingleRun: a NewRun run is a one-lane run, so lane
// control works on it — cancelling lane 0 stops the run at the next
// iteration boundary, FinishLanes yields a nil slot and Finish (which
// has no slot to leave empty) reports the cancellation.
func TestCancelLaneOnSingleRun(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []engine.Strategy{engine.SPU, engine.DPU} { // resident and streamed attributes
		e, _ := buildEngine(t, g, 4, engine.Config{Threads: 2, Strategy: strat})
		run, err := e.NewRun(algorithms.NewPageRankProgram(e.Store().Meta().NumVertices, 0.85), engine.Forward)
		if err != nil {
			t.Fatal(err)
		}
		defer run.Close()
		if run.Width() != 1 {
			t.Fatalf("NewRun width = %d, want 1", run.Width())
		}
		if more, err := run.Step(); err != nil || !more {
			t.Fatalf("%v: first step: more=%v err=%v", strat, more, err)
		}
		run.CancelLane(0)
		if more, err := run.Step(); err != nil || more {
			t.Fatalf("%v: step after CancelLane(0): more=%v err=%v, want the run to stop", strat, more, err)
		}
		if !run.LaneCancelled(0) || run.LaneIterations(0) != 1 {
			t.Fatalf("%v: LaneCancelled=%v LaneIterations=%d, want cancelled after 1 iteration", strat, run.LaneCancelled(0), run.LaneIterations(0))
		}
		lanes, err := run.FinishLanes()
		if err != nil || len(lanes) != 1 || lanes[0] != nil {
			t.Fatalf("%v: FinishLanes = %v, %v; want one nil slot", strat, lanes, err)
		}
		if res, err := run.Finish(); err == nil || res != nil {
			t.Fatalf("%v: Finish = %v, %v; want a cancellation error", strat, res, err)
		}
	}
}

// TestWideRunFollowsStrategy: a wide run follows the engine's strategy
// exactly as a one-program run does — under a forced DPU a three-lane run
// is DPU with Q = 0 and says so — and each lane agrees bit for bit with
// its one-lane run.
func TestWideRunFollowsStrategy(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := buildEngine(t, g, 5, engine.Config{Threads: 2, Strategy: engine.DPU, ChunkDsts: 16})
	progs := func() []engine.Program {
		return []engine.Program{algorithms.NewBFSProgram(0), algorithms.NewBFSProgram(3), algorithms.NewBFSProgram(7)}
	}
	wide, err := e.NewBatchRun(progs(), engine.Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer wide.Close()
	if wide.Strategy() != engine.DPU || wide.ResidentIntervals() != 0 {
		t.Fatalf("3-lane run under DPU: strategy %v, Q=%d; want dpu, Q=0", wide.Strategy(), wide.ResidentIntervals())
	}
	for more := true; more; {
		if more, err = wide.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := wide.FinishLanes()
	if err != nil {
		t.Fatal(err)
	}
	for l, p := range progs() {
		if res[l].Strategy != engine.DPU || res[l].ResidentIntervals != 0 {
			t.Fatalf("lane %d result: strategy %v, Q=%d", l, res[l].Strategy, res[l].ResidentIntervals)
		}
		seq, err := e.Run(p, engine.Forward)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Strategy != engine.DPU || seq.ResidentIntervals != 0 {
			t.Fatalf("1-lane run under DPU: strategy %v, Q=%d; want dpu, Q=0", seq.Strategy, seq.ResidentIntervals)
		}
		assertBitIdentical(t, "dpu lane", res[l].Attrs, seq.Attrs)
		if res[l].Iterations != seq.Iterations || res[l].EdgesTraversed != seq.EdgesTraversed {
			t.Fatalf("lane %d: %d iterations, %d edges; one-lane run %d, %d", l, res[l].Iterations, res[l].EdgesTraversed, seq.Iterations, seq.EdgesTraversed)
		}
	}
}

// TestFusedBatchFollowsMemoryBudget: under Auto a 16-lane PPR batch
// resolves its strategy from the budget over all 16 lanes' ping-pong
// 2·n·Ba·16 — MPU with 0 < Q < P for 2·n·Ba·16/P ≤ BM < 2·n·Ba·16, DPU
// below — while one lane under the same budgets runs SPU. A forward run does not depend on Q, so every lane still
// equals its one-lane run bit for bit, with the same counters.
func TestFusedBatchFollowsMemoryBudget(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: 8})
	wide := 2 * int64(oracle.NumVertices) * engine.Ba * 16 // 16 lanes' ping-pong
	roots := benchRoots(16, oracle.NumVertices)
	for _, c := range []struct {
		bm    int64
		strat engine.Strategy
		q     int
	}{
		{wide - 1, engine.MPU, 7},
		{wide / 2, engine.MPU, 4},
		{wide / 8, engine.MPU, 1},
		{wide/8 - 1, engine.DPU, 0},
	} {
		e, err := engine.New(st, engine.Config{Threads: 3, MemoryBudget: c.bm, ChunkDsts: 16})
		if err != nil {
			t.Fatal(err)
		}
		fused, err := algorithms.PersonalizedPageRankBatch(e, roots, 0.85, 4)
		if err != nil {
			t.Fatal(err)
		}
		for l, root := range roots {
			if fused[l].Strategy != c.strat || fused[l].ResidentIntervals != c.q {
				t.Fatalf("BM=%d lane %d: strategy %v, Q=%d; want %v, Q=%d", c.bm, l, fused[l].Strategy, fused[l].ResidentIntervals, c.strat, c.q)
			}
			seq, err := algorithms.PersonalizedPageRank(e, root, 0.85, 4)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Strategy != engine.SPU { // every budget here holds one lane's 2·n·Ba
				t.Fatalf("BM=%d root %d: one lane ran %v, want spu", c.bm, root, seq.Strategy)
			}
			assertBitIdentical(t, fmt.Sprintf("BM=%d lane %d", c.bm, l), fused[l].Attrs, seq.Attrs)
			if fused[l].Iterations != seq.Iterations || fused[l].EdgesTraversed != seq.EdgesTraversed {
				t.Fatalf("BM=%d lane %d: %d iterations, %d edges; one-lane run %d, %d", c.bm, l, fused[l].Iterations, fused[l].EdgesTraversed, seq.Iterations, seq.EdgesTraversed)
			}
		}
	}
}

// TestSkewedStarAtWidth16: gather tasks are cut by edge mass at every
// width, so on a star whose hub destination dwarfs the sparse rest the
// hub gets a task of its own — and, chunking being invisible in the
// results, all 16 lanes still match their one-lane runs bit for bit.
func TestSkewedStarAtWidth16(t *testing.T) {
	const n, hub, chunk = 600, 300, 4
	g := &graph.EdgeList{NumVertices: n}
	for v := uint32(0); v < n; v++ {
		g.Edges = append(g.Edges, graph.Edge{Src: v, Dst: (v + 1) % n, Weight: 1})
		if v != hub {
			g.Edges = append(g.Edges, graph.Edge{Src: v, Dst: hub, Weight: 1})
		}
	}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 2})
	ss, err := st.ReadSubShard(0, 1, false) // interval 0 -> the hub's interval
	if err != nil {
		t.Fatal(err)
	}
	bounds := engine.EdgeChunkRanges(ss.Offsets, engine.GatherChunkCost(16, chunk))
	alone := false
	for c := 0; c+1 < len(bounds); c++ {
		if ss.Dsts[bounds[c]] == hub && bounds[c+1] == bounds[c]+1 {
			alone = true
		}
	}
	if !alone {
		t.Fatalf("hub destination shares its width-16 gather task (bounds %v)", bounds)
	}
	e, err := engine.New(st, engine.Config{Threads: 3, ChunkDsts: chunk})
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]uint32, 16)
	for l := range roots {
		roots[l] = uint32(l * 37 % n)
	}
	fused, err := algorithms.PersonalizedPageRankBatch(e, roots, 0.85, 5)
	if err != nil {
		t.Fatal(err)
	}
	for l, root := range roots {
		seq, err := algorithms.PersonalizedPageRank(e, root, 0.85, 5)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "star ppr", fused[l].Attrs, seq.Attrs)
	}
}

// cancelOnGather is a hint-free program that cancels a context from its
// first Gather — i.e. in the middle of a row, after which the tasks
// already running still fold into the accumulator before a later row's
// check aborts the step.
type cancelOnGather struct {
	genericProg
	once   *sync.Once
	cancel context.CancelFunc
}

func (p *cancelOnGather) Gather(a float64, deg uint32, w float32) float64 {
	p.once.Do(p.cancel)
	return p.genericProg.Gather(a, deg, w)
}

// TestAbortedStepLeavesNoDirtyAccumulator: a step aborted mid-row leaves
// partial folds in the accumulator slab; Close returns that slab to the
// engine's pool, and the next wide run draws it. Its results must not
// see the leftovers.
func TestAbortedStepLeavesNoDirtyAccumulator(t *testing.T) {
	g, err := gen.Uniform(300, 2400, 9)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := buildEngine(t, g, 4, engine.Config{Threads: 2, ChunkDsts: 32})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	once := new(sync.Once)
	aborted, err := e.NewBatchRun([]engine.Program{
		&cancelOnGather{genericProg{0}, once, cancel},
		&cancelOnGather{genericProg{3}, once, cancel},
	}, engine.Forward)
	if err != nil {
		t.Fatal(err)
	}
	// Iteration one gathers only from the roots' interval; step until the
	// frontier spans several rows so the abort lands between two of them.
	for {
		more, err := aborted.StepContext(ctx)
		if errors.Is(err, context.Canceled) {
			break
		}
		if err != nil || !more {
			t.Fatalf("run ended before the cancel fired: more=%v err=%v", more, err)
		}
	}
	aborted.Close()

	fresh := func(e *engine.Engine) []*engine.Result {
		run, err := e.NewBatchRun([]engine.Program{&genericProg{root: 0}, &genericProg{root: 3}}, engine.Forward)
		if err != nil {
			t.Fatal(err)
		}
		defer run.Close()
		for more := true; more; {
			if more, err = run.Step(); err != nil {
				t.Fatal(err)
			}
		}
		res, err := run.FinishLanes()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	got := fresh(e) // draws the aborted run's slabs
	clean, _ := buildEngine(t, g, 4, engine.Config{Threads: 2, ChunkDsts: 32})
	want := fresh(clean)
	for l := range want {
		assertBitIdentical(t, "after aborted run", got[l].Attrs, want[l].Attrs)
	}
}

// TestFusedRejections: mismatched Zero values must be refused at
// construction.
func TestFusedRejections(t *testing.T) {
	g, err := gen.Uniform(100, 800, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := buildEngine(t, g, 3, engine.Config{Threads: 1})
	_, err = e.NewBatchRun([]engine.Program{
		algorithms.NewBFSProgram(0),
		algorithms.NewPageRankProgram(100, 0.85),
	}, engine.Forward)
	if err == nil || !strings.Contains(err.Error(), "Zero") {
		t.Fatalf("mixed-Zero batch: err = %v, want Zero mismatch", err)
	}
}

// specialProg is a min-fold program whose vertices start from arbitrary
// attributes — signed zeros, infinities, denormals, NaNs — instead of a
// root's 0. It declares no kernel hint, so it gathers through the
// generic per-edge interface path: the reference. Its Sum is math.Min
// with a NaN operand winning outright, which is what KernelHopMin's
// contract promises of the kernels' min builtin (math.Min alone lets
// -Inf beat a NaN).
type specialProg struct {
	attrs    []float64
	weighted bool // Gather a+float64(w) (KernelDistMin) rather than a+1 (KernelHopMin)
}

func (p *specialProg) Name() string                  { return "special-min" }
func (p *specialProg) Zero() float64                 { return inf() }
func (p *specialProg) Init(v uint32) (float64, bool) { return p.attrs[v], true }
func (p *specialProg) Gather(a float64, _ uint32, w float32) float64 {
	if p.weighted {
		return a + float64(w)
	}
	return a + 1
}
func (p *specialProg) Sum(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	return math.Min(a, b)
}
func (p *specialProg) Apply(v uint32, old, acc float64) (float64, bool) {
	m := p.Sum(old, acc)
	return m, math.Float64bits(m) != math.Float64bits(old)
}

// hintedSpecialProg is specialProg claiming the matching kernel hint, so
// runs fold it through the hinted kernel: a one-lane run through its
// one-lane leaf, a wider one through its lane blocks as well.
type hintedSpecialProg struct{ specialProg }

func (p *hintedSpecialProg) FusedKernelHint() engine.KernelHint {
	if p.weighted {
		return engine.KernelDistMin
	}
	return engine.KernelHopMin
}

// TestMinKernelsSpecialValues is the run-level half of the special-value
// gate (TestLaneKernelsMatchGeneric is the kernel-level half): hopMin
// and distMin at widths 1, 3 and 16, over a store with pending removals
// (tombstoned dirty destinations), must leave every lane with the bits
// the hint-free program leaves when run alone — NaN for NaN, whatever its
// payload.
func TestMinKernelsSpecialValues(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 7, EdgeFactor: 6, A: 0.57, B: 0.19, C: 0.19, Seed: 5, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: 3, Weighted: true})
	log, err := dynamic.NewDeltaLog(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		ed := oracle.Edges[i*11%len(oracle.Edges)]
		log.Remove(uint64(ed.Src), uint64(ed.Dst))
	}
	n := int(oracle.NumVertices)
	special := engine.SpecialValues
	rng := rand.New(rand.NewSource(17))
	lanes := make([][]float64, 16)
	for l := range lanes {
		lanes[l] = make([]float64, n)
		for v := range lanes[l] {
			lanes[l][v] = special[rng.Intn(len(special))]
		}
	}
	run := func(e *engine.Engine, ps []engine.Program) [][]float64 {
		t.Helper()
		r, err := e.NewBatchRun(ps, engine.Forward)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for it := 0; it < 3; it++ {
			if more, err := r.Step(); err != nil {
				t.Fatal(err)
			} else if !more {
				break
			}
		}
		res, err := r.FinishLanes()
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]float64, len(res))
		for l := range res {
			out[l] = res[l].Attrs
		}
		return out
	}
	for _, weighted := range []bool{false, true} {
		for _, overlay := range []bool{false, true} {
			e, err := engine.New(st, engine.Config{Threads: 2, ChunkDsts: 8})
			if err != nil {
				t.Fatal(err)
			}
			if overlay {
				e.SetOverlayProvider(log.Overlay)
			}
			for _, width := range []int{1, 3, 16} {
				ps := make([]engine.Program, width)
				for l := range ps {
					ps[l] = &hintedSpecialProg{specialProg{attrs: lanes[l], weighted: weighted}}
				}
				got := run(e, ps)
				for l := range ps {
					want := run(e, []engine.Program{&specialProg{attrs: lanes[l], weighted: weighted}})[0]
					for v := range want {
						if math.IsNaN(want[v]) && math.IsNaN(got[l][v]) {
							continue
						}
						if math.Float64bits(want[v]) != math.Float64bits(got[l][v]) {
							t.Fatalf("weighted=%v overlay=%v width=%d lane %d vertex %d: %x (%g), generic path has %x (%g)",
								weighted, overlay, width, l, v,
								math.Float64bits(got[l][v]), got[l][v], math.Float64bits(want[v]), want[v])
						}
					}
				}
			}
		}
	}
}
