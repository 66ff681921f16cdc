package engine_test

import (
	"math"
	"testing"
	"testing/quick"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/bitset"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/graph"
	"nxgraph/internal/refalgo"
	"nxgraph/internal/testutil"
)

func buildEngine(t testing.TB, g *graph.EdgeList, p int, cfg engine.Config) (*engine.Engine, *graph.EdgeList) {
	t.Helper()
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: p, Transpose: true})
	e, err := engine.New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, oracle
}

// TestStrategyEquivalenceQuick is the central engine property: for random
// graphs, partitionings and budgets, SPU, DPU and MPU produce bitwise
// identical PageRank trajectories.
func TestStrategyEquivalenceQuick(t *testing.T) {
	f := func(seed int64, pRaw, fracRaw uint8) bool {
		g, err := gen.Uniform(uint32(50+int(pRaw)*3), 1200, seed)
		if err != nil {
			return false
		}
		p := 2 + int(pRaw)%9
		run := func(strategy engine.Strategy, budget int64) []float64 {
			e, _ := buildEngine(t, g, p, engine.Config{
				Threads: 3, Strategy: strategy, MemoryBudget: budget, ChunkDsts: 16,
			})
			res, err := algorithms.PageRank(e, 0.85, 4)
			if err != nil {
				t.Fatal(err)
			}
			return res.Attrs
		}
		spu := run(engine.SPU, 0)
		dpu := run(engine.DPU, 0)
		// A budget forcing a mid-range Q.
		n := int64(len(spu))
		budget := n * 8 * (1 + int64(fracRaw)%2)
		mpu := run(engine.MPU, budget)
		for v := range spu {
			if spu[v] != dpu[v] || spu[v] != mpu[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoStrategySelection(t *testing.T) {
	g, _ := gen.Uniform(1000, 8000, 1)
	cases := []struct {
		budget int64
		want   engine.Strategy
	}{
		{0, engine.SPU},
		{1 << 40, engine.SPU},
		{8 * 1000, engine.MPU}, // half the ping-pong need
		{100, engine.DPU},      // not even one interval pair
	}
	for _, c := range cases {
		e, _ := buildEngine(t, g, 8, engine.Config{MemoryBudget: c.budget})
		res, err := algorithms.PageRank(e, 0.85, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != c.want {
			t.Errorf("budget %d: strategy %s, want %s", c.budget, res.Strategy, c.want)
		}
	}
}

func TestSPUZeroDiskTrafficWhenCached(t *testing.T) {
	g, _ := gen.Uniform(500, 5000, 2)
	e, _ := buildEngine(t, g, 4, engine.Config{Strategy: engine.SPU})
	run, err := e.NewRun(algorithms.NewPageRankProgram(500, 0.85), engine.Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	// Warm-up (the first iteration populates the block cache); measure
	// one iteration.
	if _, err := run.Step(); err != nil {
		t.Fatal(err)
	}
	before := e.Store().Disk().Stats().Snapshot()
	if _, err := run.Step(); err != nil {
		t.Fatal(err)
	}
	delta := e.Store().Disk().Stats().Snapshot().Sub(before)
	if delta.Total() != 0 {
		t.Fatalf("fully-cached SPU iteration moved %d bytes", delta.Total())
	}
}

// TestDPUIOMatchesTableII validates the measured per-iteration traffic of
// the DPU strategy against the analytic model (Table II, implementation
// variant: one extra n·Ba read for old attributes in FromHub). The block
// cache is disabled: Table II models the streaming read path, which the
// cache exists to short-circuit.
func TestDPUIOMatchesTableII(t *testing.T) {
	g, _ := gen.RMAT(gen.DefaultRMAT(10, 10, 3))
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: 6})
	e, err := engine.New(st, engine.Config{Strategy: engine.DPU, Threads: 2, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	run, err := e.NewRun(algorithms.NewPageRankProgram(oracle.NumVertices, 0.85), engine.Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if _, err := run.Step(); err != nil {
		t.Fatal(err)
	}
	before := st.Disk().Stats().Snapshot()
	if _, err := run.Step(); err != nil {
		t.Fatal(err)
	}
	delta := st.Disk().Stats().Snapshot().Sub(before)

	n := int64(oracle.NumVertices)
	edgeBytes := st.EdgeBytesOnDisk(false)
	var hubEntries int64
	for _, info := range st.Meta().SubShards {
		hubEntries += info.Dsts
	}
	hubBytes := hubEntries * 12 // Bv + Ba
	wantRead := edgeBytes + 2*n*8 + hubBytes
	wantWrite := n*8 + hubBytes
	if delta.BytesRead != wantRead {
		t.Errorf("DPU read %d bytes/iter, model says %d", delta.BytesRead, wantRead)
	}
	if delta.BytesWritten != wantWrite {
		t.Errorf("DPU wrote %d bytes/iter, model says %d", delta.BytesWritten, wantWrite)
	}
}

// TestMPUIOBetweenSPUAndDPU checks the monotonicity claim of §III-B3: per-
// iteration traffic shrinks as the resident fraction Q/P grows.
func TestMPUIOBetweenSPUAndDPU(t *testing.T) {
	g, _ := gen.RMAT(gen.DefaultRMAT(10, 10, 4))
	measure := func(strategy engine.Strategy, budget int64) int64 {
		st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: 8})
		// Cache disabled: the monotonicity claim is about streaming I/O.
		e, err := engine.New(st, engine.Config{Strategy: strategy, MemoryBudget: budget, Threads: 2, CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		run, err := e.NewRun(algorithms.NewPageRankProgram(oracle.NumVertices, 0.85), engine.Forward)
		if err != nil {
			t.Fatal(err)
		}
		defer run.Close()
		if _, err := run.Step(); err != nil {
			t.Fatal(err)
		}
		before := st.Disk().Stats().Snapshot()
		if _, err := run.Step(); err != nil {
			t.Fatal(err)
		}
		return st.Disk().Stats().Snapshot().Sub(before).Total()
	}
	n := int64(1) << 10 // ≥ oracle n
	dpu := measure(engine.DPU, 0)
	mpuLow := measure(engine.MPU, n*8/2)    // few resident intervals
	mpuHigh := measure(engine.MPU, n*8*3/2) // most intervals resident
	if !(mpuHigh <= mpuLow && mpuLow <= dpu) {
		t.Fatalf("traffic not monotone in residency: dpu=%d mpuLow=%d mpuHigh=%d",
			dpu, mpuLow, mpuHigh)
	}
}

func TestBFSSkipsInactiveIntervals(t *testing.T) {
	// A long path: each iteration should touch O(1) sub-shards, so total
	// edge traversals stay near-linear rather than iterations×m.
	n := uint32(512)
	g := &graph.EdgeList{NumVertices: n}
	for v := uint32(0); v+1 < n; v++ {
		g.Edges = append(g.Edges, graph.Edge{Src: v, Dst: v + 1})
	}
	e, _ := buildEngine(t, g, 8, engine.Config{Threads: 2})
	res, err := algorithms.BFS(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := int64(len(g.Edges))
	iters := int64(res.Iterations)
	if res.EdgesTraversed >= m*iters/4 {
		t.Fatalf("activity skipping broken: traversed %d edges over %d iterations (m=%d)",
			res.EdgesTraversed, iters, m)
	}
	if res.Attrs[n-1] != float64(n-1) {
		t.Fatalf("path end depth %v, want %d", res.Attrs[n-1], n-1)
	}
}

func TestMaskFreezesVertices(t *testing.T) {
	// Star: 0 -> {1..9}. Masking vertex 0 blocks all propagation.
	g := &graph.EdgeList{NumVertices: 10}
	for v := uint32(1); v < 10; v++ {
		g.Edges = append(g.Edges, graph.Edge{Src: 0, Dst: v})
	}
	e, oracle := buildEngine(t, g, 2, engine.Config{Threads: 1})
	run, err := e.NewRun(algorithms.NewBFSProgram(0), engine.Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	mask := bitset.New(int(oracle.NumVertices))
	mask.Set(0)
	run.SetMask(mask)
	for {
		more, err := run.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	attrs, err := run.Attrs()
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 10; v++ {
		if !math.IsInf(attrs[v], 1) {
			t.Fatalf("masked source leaked: depth[%d] = %v", v, attrs[v])
		}
	}
}

func TestSetAttrsRoundTrip(t *testing.T) {
	g, _ := gen.Uniform(300, 2000, 9)
	for _, strategy := range []engine.Strategy{engine.SPU, engine.DPU} {
		e, oracle := buildEngine(t, g, 5, engine.Config{Strategy: strategy})
		run, err := e.NewRun(algorithms.NewWCCProgram(), engine.Forward)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, oracle.NumVertices)
		for v := range want {
			want[v] = float64(v) * 1.5
		}
		if err := run.SetAttrs(want); err != nil {
			t.Fatal(err)
		}
		got, err := run.Attrs()
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: attr %d = %v, want %v", strategy, v, got[v], want[v])
			}
		}
		if err := run.SetAttrs(want[:10]); err == nil {
			t.Fatal("short SetAttrs accepted")
		}
		run.Close()
	}
}

func TestReverseRequiresTranspose(t *testing.T) {
	g, _ := gen.Uniform(100, 500, 3)
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4, Transpose: false})
	e, err := engine.New(st, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(algorithms.NewWCCProgram(), engine.Reverse); err == nil {
		t.Fatal("reverse direction without transpose accepted")
	}
}

func TestP1SingleSubShard(t *testing.T) {
	g, _ := gen.Uniform(64, 400, 5)
	e, oracle := buildEngine(t, g, 1, engine.Config{Threads: 2})
	res, err := algorithms.PageRank(e, 0.85, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := refalgo.PageRank(oracle, 0.85, 5)
	for v := range want {
		if math.Abs(res.Attrs[v]-want[v]) > 1e-12 {
			t.Fatalf("P=1 rank %d: %v vs %v", v, res.Attrs[v], want[v])
		}
	}
}

func TestMaxIterationsCap(t *testing.T) {
	g, _ := gen.Uniform(100, 1000, 6)
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4})
	e, err := engine.New(st, engine.Config{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(algorithms.NewPageRankProgram(100, 0.85), engine.Forward)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Fatalf("ran %d iterations, want 3", res.Iterations)
	}
}

func TestResultMTEPS(t *testing.T) {
	r := &engine.Result{EdgesTraversed: 2_000_000, Elapsed: 1e9}
	if got := r.MTEPS(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("MTEPS = %v", got)
	}
	zero := &engine.Result{}
	if zero.MTEPS() != 0 {
		t.Fatal("zero-elapsed MTEPS should be 0")
	}
}

func TestStringers(t *testing.T) {
	if engine.SPU.String() != "spu" || engine.Auto.String() != "auto" ||
		engine.DPU.String() != "dpu" || engine.MPU.String() != "mpu" {
		t.Fatal("Strategy strings")
	}
	if engine.Callback.String() != "callback" || engine.Lock.String() != "lock" {
		t.Fatal("SyncMode strings")
	}
	if engine.Forward.String() != "forward" || engine.Reverse.String() != "reverse" ||
		engine.Both.String() != "both" {
		t.Fatal("Direction strings")
	}
}
