package engine_test

import (
	"math"
	"testing"
	"testing/quick"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/bitset"
	"nxgraph/internal/diskio"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/graph"
	"nxgraph/internal/model"
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

// iterIO builds a P-interval store over g and measures one steady-state
// iteration's disk traffic of a run of L PageRank lanes under cfg (the
// second iteration: the first also initializes the attribute file). The
// block cache is disabled: Table II models the streaming read path,
// which the cache exists to short-circuit. It returns the model's
// parameters for the store with BM unset: Ba is 8·L, the bytes one
// vertex's lanes take, Be is the store's measured bytes per edge and D
// the mean in-degree of a sub-shard destination, so D·Σ Dsts = m and the
// model's hub term is exactly one (Bv + Ba) entry per sub-shard
// destination.
func iterIO(t *testing.T, g *graph.EdgeList, p, L int, cfg engine.Config) (diskio.StatsSnapshot, model.Params) {
	t.Helper()
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: p})
	cfg.Threads, cfg.CacheBytes = 2, -1
	e, err := engine.New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]engine.Program, L)
	for l := range ps {
		ps[l] = algorithms.NewPageRankProgram(oracle.NumVertices, 0.85)
	}
	run, err := e.NewBatchRun(ps, engine.Forward)
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

	m := float64(st.Meta().NumEdges)
	var dsts int64
	for _, info := range st.Meta().SubShards {
		dsts += info.Dsts
	}
	return delta, model.Params{
		N:  float64(oracle.NumVertices),
		M:  m,
		Ba: float64(engine.Ba * L),
		Bv: 4,
		Be: float64(st.EdgeBytesOnDisk(false)) / m,
		D:  m / float64(dsts),
	}
}

// TestDPUIOMatchesTableII validates the measured per-iteration traffic of
// the DPU strategy against the analytic model, Table II's implementation
// variant model.ImplDPU (one extra n·Ba read for old attributes in
// FromHub), to the byte — at every width, with Ba·L bytes per vertex.
func TestDPUIOMatchesTableII(t *testing.T) {
	for _, seed := range []int64{3, 4, 5} {
		g, _ := gen.RMAT(gen.DefaultRMAT(10, 10, seed))
		for _, L := range []int{1, 4, 16} {
			got, p := iterIO(t, g, 6, L, engine.Config{Strategy: engine.DPU})
			want := model.ImplDPU(p)
			if math.Abs(float64(got.BytesRead)-want.Read) >= 1 {
				t.Errorf("seed %d L=%d: DPU read %d bytes/iter, model says %.1f", seed, L, got.BytesRead, want.Read)
			}
			if math.Abs(float64(got.BytesWritten)-want.Write) >= 1 {
				t.Errorf("seed %d L=%d: DPU wrote %d bytes/iter, model says %.1f", seed, L, got.BytesWritten, want.Write)
			}
		}
	}
}

// TestMPUIOBetweenSPUAndDPU checks the monotonicity claim of §III-B3 —
// per-iteration traffic shrinks as the resident fraction Q/P grows — and
// holds each MPU point to model.ImplMPU. The model charges hub traffic
// as if it were spread evenly over the sub-shard matrix (the f² term);
// on RMAT the on-disk corner holds fewer destinations than that, so the
// measurement sits below the model. The test asserts [0.5, 1.0]× at
// every width L, the budget being Q/P of the L lanes' ping-pong
// 2·n·Ba·L.
func TestMPUIOBetweenSPUAndDPU(t *testing.T) {
	const P = 8
	g, _ := gen.RMAT(gen.DefaultRMAT(10, 10, 4))
	for _, L := range []int{1, 4, 16} {
		dpu, p := iterIO(t, g, P, L, engine.Config{Strategy: engine.DPU})
		prev := dpu.Total()
		for _, q := range []int{2, 4, 6} {
			p.BM = float64(q) / P * 2 * p.N * p.Ba // exactly Q resident intervals
			got, _ := iterIO(t, g, P, L, engine.Config{Strategy: engine.MPU, MemoryBudget: int64(p.BM)})
			want := model.ImplMPU(p)
			for _, c := range []struct {
				what      string
				got, want float64
			}{
				{"read", float64(got.BytesRead), want.Read},
				{"write", float64(got.BytesWritten), want.Write},
			} {
				r := c.got / c.want
				t.Logf("L=%d Q=%d: %s %.2f× the model", L, q, c.what, r)
				if r < 0.5 || r > 1.0 {
					t.Errorf("L=%d Q=%d: MPU %s %.0f bytes/iter is %.2f× the model's %.0f, want [0.5, 1.0]×", L, q, c.what, c.got, r, c.want)
				}
			}
			if got.Total() > prev {
				t.Errorf("L=%d: traffic not monotone in residency: Q=%d moved %d bytes, fewer resident intervals moved %d", L, q, got.Total(), prev)
			}
			prev = got.Total()
		}
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
	if engine.Forward.String() != "forward" || engine.Reverse.String() != "reverse" ||
		engine.Both.String() != "both" {
		t.Fatal("Direction strings")
	}
}
