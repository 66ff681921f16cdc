package bench

import (
	"fmt"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/baseline"
	"nxgraph/internal/diskio"
	"nxgraph/internal/engine"
	"nxgraph/internal/metrics"
	"nxgraph/internal/model"
)

// TableII renders the analytic I/O model (paper Table II) evaluated at
// the Yahoo-web constants for a sweep of memory budgets.
func (s *Suite) TableII() *metrics.Table {
	t := metrics.NewTable("Table II: per-iteration I/O by update strategy (Yahoo-web constants)",
		"BM/(2nBa)", "strategy", "read(GB)", "write(GB)")
	p := model.YahooWeb()
	full := 2 * p.N * p.Ba
	gb := func(b float64) float64 { return b / 1e9 }
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		p.BM = frac * full
		t.AddRow(frac, "turbograph-like", gb(model.TurboGraphLike(p).Read), gb(model.TurboGraphLike(p).Write))
		t.AddRow(frac, "spu", gb(model.SPU(p).Read), gb(model.SPU(p).Write))
		t.AddRow(frac, "dpu", gb(model.DPU(p).Read), gb(model.DPU(p).Write))
		t.AddRow(frac, "mpu", gb(model.MPU(p).Read), gb(model.MPU(p).Write))
	}
	return t
}

// Fig6 renders the MPU / TurboGraph-like total-I/O ratio curve (paper
// Figure 6): always below 1, i.e. MPU transfers less at every budget.
func (s *Suite) Fig6(points int) *metrics.Table {
	if points <= 0 {
		points = 12
	}
	t := metrics.NewTable("Figure 6: total I/O ratio MPU / TurboGraph-like (Yahoo-web)",
		"mem(GB)", "ratio")
	p := model.YahooWeb()
	budgets, ratios := model.Fig6Series(p, points)
	for i := range budgets {
		t.AddRow(budgets[i]/1e9, ratios[i])
	}
	return t
}

// Table4 reproduces Exp 1 (paper Table IV): sub-shard ordering and
// parallelism grain, 10-iteration PageRank on the three real-graph
// stand-ins. The source-sorted, coarse-grained side is the comparison
// point in srcsorted.go; the destination-sorted, fine-grained side is an
// SPU engine run.
func (s *Suite) Table4() (*metrics.Table, error) {
	t := metrics.NewTable("Table IV: sub-shard ordering and parallelism (10-iter PageRank)",
		"graph", "src-sorted,coarse(s)", "dst-sorted,fine(s)", "speedup")
	for _, name := range realGraphs {
		g, err := s.Graph(name)
		if err != nil {
			return nil, err
		}
		st, err := s.buildStore(g, 12, false, s.Profile)
		if err != nil {
			return nil, err
		}
		_, src, err := srcSortedPageRank(st, 0.85, s.PageRankIters, s.Threads)
		st.Close()
		if err != nil {
			return nil, err
		}
		s.logf("table4 %s src-sorted-coarse: %.3fs", name, src.Seconds())
		e, done, err := s.nxEngine(g, 12, false, engine.Config{Strategy: engine.SPU}, s.Profile)
		if err != nil {
			return nil, err
		}
		res, err := s.pagerank(e)
		done()
		if err != nil {
			return nil, err
		}
		dst := res.Elapsed.Seconds()
		s.logf("table4 %s dst-sorted-fine: %.3fs", name, dst)
		t.AddRow(name, src.Seconds(), dst, src.Seconds()/dst)
	}
	return t, nil
}

// Fig7 reproduces Exp 2: elapsed time of PageRank, BFS and SCC on the
// Twitter stand-in as the interval count P varies.
func (s *Suite) Fig7(ps []int) (*metrics.Table, error) {
	if len(ps) == 0 {
		ps = []int{2, 4, 6, 12, 18, 24, 36, 48}
	}
	t := metrics.NewTable("Figure 7: performance vs partitioning (Twitter stand-in)",
		"P", "pagerank(s)", "bfs(s)", "scc(s)")
	g, err := s.Graph("twitter")
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		e, done, err := s.nxEngine(g, p, true, engine.Config{Strategy: engine.SPU}, s.Profile)
		if err != nil {
			return nil, err
		}
		pr, err := s.pagerank(e)
		if err != nil {
			done()
			return nil, err
		}
		bfs, err := algorithms.BFS(e, 0)
		if err != nil {
			done()
			return nil, err
		}
		scc, err := algorithms.SCC(e)
		done()
		if err != nil {
			return nil, err
		}
		t.AddRow(p, pr.Elapsed.Seconds(), bfs.Elapsed.Seconds(), scc.Elapsed.Seconds())
		s.logf("fig7 P=%d done", p)
	}
	return t, nil
}

// Fig8 reproduces Exp 3: SPU vs DPU across thread counts and memory
// budgets for PageRank, BFS and SCC on the Twitter stand-in.
func (s *Suite) Fig8(threads []int, memFracs []float64) (*metrics.Table, error) {
	if len(threads) == 0 {
		threads = []int{1, 2, 4, 6, 8, 10, 12}
	}
	if len(memFracs) == 0 {
		memFracs = []float64{0.25, 0.5, 0.75, 1.0}
	}
	g, err := s.Graph("twitter")
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("Figure 8: SPU vs DPU (Twitter stand-in)",
		"sweep", "x", "algo", "spu(s)", "dpu(s)", "dpu/spu")
	run := func(strategy engine.Strategy, nThreads int, budget int64, algo string) (float64, error) {
		e, done, err := s.nxEngine(g, 12, algo == "scc", engine.Config{
			Strategy: strategy, Threads: nThreads, MemoryBudget: budget,
		}, s.Profile)
		if err != nil {
			return 0, err
		}
		defer done()
		switch algo {
		case "pagerank":
			res, err := s.pagerank(e)
			if err != nil {
				return 0, err
			}
			return res.Elapsed.Seconds(), nil
		case "bfs":
			res, err := algorithms.BFS(e, 0)
			if err != nil {
				return 0, err
			}
			return res.Elapsed.Seconds(), nil
		default:
			res, err := algorithms.SCC(e)
			if err != nil {
				return 0, err
			}
			return res.Elapsed.Seconds(), nil
		}
	}
	algos := []string{"pagerank", "bfs", "scc"}
	for _, algo := range algos {
		for _, th := range threads {
			spu, err := run(engine.SPU, th, 0, algo)
			if err != nil {
				return nil, err
			}
			dpu, err := run(engine.DPU, th, 0, algo)
			if err != nil {
				return nil, err
			}
			t.AddRow("threads", th, algo, spu, dpu, dpu/spu)
		}
		full := 2*int64(g.NumVertices)*8 + g.NumEdges()*8
		for _, f := range memFracs {
			budget := int64(f * float64(full))
			spu, err := run(engine.SPU, s.Threads, budget, algo)
			if err != nil {
				return nil, err
			}
			dpu, err := run(engine.DPU, s.Threads, budget, algo)
			if err != nil {
				return nil, err
			}
			t.AddRow("mem", fmt.Sprintf("%.2f", f), algo, spu, dpu, dpu/spu)
		}
		s.logf("fig8 %s done", algo)
	}
	return t, nil
}

// comparisonRow is one system's row of the Fig 9–11 comparison set:
// NXgraph plus the GraphChi- and TurboGraph-like baselines, run by
// compareOnPageRank under one budget.
type comparisonRow struct {
	system  string
	seconds float64
	mteps   float64
}

func (s *Suite) compareOnPageRank(name string, budget int64, nThreads int, prof diskio.Profile) ([]comparisonRow, error) {
	g, err := s.Graph(name)
	if err != nil {
		return nil, err
	}
	e, done, err := s.nxEngine(g, 12, false, engine.Config{
		Strategy: engine.Auto, Threads: nThreads, MemoryBudget: budget,
	}, prof)
	if err != nil {
		return nil, err
	}
	res, err := s.pagerank(e)
	done()
	if err != nil {
		return nil, err
	}
	rows := []comparisonRow{{"nxgraph", res.Elapsed.Seconds(), res.MTEPS()}}
	wd, err := s.workdir()
	if err != nil {
		return nil, err
	}
	disk := diskio.MustNew(wd, prof)
	s.nstore++
	gc, err := baseline.NewGraphChi(disk, fmt.Sprintf("gc-%04d", s.nstore), g, 12, nThreads)
	if err != nil {
		return nil, err
	}
	gcRes, err := s.baselinePageRank(gc)
	gc.Close()
	if err != nil {
		return nil, err
	}
	rows = append(rows, comparisonRow{"graphchi-like", gcRes.Elapsed.Seconds(), gcRes.MTEPS()})
	s.nstore++
	tg, err := baseline.NewTurboGraph(disk, fmt.Sprintf("tg-%04d", s.nstore), g, budget, nThreads)
	if err != nil {
		return nil, err
	}
	tgRes, err := s.baselinePageRank(tg)
	tg.Close()
	if err != nil {
		return nil, err
	}
	rows = append(rows, comparisonRow{"turbograph-like", tgRes.Elapsed.Seconds(), tgRes.MTEPS()})
	return rows, nil
}

// Fig9 reproduces Exp 4: 10-iteration PageRank elapsed time as the memory
// budget varies, per system, on each real-graph stand-in.
func (s *Suite) Fig9(memFracs []float64) (*metrics.Table, error) {
	if len(memFracs) == 0 {
		memFracs = []float64{0.125, 0.25, 0.5, 1.0}
	}
	t := metrics.NewTable("Figure 9: PageRank vs memory budget",
		"graph", "mem-frac", "system", "time(s)")
	for _, name := range realGraphs {
		g, err := s.Graph(name)
		if err != nil {
			return nil, err
		}
		full := 2*int64(g.NumVertices)*8 + g.NumEdges()*8
		for _, f := range memFracs {
			budget := int64(f * float64(full))
			rows, err := s.compareOnPageRank(name, budget, s.Threads, s.Profile)
			if err != nil {
				return nil, err
			}
			for _, r := range rows {
				t.AddRow(name, fmt.Sprintf("%.3f", f), r.system, r.seconds)
			}
			s.logf("fig9 %s f=%.3f done", name, f)
		}
	}
	return t, nil
}

// Fig10 reproduces Exp 5: 10-iteration PageRank elapsed time as the
// thread count varies, per system, on each real-graph stand-in.
func (s *Suite) Fig10(threads []int) (*metrics.Table, error) {
	if len(threads) == 0 {
		threads = []int{1, 2, 4, 6, 8, 10, 12}
	}
	t := metrics.NewTable("Figure 10: PageRank vs threads",
		"graph", "threads", "system", "time(s)")
	for _, name := range realGraphs {
		for _, th := range threads {
			rows, err := s.compareOnPageRank(name, 0, th, s.Profile)
			if err != nil {
				return nil, err
			}
			for _, r := range rows {
				t.AddRow(name, th, r.system, r.seconds)
			}
			s.logf("fig10 %s t=%d done", name, th)
		}
	}
	return t, nil
}

// Fig11 reproduces Exp 6: throughput (MTEPS) across the five mesh
// (Delaunay stand-in) scales, per system.
func (s *Suite) Fig11() (*metrics.Table, error) {
	t := metrics.NewTable("Figure 11: scalability on mesh graphs (MTEPS)",
		"graph", "system", "mteps")
	for _, name := range []string{"delaunay_n20", "delaunay_n21", "delaunay_n22",
		"delaunay_n23", "delaunay_n24"} {
		rows, err := s.compareOnPageRank(name, 0, s.Threads, s.Profile)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			t.AddRow(name, r.system, r.mteps)
		}
		s.logf("fig11 %s done", name)
	}
	return t, nil
}
