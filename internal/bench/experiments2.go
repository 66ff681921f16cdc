package bench

import (
	"fmt"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/baseline"
	"nxgraph/internal/diskio"
	"nxgraph/internal/engine"
	"nxgraph/internal/metrics"
)

// Fig12 reproduces Exp 7: BFS, SCC and WCC elapsed times per system on
// each real-graph stand-in. As in the paper, the baselines have gaps:
// TurboGraph provides no SCC (and its BFS "keeps crashing" in the paper's
// runs — ours works, so we report it), and the plain gather baselines run
// SCC not at all (the algorithm needs NXgraph's masking/orchestration
// machinery). Gaps render as "n/a".
func (s *Suite) Fig12() (*metrics.Table, error) {
	t := metrics.NewTable("Figure 12: BFS, SCC, WCC",
		"graph", "algo", "system", "time(s)")
	for _, name := range realGraphs {
		g, err := s.Graph(name)
		if err != nil {
			return nil, err
		}
		e, done, err := s.nxEngine(g, 12, true, engine.Config{
			Strategy: engine.Auto, Threads: s.Threads,
		}, s.Profile)
		if err != nil {
			return nil, err
		}
		bfs, err := algorithms.BFS(e, 0)
		if err != nil {
			done()
			return nil, err
		}
		t.AddRow(name, "bfs", "nxgraph", bfs.Elapsed.Seconds())
		scc, err := algorithms.SCC(e)
		if err != nil {
			done()
			return nil, err
		}
		t.AddRow(name, "scc", "nxgraph", scc.Elapsed.Seconds())
		wcc, err := algorithms.WCC(e)
		done()
		if err != nil {
			return nil, err
		}
		t.AddRow(name, "wcc", "nxgraph", wcc.Elapsed.Seconds())
		// Baselines: BFS on the directed graph, WCC on the symmetrized
		// one; no SCC (see doc comment).
		wd, err := s.workdir()
		if err != nil {
			return nil, err
		}
		disk := diskio.MustNew(wd, s.Profile)
		sym := g.Symmetrize()
		build := func(dir bool) ([]baseline.System, error) {
			gg := g
			if !dir {
				gg = sym
			}
			s.nstore++
			gc, err := baseline.NewGraphChi(disk, fmt.Sprintf("f12gc-%04d", s.nstore), gg, 12, s.Threads)
			if err != nil {
				return nil, err
			}
			tg, err := baseline.NewTurboGraph(disk, fmt.Sprintf("f12tg-%04d", s.nstore), gg, 0, s.Threads)
			if err != nil {
				gc.Close()
				return nil, err
			}
			return []baseline.System{gc, tg}, nil
		}
		dirSys, err := build(true)
		if err != nil {
			return nil, err
		}
		for _, sys := range dirSys {
			res, err := sys.RunProgram(algorithms.NewBFSProgram(0), 0)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, "bfs", sys.Name(), res.Elapsed.Seconds())
			t.AddRow(name, "scc", sys.Name(), "n/a")
			sys.Close()
		}
		symSys, err := build(false)
		if err != nil {
			return nil, err
		}
		for _, sys := range symSys {
			res, err := sys.RunProgram(algorithms.NewWCCProgram(), 0)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, "wcc", sys.Name(), res.Elapsed.Seconds())
			sys.Close()
		}
		s.logf("fig12 %s done", name)
	}
	return t, nil
}

// Table5 reproduces Exp 8 (limited resources): single-iteration PageRank
// on the Twitter stand-in with a constrained memory budget, on simulated
// SSD and HDD. VENUS is unavailable (no source or binary exists, as the
// paper itself notes) and appears as a cited row.
func (s *Suite) Table5() (*metrics.Table, error) {
	t := metrics.NewTable("Table V: limited resources (1-iter PageRank, Twitter stand-in)",
		"disk", "system", "time(s)", "speedup-vs-nxgraph")
	g, err := s.Graph("twitter")
	if err != nil {
		return nil, err
	}
	// The paper gives the systems 8 GB against Twitter's ~12 GB edge
	// data: intervals fit, edges do not. Scale the same proportion.
	budget := 2*int64(g.NumVertices)*8 + g.NumEdges()*8*2/3
	for _, prof := range []diskio.Profile{diskio.SSD, diskio.HDD} {
		nx, err := s.oneIterPageRankNX(budget, prof)
		if err != nil {
			return nil, err
		}
		t.AddRow(prof.Name, "nxgraph", nx, 1.0)
		gg, err := s.oneIterPageRankGrid(budget, prof)
		if err != nil {
			return nil, err
		}
		t.AddRow(prof.Name, "gridgraph-like", gg, gg/nx)
		xs, err := s.oneIterPageRankXStream(budget, prof)
		if err != nil {
			return nil, err
		}
		t.AddRow(prof.Name, "xstream-like", xs, xs/nx)
		if prof.Name == "hdd" {
			t.AddRow(prof.Name, "venus", "n/a", "7.60 (paper-reported)")
		}
		s.logf("table5 %s done", prof.Name)
	}
	return t, nil
}

// Table6 reproduces Exp 9 (best case): single-iteration PageRank with a
// generous budget on simulated SSD, plus the cited MMAP and PowerGraph
// rows the paper quotes.
func (s *Suite) Table6() (*metrics.Table, error) {
	t := metrics.NewTable("Table VI: best case (1-iter PageRank, Twitter stand-in, SSD)",
		"system", "time(s)", "speedup-vs-nxgraph")
	nx, err := s.oneIterPageRankNX(0, diskio.SSD)
	if err != nil {
		return nil, err
	}
	t.AddRow("nxgraph", nx, 1.0)
	xs, err := s.oneIterPageRankXStream(0, diskio.SSD)
	if err != nil {
		return nil, err
	}
	t.AddRow("xstream-like", xs, xs/nx)
	gg, err := s.oneIterPageRankGrid(0, diskio.SSD)
	if err != nil {
		return nil, err
	}
	t.AddRow("gridgraph-like", gg, gg/nx)
	t.AddRow("mmap", "n/a", "6.52 (paper-reported)")
	t.AddRow("powergraph (64-node cluster)", "n/a", "1.79 (paper-reported)")
	return t, nil
}

func (s *Suite) oneIterPageRankNX(budget int64, prof diskio.Profile) (float64, error) {
	gg, err := s.Graph("twitter")
	if err != nil {
		return 0, err
	}
	e, done, err := s.nxEngine(gg, 12, false, engine.Config{
		Strategy: engine.Auto, Threads: s.Threads, MemoryBudget: budget,
	}, prof)
	if err != nil {
		return 0, err
	}
	defer done()
	res, err := algorithms.PageRank(e, 0.85, 1)
	if err != nil {
		return 0, err
	}
	return res.Elapsed.Seconds(), nil
}

func (s *Suite) oneIterPageRankGrid(budget int64, prof diskio.Profile) (float64, error) {
	gg, err := s.Graph("twitter")
	if err != nil {
		return 0, err
	}
	wd, err := s.workdir()
	if err != nil {
		return 0, err
	}
	disk := diskio.MustNew(wd, prof)
	s.nstore++
	sys, err := baseline.NewGridGraph(disk, fmt.Sprintf("t5gg-%04d", s.nstore), gg, budget, s.Threads)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	res, err := sys.RunProgram(algorithms.NewPageRankProgram(gg.NumVertices, 0.85), 1)
	if err != nil {
		return 0, err
	}
	return res.Elapsed.Seconds(), nil
}

func (s *Suite) oneIterPageRankXStream(budget int64, prof diskio.Profile) (float64, error) {
	gg, err := s.Graph("twitter")
	if err != nil {
		return 0, err
	}
	wd, err := s.workdir()
	if err != nil {
		return 0, err
	}
	disk := diskio.MustNew(wd, prof)
	s.nstore++
	sys, err := baseline.NewXStream(disk, fmt.Sprintf("t5xs-%04d", s.nstore), gg, budget, s.Threads)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	res, err := sys.RunProgram(algorithms.NewPageRankProgram(gg.NumVertices, 0.85), 1)
	if err != nil {
		return 0, err
	}
	return res.Elapsed.Seconds(), nil
}
