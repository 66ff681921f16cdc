package engine_test

import (
	"math"
	"os"
	"slices"
	"sync"
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/storage"
	"nxgraph/internal/testutil"
)

// TestConcurrentDiskRunsMatchSequential runs PageRank and BFS at once on
// one engine, 20 rounds, under forced DPU and under an MPU budget. A run
// with intervals on disk keeps its attribute intervals and hubs in
// scratch files of its own, so neither run can read what the other
// wrote: every result is bitwise equal to its sequential run.
func TestConcurrentDiskRunsMatchSequential(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: 6})
	pingPong := 2 * int64(oracle.NumVertices) * engine.Ba
	for _, sc := range []struct {
		name string
		cfg  engine.Config
	}{
		{"dpu", engine.Config{Threads: 2, Strategy: engine.DPU}},
		{"mpu", engine.Config{Threads: 2, Strategy: engine.MPU, MemoryBudget: pingPong / 2}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			e, err := engine.New(st, sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			runs := []func() (*engine.Result, error){
				func() (*engine.Result, error) { return algorithms.PageRank(e, 0.85, 5) },
				func() (*engine.Result, error) { return algorithms.BFS(e, 0) },
			}
			want := make([][]float64, len(runs))
			for k, run := range runs {
				res, err := run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Strategy != sc.cfg.Strategy || res.ResidentIntervals >= st.Meta().P {
					t.Fatalf("run %d ran %v with %d of %d intervals resident, want %v with some on disk",
						k, res.Strategy, res.ResidentIntervals, st.Meta().P, sc.cfg.Strategy)
				}
				want[k] = res.Attrs
			}
			for round := 0; round < 20; round++ {
				got := make([]*engine.Result, len(runs))
				errs := make([]error, len(runs))
				var wg sync.WaitGroup
				for k, run := range runs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[k], errs[k] = run()
					}()
				}
				wg.Wait()
				for k := range runs {
					if errs[k] != nil {
						t.Fatalf("round %d, run %d: %v", round, k, errs[k])
					}
					for v, x := range got[k].Attrs {
						if math.Float64bits(x) != math.Float64bits(want[k][v]) {
							t.Fatalf("round %d, run %d: vertex %d is %g, sequential run says %g", round, k, v, x, want[k][v])
						}
					}
				}
			}
		})
	}
}

// TestDiskRunLeavesStoreDirAlone lists the store directory while a DPU
// run over both edge directions is open (attribute intervals and both
// hub files on disk) and again after it closes: both times it holds the
// store's own files and nothing else.
func TestDiskRunLeavesStoreDirAlone(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4, Transpose: true})
	want := []string{storage.DegreeFile, storage.IDMapFile, storage.MetaFile, storage.ShardsFile, storage.TShardsFile}
	list := func(when string) {
		t.Helper()
		ents, err := os.ReadDir(st.Disk().Path(st.Dir()))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, ent := range ents {
			got = append(got, ent.Name())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: store dir holds %v, want %v", when, got, want)
		}
	}
	e, err := engine.New(st, engine.Config{Threads: 2, Strategy: engine.DPU})
	if err != nil {
		t.Fatal(err)
	}
	run, err := e.NewRun(algorithms.NewWCCProgram(), engine.Both)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Step(); err != nil {
		t.Fatal(err)
	}
	list("with a DPU run open")
	run.Close()
	list("after the run closed")
}
