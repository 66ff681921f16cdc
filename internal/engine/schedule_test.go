package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/dynamic"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/storage"
	"nxgraph/internal/testutil"
)

// schedP is the row count of the schedule suites' stores; schedMPU is the
// memory budget, per vertex, that resolves MPU to Q = 3 of them at one
// lane, so rows 3-5 stream their source interval through loadBuf.
const (
	schedP   = 6
	schedMPU = 8
)

// schedConfigs are the strategies the step's pool must keep folds
// ordered under: every row resident, and three resident rows followed
// by three streamed ones, whose destination intervals the column phase
// folds.
func schedConfigs(n uint32) map[string]engine.Config {
	return map[string]engine.Config{
		"spu": {Strategy: engine.SPU},
		"mpu": {Strategy: engine.MPU, MemoryBudget: int64(n) * schedMPU},
	}
}

// TestFoldOrderSurvivesHostileSchedule holds the step's pool to the
// serial fold order. The gather tasks of even source intervals are
// delayed, so a worker finds the next row's tasks (in the column phase,
// the next source interval's cell or hub) ready first; a unit that did
// not wait for its interval's previous unit would fold source i+1 before
// source i, which a sum fold (PageRank) shows bitwise. WCC runs both
// replicas, so its chains also interleave forward and transposed cells.
// Under DPU every fold goes through hubs and the column phase. Pending
// adds and removes put overlay units and survivor cells in every chain.
// Every result (three iterations each) must equal the Threads: 1 run
// bit for bit.
func TestFoldOrderSurvivesHostileSchedule(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 17))
	if err != nil {
		t.Fatal(err)
	}
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: schedP, Transpose: true})
	log, err := dynamic.NewDeltaLog(st)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(oracle.NumVertices)
	for i := 0; i < 12; i++ {
		ed := oracle.Edges[i*13%len(oracle.Edges)]
		log.Remove(uint64(ed.Src), uint64(ed.Dst))
	}
	for i := uint64(0); i < 24; i++ {
		log.Add((i*37+3)%n, (i*11+7)%n, 1)
	}
	algos := map[string]func(*engine.Engine) (*engine.Result, error){
		"pagerank": func(e *engine.Engine) (*engine.Result, error) { return algorithms.PageRank(e, 0.85, 3) },
		"wcc":      algorithms.WCC,
	}
	run := func(t *testing.T, cfg engine.Config, threads int, algo func(*engine.Engine) (*engine.Result, error)) []float64 {
		t.Helper()
		cfg.Threads, cfg.MaxIterations = threads, 3
		defer engine.SetChunkDsts(2)()
		e, err := engine.New(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetOverlayProvider(log.Overlay)
		res, err := algo(e)
		if err != nil {
			t.Fatal(err)
		}
		return res.Attrs
	}
	configs := schedConfigs(uint32(n))
	configs["dpu"] = engine.Config{Strategy: engine.DPU}
	for name, cfg := range configs {
		for an, algo := range algos {
			t.Run(name+"/"+an, func(t *testing.T) {
				want := run(t, cfg, 1, algo)
				restore := engine.SetDelayGather(func(i int) {
					if i%2 == 0 {
						time.Sleep(20 * time.Microsecond)
					}
				})
				defer restore()
				for _, threads := range []int{1, 2, 5} {
					assertBitIdentical(t, fmt.Sprintf("threads %d", threads), run(t, cfg, threads, algo), want)
				}
			})
		}
	}
}

// cancelAtGather is PageRank behind the bare Program interface, so its
// hint is hidden and every edge calls Gather; the n-th call cancels.
type cancelAtGather struct {
	engine.Program
	calls  *atomic.Int64
	n      int64
	cancel context.CancelFunc
}

func (p cancelAtGather) Gather(a float64, deg uint32, w float32) float64 {
	if p.calls.Add(1) == p.n {
		p.cancel()
	}
	return p.Program.Gather(a, deg, w)
}

// TestStepAbortWithTasksInFlight aborts a step while the step's pool
// has work in flight and checks what the abort leaves behind: no pinned
// block, no goroutine, and an engine whose next run is bitwise equal to
// a fresh engine's. The row phase is aborted with two rows in the pool —
// cancelled from a worker's Gather, or failed by a corrupt blob in a
// later row. Under MPU the column phase is aborted too: cancelled from a
// Gather call past the row phase's, or failed by a corrupt cell that only
// the column phase reads.
func TestStepAbortWithTasksInFlight(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 23))
	if err != nil {
		t.Fatal(err)
	}
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: schedP, Transpose: true})
	m := st.Meta()
	n := oracle.NumVertices
	pagerank := func(t *testing.T, e *engine.Engine) []float64 {
		t.Helper()
		res, err := algorithms.PageRank(e, 0.85, 5)
		if err != nil {
			t.Fatal(err)
		}
		return res.Attrs
	}
	// settled checks the engine after an aborted step, then runs it again.
	settled := func(t *testing.T, e *engine.Engine, cfg engine.Config, goroutines int) {
		t.Helper()
		if pinned := e.CacheStats().PinnedBytes; pinned != 0 {
			t.Fatalf("the aborted step left %d bytes pinned", pinned)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > goroutines {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the aborted step, %d before it", runtime.NumGoroutine(), goroutines)
			}
			time.Sleep(time.Millisecond)
		}
		fresh, err := engine.New(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "after the aborted step", pagerank(t, e), pagerank(t, fresh))
	}
	// cancel runs one PageRank step that cancels itself at the at-th
	// Gather call and returns the number of calls.
	cancel := func(t *testing.T, cfg engine.Config, at int64) int64 {
		t.Helper()
		e, err := engine.New(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		goroutines := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		calls := new(atomic.Int64)
		run, err := e.NewRun(cancelAtGather{algorithms.NewPageRankProgram(n, 0.85), calls, at, cancel}, engine.Forward)
		if err != nil {
			t.Fatal(err)
		}
		_, err = run.StepContext(ctx)
		run.Close()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("StepContext = %v, want context.Canceled", err)
		}
		settled(t, e, cfg, goroutines)
		return calls.Load()
	}
	// corrupt fails a PageRank run over a copy of f[i,j] overwritten with
	// 0xFF bytes: the error must name the cell.
	corrupt := func(t *testing.T, cfg engine.Config, i, j int) {
		t.Helper()
		info := m.SubShardAt(i, j)
		f, err := os.OpenFile(st.Disk().Path(st.Dir()+"/"+storage.ShardsFile), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		orig := make([]byte, info.Length)
		if _, err := f.ReadAt(orig, info.Offset); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{0xFF}, len(orig)), info.Offset); err != nil {
			t.Fatal(err)
		}
		e, err := engine.New(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		goroutines := runtime.NumGoroutine()
		_, err = algorithms.PageRank(e, 0.85, 5)
		if want := fmt.Sprintf("decode f[%d,%d]: ", i, j); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("PageRank over a corrupt f[%d,%d] = %v, want an error containing %q", i, j, err, want)
		}
		if _, err := f.WriteAt(orig, info.Offset); err != nil {
			t.Fatal(err)
		}
		settled(t, e, cfg, goroutines)
	}
	// A one-lane forward step calls Gather once per edge of every cell:
	// the column phase's cells, f[i<Q, j>=Q], come after the others.
	const q = schedP / 2
	var colEdges [schedP]int64
	rowEdges := int64(len(oracle.Edges))
	for i := 0; i < q; i++ {
		for j := q; j < schedP; j++ {
			colEdges[j] += m.SubShardAt(i, j).Edges
			rowEdges -= m.SubShardAt(i, j).Edges
		}
	}
	defer engine.SetChunkDsts(8)()
	for name, cfg := range schedConfigs(n) {
		cfg.Threads = 2
		t.Run(name+"/cancel", func(t *testing.T) {
			// A whole row phase calls Gather once per edge.
			if got := cancel(t, cfg, 40); got >= int64(len(oracle.Edges)) {
				t.Fatalf("Gather ran %d times of %d edges: the cancel did not stop the row phase", got, len(oracle.Edges))
			}
		})
		t.Run(name+"/corrupt-blob", func(t *testing.T) {
			const i = 4 // a streamed row under MPU
			j := 0
			for m.SubShardAt(i, j).Length == 0 {
				j++
			}
			corrupt(t, cfg, i, j)
		})
	}
	cfg := schedConfigs(n)["mpu"]
	cfg.Threads = 2
	t.Run("mpu/column-cancel", func(t *testing.T) {
		if colEdges[q] == 0 || colEdges[q+1]+colEdges[q+2] == 0 {
			t.Fatalf("column edges %v: the store leaves no column to cancel in", colEdges[q:])
		}
		// Cancel halfway through the first column: it finishes, and the
		// check before the next column stops the step.
		at := rowEdges + colEdges[q]/2
		if got := cancel(t, cfg, at); got != rowEdges+colEdges[q] {
			t.Fatalf("Gather ran %d times, want the row phase's %d and the first column's %d", got, rowEdges, colEdges[q])
		}
	})
	t.Run("mpu/column-corrupt-blob", func(t *testing.T) {
		for i := 0; i < q; i++ {
			for j := q; j < schedP; j++ {
				if m.SubShardAt(i, j).Length > 0 {
					corrupt(t, cfg, i, j)
					return
				}
			}
		}
		t.Fatal("no cell f[i<Q, j>=Q] holds edges")
	})
}
