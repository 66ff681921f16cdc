package engine_test

import (
	"fmt"
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/graph"
	"nxgraph/internal/testutil"
)

func benchGraph(b *testing.B) *graph.EdgeList {
	b.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(13, 12, 77))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkPageRankIterationByStrategy measures one PageRank iteration
// per update strategy (the core ablation behind Fig 8).
func BenchmarkPageRankIterationByStrategy(b *testing.B) {
	g := benchGraph(b)
	for _, c := range []struct {
		name     string
		strategy engine.Strategy
		budget   func(n uint32) int64
	}{
		{"spu", engine.SPU, func(n uint32) int64 { return 0 }},
		{"mpu", engine.MPU, func(n uint32) int64 { return int64(n) * 8 }},
		{"dpu", engine.DPU, func(n uint32) int64 { return 0 }},
	} {
		b.Run(c.name, func(b *testing.B) {
			st, oracle := testutil.BuildStore(b, g, testutil.StoreOptions{P: 8})
			e, err := engine.New(st, engine.Config{
				Strategy: c.strategy, MemoryBudget: c.budget(oracle.NumVertices), Threads: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			run, err := e.NewRun(algorithms.NewPageRankProgram(oracle.NumVertices, 0.85), engine.Forward)
			if err != nil {
				b.Fatal(err)
			}
			defer run.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := run.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(st.EdgeBytesOnDisk(false))
		})
	}
}

// BenchmarkChunkSizes probes the fine-grained task granularity knob.
func BenchmarkChunkSizes(b *testing.B) {
	g := benchGraph(b)
	for _, chunk := range []int{64, 512, 4096, 32768} {
		b.Run(fmt.Sprintf("chunk-%d", chunk), func(b *testing.B) {
			st, oracle := testutil.BuildStore(b, g, testutil.StoreOptions{P: 8})
			defer engine.SetChunkDsts(chunk)()
			e, err := engine.New(st, engine.Config{Threads: 2})
			if err != nil {
				b.Fatal(err)
			}
			run, err := e.NewRun(algorithms.NewPageRankProgram(oracle.NumVertices, 0.85), engine.Forward)
			if err != nil {
				b.Fatal(err)
			}
			defer run.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := run.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
