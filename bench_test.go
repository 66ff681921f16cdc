// Repository-level benchmarks: one testing.B benchmark per table and
// figure of the paper's evaluation (§IV). Each benchmark drives the same
// internal/bench harness as cmd/nxbench, at a reduced scale chosen so the
// whole suite completes on a small CI machine, and reports the harness
// table through b.Log (visible with -v).
//
//	go test -bench=. -benchmem            # reduced scale
//	go run ./cmd/nxbench -exp all         # full harness
//
// Absolute times differ from the paper (scaled datasets, simulated
// disks); benchmark/README.md describes the repository's own measured
// benchmark and its recorded results.
package nxgraph_test

import (
	"testing"

	"nxgraph/internal/bench"
	"nxgraph/internal/metrics"
)

func benchSuite(b *testing.B) *bench.Suite {
	b.Helper()
	s := bench.NewSuite()
	s.ScaleDelta = -6
	s.Threads = 2
	s.PageRankIters = 3
	b.Cleanup(s.Close)
	return s
}

func report(b *testing.B, t *metrics.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if b.N > 0 {
		b.Log("\n" + t.String())
	}
}

// BenchmarkTableII regenerates the analytic I/O model table.
func BenchmarkTableII(b *testing.B) {
	s := benchSuite(b)
	var t *metrics.Table
	for i := 0; i < b.N; i++ {
		t = s.TableII()
	}
	report(b, t, nil)
}

// BenchmarkFig6 regenerates the MPU/TurboGraph-like I/O ratio curve.
func BenchmarkFig6(b *testing.B) {
	s := benchSuite(b)
	var t *metrics.Table
	for i := 0; i < b.N; i++ {
		t = s.Fig6(12)
	}
	report(b, t, nil)
}

// BenchmarkTable4 regenerates Exp 1: sub-shard ordering and parallelism.
func BenchmarkTable4(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		t, err := s.Table4()
		report(b, t, err)
	}
}

// BenchmarkFig7 regenerates Exp 2: performance vs partitioning.
func BenchmarkFig7(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		t, err := s.Fig7([]int{2, 4, 12, 24})
		report(b, t, err)
	}
}

// BenchmarkFig8 regenerates Exp 3: SPU vs DPU across threads and memory.
func BenchmarkFig8(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		t, err := s.Fig8([]int{1, 2, 4}, []float64{0.5, 1})
		report(b, t, err)
	}
}

// BenchmarkFig9 regenerates Exp 4: PageRank vs memory budget per system.
func BenchmarkFig9(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		t, err := s.Fig9([]float64{0.25, 1})
		report(b, t, err)
	}
}

// BenchmarkFig10 regenerates Exp 5: PageRank vs thread count per system.
func BenchmarkFig10(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		t, err := s.Fig10([]int{1, 2})
		report(b, t, err)
	}
}

// BenchmarkFig11 regenerates Exp 6: MTEPS scalability on mesh graphs.
func BenchmarkFig11(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		t, err := s.Fig11()
		report(b, t, err)
	}
}

// BenchmarkFig12 regenerates Exp 7: BFS / SCC / WCC per system.
func BenchmarkFig12(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		t, err := s.Fig12()
		report(b, t, err)
	}
}

// BenchmarkTable5 regenerates Exp 8: limited resources on SSD and HDD.
func BenchmarkTable5(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		t, err := s.Table5()
		report(b, t, err)
	}
}

// BenchmarkTable6 regenerates Exp 9: best-case single-iteration PageRank.
func BenchmarkTable6(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		t, err := s.Table6()
		report(b, t, err)
	}
}
