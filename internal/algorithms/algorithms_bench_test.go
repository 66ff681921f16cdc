package algorithms_test

import (
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/graph"
	"nxgraph/internal/testutil"
)

func benchEngine(b *testing.B, transpose bool) (*engine.Engine, *graph.EdgeList) {
	b.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(13, 12, 5))
	if err != nil {
		b.Fatal(err)
	}
	st, oracle := testutil.BuildStore(b, g, testutil.StoreOptions{P: 8, Transpose: transpose})
	e, err := engine.New(st, engine.Config{Threads: 2})
	if err != nil {
		b.Fatal(err)
	}
	return e, oracle
}

func BenchmarkPageRank10Iters(b *testing.B) {
	e, _ := benchEngine(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := algorithms.PageRank(e, 0.85, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MTEPS(), "MTEPS")
	}
}

func BenchmarkBFS(b *testing.B) {
	e, _ := benchEngine(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algorithms.BFS(e, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWCC(b *testing.B) {
	e, _ := benchEngine(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algorithms.WCC(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSCC(b *testing.B) {
	e, _ := benchEngine(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algorithms.SCC(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKCore(b *testing.B) {
	e, _ := benchEngine(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algorithms.KCore(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHITS(b *testing.B) {
	e, _ := benchEngine(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := algorithms.HITS(e, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPersonalizedPageRank(b *testing.B) {
	e, _ := benchEngine(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algorithms.PersonalizedPageRank(e, 0, 0.85, 10); err != nil {
			b.Fatal(err)
		}
	}
}
