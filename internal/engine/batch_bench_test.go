package engine_test

import (
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/dynamic"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/testutil"
)

// benchRoots spreads n query roots over the vertex id space.
func benchRoots(n int, numVertices uint32) []uint32 {
	roots := make([]uint32, n)
	for i := range roots {
		roots[i] = uint32(uint64(i) * 2654435761 % uint64(numVertices))
	}
	return roots
}

func benchBatchEngine(b *testing.B) (*engine.Engine, []uint32) {
	b.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(13, 12, 77))
	if err != nil {
		b.Fatal(err)
	}
	st, oracle := testutil.BuildStore(b, g, testutil.StoreOptions{P: 8})
	e, err := engine.New(st, engine.Config{Threads: 2})
	if err != nil {
		b.Fatal(err)
	}
	roots := benchRoots(64, oracle.NumVertices)
	// Warm the block cache so both modes measure pure compute.
	if _, err := algorithms.PersonalizedPageRank(e, roots[0], 0.85, 5); err != nil {
		b.Fatal(err)
	}
	return e, roots
}

// BenchmarkPPRBatch64Fused runs 64 personalized PageRank queries as one
// fused batch per op; compare against BenchmarkPPRBatch64Sequential for
// the fusion speedup (the tentpole target is ≥5× aggregate throughput).
func BenchmarkPPRBatch64Fused(b *testing.B) {
	e, roots := benchBatchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algorithms.PersonalizedPageRankBatch(e, roots, 0.85, 5); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(roots)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkPPRBatch64Sequential runs the same 64 queries back to back,
// one engine run each.
func BenchmarkPPRBatch64Sequential(b *testing.B) {
	e, roots := benchBatchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range roots {
			if _, err := algorithms.PersonalizedPageRank(e, r, 0.85, 5); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(roots)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkPPRBatch16OverlayRemovals runs 16 fused PPR queries per op
// over an overlay carrying 1024 insertions and 128 removals of real base
// edges, two in every cell — the serving shape under ingest, where every
// base cell is tombstoned. Every destination takes the fused rank
// kernel's dense path: each of the 128 dirty ones folds its cell of
// surviving edges through it.
func BenchmarkPPRBatch16OverlayRemovals(b *testing.B) {
	e, _ := benchBatchEngine(b) // block cache arrives warm
	st := e.Store()
	log, err := dynamic.NewDeltaLog(st)
	if err != nil {
		b.Fatal(err)
	}
	ids, err := st.IDMap()
	if err != nil {
		b.Fatal(err)
	}
	n := uint64(len(ids))
	for k := uint64(0); k < 1024; k++ {
		log.Add(ids[(k*13)%n], ids[(k*31+7)%n], 1)
	}
	for _, cell := range testutil.BaseEdgesByCell(b, st, 2) {
		for _, v := range cell {
			log.Remove(v[0], v[1])
		}
	}
	if _, err := log.Overlay(); err != nil { // compile outside the loop
		b.Fatal(err)
	}
	e.SetOverlayProvider(log.Overlay)
	roots := benchRoots(16, st.Meta().NumVertices)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algorithms.PersonalizedPageRankBatch(e, roots, 0.85, 5); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(roots)*b.N)/b.Elapsed().Seconds(), "queries/s")
}
