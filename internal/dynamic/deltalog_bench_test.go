package dynamic_test

import (
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/diskio"
	"nxgraph/internal/dynamic"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/preprocess"
	"nxgraph/internal/storage"
	"nxgraph/internal/testutil"
)

// benchStore builds an RMAT store for benchmarking (scale 12, ~4k
// vertices) on a fresh temp disk.
func benchStore(b *testing.B) *storage.Store {
	b.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(12, 8, 42))
	if err != nil {
		b.Fatal(err)
	}
	disk, err := diskio.New(b.TempDir(), diskio.Unthrottled)
	if err != nil {
		b.Fatal(err)
	}
	res, err := preprocess.FromEdgeList(disk, "store", g, preprocess.Options{Name: "bench", P: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { res.Store.Close() })
	return res.Store
}

// benchOps is the benchmarks' pending-op stream: n insertions among
// existing vertices, with every removeEvery-th op (0: none) replaced by
// the removal of a distinct real base edge, the victims spread over
// every cell of the grid.
func benchOps(b *testing.B, st *storage.Store, n, removeEvery int) []dynamic.Op {
	b.Helper()
	ids, err := st.IDMap()
	if err != nil {
		b.Fatal(err)
	}
	var victims [][2]uint64
	if removeEvery > 0 {
		need, cells := (n+removeEvery-1)/removeEvery, st.Meta().P*st.Meta().P
		perCell := (need + cells - 1) / cells
		sampled := testutil.BaseEdgesByCell(b, st, perCell)
		for x := 0; x < perCell; x++ { // round-robin, so any prefix spans the grid
			for _, cell := range sampled {
				if x < len(cell) {
					victims = append(victims, cell[x])
				}
			}
		}
		if len(victims) < need {
			b.Fatalf("store yields only %d sampled base edges, want %d", len(victims), need)
		}
	}
	nv := uint64(len(ids))
	ops := make([]dynamic.Op, 0, n)
	for k := uint64(0); k < uint64(n); k++ {
		if removeEvery > 0 && k%uint64(removeEvery) == 0 {
			v := victims[k/uint64(removeEvery)]
			ops = append(ops, dynamic.Op{Remove: true, Src: v[0], Dst: v[1]})
			continue
		}
		ops = append(ops, dynamic.Op{Src: ids[(k*13)%nv], Dst: ids[(k*31+7)%nv], Weight: 1})
	}
	return ops
}

// benchOverlayPageRank measures 5-iteration PageRank served through a
// compiled overlay of ops.
func benchOverlayPageRank(b *testing.B, st *storage.Store, ops []dynamic.Op) {
	log, err := dynamic.NewDeltaLog(st)
	if err != nil {
		b.Fatal(err)
	}
	log.Append(ops...)
	e, err := engine.New(st, engine.Config{Threads: 4})
	if err != nil {
		b.Fatal(err)
	}
	e.SetOverlayProvider(log.Overlay)
	if _, err := log.Overlay(); err != nil { // compile outside the loop
		b.Fatal(err)
	}
	b.ResetTimer()
	var edges int64
	for i := 0; i < b.N; i++ {
		res, err := algorithms.PageRank(e, 0.85, 5)
		if err != nil {
			b.Fatal(err)
		}
		edges += res.EdgesTraversed
	}
	b.ReportMetric(float64(edges)/1e6/b.Elapsed().Seconds(), "MTEPS")
}

// BenchmarkDeltaOverlayPageRank measures PageRank served through a
// delta overlay carrying 1024 pending edge insertions, against the
// zero-overlay baseline of the same store (BenchmarkPageRankIteration*
// in internal/engine). It is the serving-path cost of online ingestion.
func BenchmarkDeltaOverlayPageRank(b *testing.B) {
	st := benchStore(b)
	benchOverlayPageRank(b, st, benchOps(b, st, 1024, 0))
}

// BenchmarkDeltaOverlayPageRankWithRemovals adds 128 removals of real
// base edges, spread over all 64 cells, to the same overlay: every base
// cell carries tombstones, so the gap to BenchmarkDeltaOverlayPageRank
// is what pending removals cost the gather.
func BenchmarkDeltaOverlayPageRankWithRemovals(b *testing.B) {
	st := benchStore(b)
	benchOverlayPageRank(b, st, append(benchOps(b, st, 1024, 0), benchOps(b, st, 128, 1)...))
}

// BenchmarkDeltaLogCompile measures overlay compilation alone, over an
// ingest-shaped op stream (one removal of a real base edge per ten
// ops). fresh compiles 4096 pending ops on a new log — the cost the
// first query after a restart or compaction pays, reading every cell a
// removal touches. incremental appends 128 ops to a log already
// compiled at 4096 and compiles again — the cost an ingest batch adds
// to the next query, which reads only the cells of the new removals.
func BenchmarkDeltaLogCompile(b *testing.B) {
	st := benchStore(b)
	ops := benchOps(b, st, 4096+128, 10)
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			log, err := dynamic.NewDeltaLog(st)
			if err != nil {
				b.Fatal(err)
			}
			log.Append(ops[:4096]...)
			b.StartTimer()
			if _, err := log.Overlay(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			log, err := dynamic.NewDeltaLog(st)
			if err != nil {
				b.Fatal(err)
			}
			log.Append(ops[:4096]...)
			if _, err := log.Overlay(); err != nil {
				b.Fatal(err)
			}
			log.Append(ops[4096:]...)
			b.StartTimer()
			if _, err := log.Overlay(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
