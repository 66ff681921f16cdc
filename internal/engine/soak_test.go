package engine_test

import (
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/testutil"
)

// BenchmarkSoakPageRankColdCache is the larger-than-RAM profile: the
// block cache is budgeted below the store's edge bytes, so every
// iteration re-reads the sub-shards that were not admitted from disk.
// The headline metric is a sustained nonzero diskReadB/op — the workload
// the warm-cache benchmark deliberately excludes. Skipped under -short (it moves
// hundreds of MB through the page cache).
func BenchmarkSoakPageRankColdCache(b *testing.B) {
	if testing.Short() {
		b.Skip("soak benchmark skipped in -short mode")
	}
	g, err := gen.RMAT(gen.DefaultRMAT(15, 8, 7))
	if err != nil {
		b.Fatal(err)
	}
	st, _ := testutil.BuildStore(b, g, testutil.StoreOptions{P: 8})
	const cacheBytes = 1 << 20
	e, err := engine.New(st, engine.Config{Threads: 2, CacheBytes: cacheBytes})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := algorithms.PageRank(e, 0.85, 1); err != nil {
		b.Fatal(err) // populate whatever fits; the rest stays cold
	}
	before := st.Disk().Stats().Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algorithms.PageRank(e, 0.85, 5); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	delta := st.Disk().Stats().Snapshot().Sub(before)
	b.ReportMetric(float64(delta.BytesRead)/float64(b.N), "diskReadB/op")
	if delta.BytesRead == 0 {
		b.Fatal("soak run read no disk bytes: cache budget did not overflow")
	}
	// The counter is exact, so it is held, not watched: a budget that is
	// a share of the decoded bytes must save at least half that share of
	// five full sweeps (LRU saved none of it).
	var sweep int64
	for _, info := range st.Meta().SubShards {
		sweep += info.Length
	}
	share := float64(cacheBytes) / float64(decodedBytes(st))
	if got, most := float64(delta.BytesRead)/float64(b.N), 5*float64(sweep)*(1-share/2); share < 1 && got > most {
		b.Fatalf("read %.0f B per run with a cache of %.2f of the decoded bytes, want <= %.0f", got, share, most)
	}
}
