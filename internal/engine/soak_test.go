package engine_test

import (
	"fmt"
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/diskio"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/storage"
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

// BenchmarkCacheSplitByProfile is the sweep behind Config.CacheL2Frac's
// default (ADR-008): ten PageRank iterations over the scale-16 store
// with a cache of half the decoded forward bytes, split between decoded
// blocks and encoded blobs at each share, on each simulated medium. An
// L1 miss that hits L2 pays a decode and no read, so the encoded tier
// earns its share only where a read costs more than a decode. Skipped
// under -short (the HDD rows sleep for seconds).
func BenchmarkCacheSplitByProfile(b *testing.B) {
	if testing.Short() {
		b.Skip("cache split sweep skipped in -short mode")
	}
	g, err := gen.RMAT(gen.DefaultRMAT(16, 16, 7))
	if err != nil {
		b.Fatal(err)
	}
	built, _ := testutil.BuildStore(b, g, testutil.StoreOptions{P: 12})
	budget := decodedBytes(built) / 2
	for _, profile := range []diskio.Profile{diskio.Unthrottled, diskio.SSD, diskio.HDD} {
		for _, frac := range []float64{-1, 0.1, 0.25, 0.5, 0.9} {
			b.Run(fmt.Sprintf("%s/l2=%v", profile.Name, frac), func(b *testing.B) {
				disk, err := diskio.New(built.Disk().Root(), profile)
				if err != nil {
					b.Fatal(err)
				}
				st, err := storage.Open(disk, "store")
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				e, err := engine.New(st, engine.Config{Threads: 2, Strategy: engine.SPU, CacheBytes: budget, CacheL2Frac: frac, TraceSpans: -1})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := algorithms.PageRank(e, 0.85, 1); err != nil {
					b.Fatal(err) // fills both tiers
				}
				io0, c0 := disk.Stats().Snapshot(), e.CacheStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := algorithms.PageRank(e, 0.85, 10); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				c1 := e.CacheStats()
				gets := float64(c1.Hits - c0.Hits + c1.L2Hits - c0.L2Hits + c1.Misses - c0.Misses)
				b.ReportMetric(float64(disk.Stats().Snapshot().Sub(io0).BytesRead)/float64(b.N), "diskReadB/op")
				b.ReportMetric(float64(c1.Hits-c0.Hits)/gets, "l1hit")
				b.ReportMetric(float64(c1.L2Hits-c0.L2Hits)/gets, "l2hit")
			})
		}
	}
}
