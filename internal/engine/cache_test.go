package engine_test

import (
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/storage"
	"nxgraph/internal/testutil"
)

// TestCacheEquivalenceAcrossStrategies is the block-cache correctness
// gate: PageRank and WCC must produce bit-identical attributes on a
// weighted, transposed store with the cache unlimited, tightly budgeted
// (evicting mid-iteration), half the decoded bytes, and disabled. The
// read path is the only thing the cache changes, so any divergence means
// a stale, corrupted, or mis-decoded block. Each strategy is checked on
// its own: SPU, DPU and MPU agreeing with each other is the subject of
// TestStrategyEquivalenceQuick.
func TestCacheEquivalenceAcrossStrategies(t *testing.T) {
	cfg := gen.DefaultRMAT(8, 4, 7)
	cfg.Weighted = true
	g, err := gen.RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4, Weighted: true, Transpose: true})
	pingPong := 2 * int64(oracle.NumVertices) * engine.Ba

	strategies := []struct {
		name string
		cfg  engine.Config
	}{
		{"spu", engine.Config{Threads: 2, Strategy: engine.SPU}},
		{"dpu", engine.Config{Threads: 2, Strategy: engine.DPU}},
		{"mpu", engine.Config{Threads: 2, Strategy: engine.MPU, MemoryBudget: pingPong / 2}},
	}
	caches := []struct {
		name       string
		cacheBytes int64 // or, when decodedDiv > 0, the store's decoded forward bytes / decodedDiv
		decodedDiv int64
	}{
		{"unlimited", 0, 0},
		{"tiny", 4096, 0}, // drops blocks every iteration
		{"half", 0, 2},    // a stable retained set and a streamed set at once
		{"disabled", -1, 0},
	}
	for _, algo := range []string{"pagerank", "wcc"} {
		for _, sc := range strategies {
			// One baseline per algo/strategy shared across cache shapes.
			var want []float64
			for _, cc := range caches {
				cfg := sc.cfg
				cfg.CacheBytes = cc.cacheBytes
				if cc.decodedDiv > 0 {
					cfg.CacheBytes = decodedBytes(st) / cc.decodedDiv
				}
				e, err := engine.New(st, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var attrs []float64
				switch algo {
				case "pagerank":
					res, err := algorithms.PageRank(e, 0.85, 8)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", algo, sc.name, cc.name, err)
					}
					attrs = res.Attrs
				case "wcc":
					res, err := algorithms.WCC(e)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", algo, sc.name, cc.name, err)
					}
					attrs = res.Attrs
				}
				if want == nil {
					want = attrs
					continue
				}
				for v := range want {
					if attrs[v] != want[v] {
						t.Fatalf("%s/%s: cache=%s diverges at vertex %d: %g vs %g",
							algo, sc.name, cc.name, v, attrs[v], want[v])
					}
				}
			}
		}
	}
}

// decodedBytes is the in-memory size of the forward replica's sub-shards
// in CSR form: what an unlimited cache holds after a sweep.
func decodedBytes(st *storage.Store) (n int64) {
	m := st.Meta()
	for i := 0; i < m.P; i++ {
		for j := 0; j < m.P; j++ {
			info := m.SubShardAt(i, j)
			if info.Edges == 0 {
				continue
			}
			n += 4 * (2*info.Dsts + 1 + info.Edges)
			if m.Weighted {
				n += 4 * info.Edges
			}
		}
	}
	return n
}

// TestPartialBudgetReadsProportionally is the budget claim as a counter:
// with memory for a fraction of the sub-shards the engine keeps that
// fraction resident and streams the rest, so ten PageRank iterations
// read proportionally less than ten full sweeps. Under LRU eviction the
// three ratios were 1.00: a cyclic sweep longer than the cache evicted
// every block before its next use. The thresholds leave room for the
// largest cell, which a budget cannot split (0.54 / 0.78 / 0.89 at scale
// 16), and the attributes must not notice any of it. Every partial
// budget must still read: a budget that held the whole edge set would
// pass the ratios without measuring them.
func TestPartialBudgetReadsProportionally(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(13, 16, 7))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 12})
	decoded := decodedBytes(st)
	run := func(cacheBytes int64) (int64, []float64) {
		e, err := engine.New(st, engine.Config{Threads: 2, Strategy: engine.SPU, CacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := algorithms.PageRank(e, 0.85, 1); err != nil { // warm-up: fills the cache
			t.Fatal(err)
		}
		before := st.Disk().Stats().Snapshot()
		res, err := algorithms.PageRank(e, 0.85, 10)
		if err != nil {
			t.Fatal(err)
		}
		return st.Disk().Stats().Snapshot().Sub(before).BytesRead, res.Attrs
	}
	streamed, _ := run(-1) // caching off, pins only: one full sweep per iteration
	_, want := run(0)      // unlimited
	prev := streamed
	for _, b := range []struct {
		div   int64
		bound float64
	}{{8, 0.95}, {4, 0.85}, {2, 0.60}} {
		read, attrs := run(decoded / b.div)
		ratio := float64(read) / float64(streamed)
		t.Logf("budget 1/%d of %d decoded bytes: read %d of %d B (%.2f)", b.div, decoded, read, streamed, ratio)
		if read == 0 {
			t.Errorf("budget 1/%d: read no disk bytes: the cache budget did not overflow", b.div)
		}
		if ratio > b.bound {
			t.Errorf("budget 1/%d: read %.2f of a full sweep per iteration, want <= %.2f", b.div, ratio, b.bound)
		}
		if read >= prev {
			t.Errorf("budget 1/%d: read %d B, not less than %d B under the next smaller budget", b.div, read, prev)
		}
		prev = read
		for v := range want {
			if attrs[v] != want[v] {
				t.Fatalf("budget 1/%d diverges from the unlimited cache at vertex %d: %g vs %g", b.div, v, attrs[v], want[v])
			}
		}
	}
}

// TestWarmRunZeroBaseReads is the tentpole's acceptance property: a
// second run on the same graph finds every sub-shard resident in the
// shared cache and performs zero disk reads. Under SPU nothing else is
// read either (attributes and hubs exist only for on-disk intervals),
// so the whole run is I/O-free.
func TestWarmRunZeroBaseReads(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 13))
	if err != nil {
		t.Fatal(err)
	}
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4})
	e, err := engine.New(st, engine.Config{Threads: 2}) // SPU, unlimited cache
	if err != nil {
		t.Fatal(err)
	}
	cold, err := algorithms.PageRank(e, 0.85, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cold.IO.BytesRead == 0 {
		t.Fatal("cold run read nothing — measurement broken")
	}
	before := st.Disk().Stats().Snapshot()
	warm, err := algorithms.PageRank(e, 0.85, 5)
	if err != nil {
		t.Fatal(err)
	}
	delta := st.Disk().Stats().Snapshot().Sub(before)
	if delta.BytesRead != 0 {
		t.Fatalf("warm run read %d bytes from disk, want 0", delta.BytesRead)
	}
	for v := range cold.Attrs {
		if cold.Attrs[v] != warm.Attrs[v] {
			t.Fatalf("warm run diverged at vertex %d", v)
		}
	}
	cs := e.CacheStats()
	if cs.Hits == 0 || cs.Evictions != 0 {
		t.Fatalf("cache stats = %+v, want hits > 0 and no evictions", cs)
	}

	// MPU warm runs keep streaming attributes and hubs, but with an
	// explicit block-cache budget covering the edge set, base sub-shard
	// reads also vanish after the first run (the satellite-1 property:
	// the budget boundary degrades by admission instead of cliff-ing).
	em, err := engine.New(st, engine.Config{
		Threads:      2,
		Strategy:     engine.MPU,
		MemoryBudget: int64(oracle.NumVertices) * engine.Ba, // half the ping-pong need
		CacheBytes:   32 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := algorithms.PageRank(em, 0.85, 3); err != nil {
		t.Fatal(err)
	}
	missesAfterCold := em.CacheStats().Misses
	if _, err := algorithms.PageRank(em, 0.85, 3); err != nil {
		t.Fatal(err)
	}
	if m := em.CacheStats().Misses; m != missesAfterCold {
		t.Fatalf("warm MPU run re-decoded %d blocks", m-missesAfterCold)
	}
}

// BenchmarkWarmCachePageRank measures PageRank on a fully warm shared
// cache and reports the disk bytes read per run — the headline number is
// that diskReadB/op stays 0.
func BenchmarkWarmCachePageRank(b *testing.B) {
	benchWarmCachePageRank(b, 0)
}

// BenchmarkWarmCachePageRankNoTrace is the same workload with run
// tracing disabled — comparing against BenchmarkWarmCachePageRank bounds
// the tracer's overhead (the acceptance bar is ≤ 2%).
func BenchmarkWarmCachePageRankNoTrace(b *testing.B) {
	benchWarmCachePageRank(b, -1)
}

func benchWarmCachePageRank(b *testing.B, traceSpans int) {
	g, err := gen.RMAT(gen.DefaultRMAT(13, 12, 77))
	if err != nil {
		b.Fatal(err)
	}
	st, _ := testutil.BuildStore(b, g, testutil.StoreOptions{P: 8})
	e, err := engine.New(st, engine.Config{Threads: 2, TraceSpans: traceSpans})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := algorithms.PageRank(e, 0.85, 5); err != nil {
		b.Fatal(err) // warm the cache
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
}
