package server

import (
	"fmt"
	"testing"

	"nxgraph/internal/metrics"
)

func mkResult(nVals int) *Result {
	return &Result{Algo: "pagerank", Values: make([]float64, nVals)}
}

func TestCacheLRUEviction(t *testing.T) {
	stats := metrics.NewServerStats()
	// Each 100-value result is 800 + 256 bytes; budget fits three.
	c := newResultCache(3*1056+10, stats)
	for i := 0; i < 4; i++ {
		c.put(fmt.Sprintf("g|k%d", i), mkResult(100))
	}
	if c.len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", c.len())
	}
	if _, ok := c.get("g|k0"); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.get("g|k3"); !ok {
		t.Fatal("newest entry missing")
	}
	if stats.CacheEntries.Load() != 3 {
		t.Fatalf("entries gauge %d, want 3", stats.CacheEntries.Load())
	}

	// Touching k1 promotes it; inserting k4 must evict k2 instead.
	c.get("g|k1")
	c.put("g|k4", mkResult(100))
	if _, ok := c.get("g|k1"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.get("g|k2"); ok {
		t.Fatal("cold entry survived eviction")
	}
}

func TestCacheRejectsOversized(t *testing.T) {
	c := newResultCache(100, nil)
	c.put("g|big", mkResult(1000))
	if c.len() != 0 {
		t.Fatal("oversized result cached")
	}
}

func TestCacheInvalidateGraph(t *testing.T) {
	c := newResultCache(1<<20, nil)
	c.put("a|k1", mkResult(10))
	c.put("a|k2", mkResult(10))
	c.put("b|k1", mkResult(10))
	c.invalidateGraph("a")
	if c.len() != 1 {
		t.Fatalf("cache holds %d entries after invalidate, want 1", c.len())
	}
	if _, ok := c.get("b|k1"); !ok {
		t.Fatal("unrelated graph entry dropped")
	}
}

func TestCacheInvalidateGraphDeltaKeys(t *testing.T) {
	c := newResultCache(1<<20, nil)
	// Both key spellings must be purged: plain and delta-versioned (see
	// cacheKey) — otherwise a post-compaction pending count that climbs
	// back to a previously cached value would alias a stale result.
	c.put("g#1|pagerank|d=0.85", mkResult(10))
	c.put("g#1@3|pagerank|d=0.85", mkResult(10))
	c.put("g#12@3|pagerank|d=0.85", mkResult(10)) // other uid, shared prefix
	c.invalidateGraph("g#1")
	if c.len() != 1 {
		t.Fatalf("cache holds %d entries after invalidate, want 1", c.len())
	}
	if _, ok := c.get("g#12@3|pagerank|d=0.85"); !ok {
		t.Fatal("entry of a different registration dropped")
	}
}
