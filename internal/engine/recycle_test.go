package engine

import (
	"flag"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"nxgraph/internal/blockcache"
	"nxgraph/internal/gen"
	"nxgraph/internal/storage"
	"nxgraph/internal/testutil"
)

// sparesPoisoned counts the evicted blocks handed back to a decode.
var sparesPoisoned atomic.Int64

// TestMain runs every suite of this package — the bitwise-equivalence
// ones over tiny caches included — with evicted blocks poisoned before
// they are decoded into again, so a sub-shard some code path keeps past
// its handle's Release shows up as 0xFFFFFFFF vertex ids (an index out
// of range or a bitwise mismatch) rather than as another cell's edges.
// Benchmarks are left alone: the fill is not part of a miss.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		poisonSpare = func(ss *storage.SubShard) {
			sparesPoisoned.Add(1)
			for _, a := range [][]uint32{ss.Dsts, ss.Offsets, ss.Srcs[:cap(ss.Srcs)]} {
				for i := range a {
					a[i] = 0xFFFFFFFF
				}
			}
			for w := ss.Weights[:cap(ss.Weights)]; len(w) > 0; w = w[1:] {
				w[0] = math.Float32frombits(0xFFFFFFFF)
			}
		}
	}
	os.Exit(m.Run())
}

// TestMissDecodesIntoEvictedBlock drives the miss path by hand over a
// cache that keeps nothing unpinned: a released block becomes a spare
// (while something else is pinned to bound the spares by), the next miss
// of a similar size decodes into its arrays, a reference kept past
// Release sees them change, and a steady-state miss allocates no decoded
// arrays — only the blob it reads and the cache's bookkeeping.
func TestMissDecodesIntoEvictedBlock(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(12, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4})
	e, err := New(st, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.SetBlockCache(blockcache.New(0), blockcache.NextGeneration())
	run, err := e.NewRun(&foldTestProg{sum: func(a, b float64) float64 { return a + b }}, Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()

	m := st.Meta()
	var cells []cellID // by decoded size, largest first
	for i := 0; i < m.P; i++ {
		for j := 0; j < m.P; j++ {
			if m.SubShardAt(i, j).Edges > 0 {
				cells = append(cells, cellID{0, i, j})
			}
		}
	}
	size := func(c cellID) int64 {
		info := m.SubShardAt(c.i, c.j)
		return 4 * (2*info.Dsts + 1 + info.Edges)
	}
	sort.Slice(cells, func(a, b int) bool { return size(cells[a]) > size(cells[b]) })
	load := func(c cellID) *blockcache.Handle {
		t.Helper()
		h, _, _, err := run.loadBlock(c)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	pin := load(cells[0]) // the spares may hold as much as this pins
	defer pin.Release()
	big, small := cells[1], cells[2]
	if size(small)*2 < size(big) {
		t.Fatalf("fixture: cells of %d and %d bytes are not within a factor of two", size(big), size(small))
	}

	h := load(big)
	kept := h.Value().(*storage.SubShard)
	before := slices.Clone(kept.Srcs)
	h.Release() // budget 0: evicted at once, and a spare
	poisoned := sparesPoisoned.Load()
	h = load(small)
	if h.Value().(*storage.SubShard) != kept {
		t.Fatal("the miss did not decode into the block just evicted")
	}
	if sparesPoisoned.Load() != poisoned+1 {
		t.Fatal("the spare was not poisoned before reuse")
	}
	if slices.Equal(kept.Srcs, before) {
		t.Fatal("a sub-shard kept past Release still reads its old edges")
	}
	fresh, err := st.ReadSubShard(small.i, small.j, false)
	if err != nil {
		t.Fatal(err)
	}
	got := h.Value().(*storage.SubShard)
	if !slices.Equal(got.Dsts, fresh.Dsts) || !slices.Equal(got.Offsets, fresh.Offsets) || !slices.Equal(got.Srcs, fresh.Srcs) {
		t.Fatal("decode into a poisoned spare differs from a fresh decode")
	}
	h.Release()

	// Steady state: the same cell missing again and again finds its own
	// arrays among the spares. What a miss still allocates is the blob
	// ReadSubShardRaw returns (never recycled) and the cache's bookkeeping
	// (entry, ready channel, handle, closures), a few hundred bytes
	// whatever the block's size.
	const rounds = 64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		load(small).Release()
	}
	runtime.ReadMemStats(&m1)
	perMiss := (m1.TotalAlloc - m0.TotalAlloc) / rounds
	blockBytes, blob := uint64(fresh.MemBytes()), uint64(m.SubShardAt(small.i, small.j).Length)
	t.Logf("steady-state miss: %d B and %.1f allocations for a %d B block read as a %d B blob",
		perMiss, float64(m1.Mallocs-m0.Mallocs)/rounds, blockBytes, blob)
	if blockBytes < 16<<10 || blockBytes < blob+4<<10 {
		t.Fatalf("fixture: a %d B block from a %d B blob cannot tell a recycled miss from a fresh one", blockBytes, blob)
	}
	if perMiss > blob+1<<10 {
		t.Fatalf("a steady-state miss allocates %d B for a %d B block read as a %d B blob: the edge arrays are not being recycled", perMiss, blockBytes, blob)
	}
}
