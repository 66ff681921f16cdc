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
			ss.ClassEnds = [storage.NumClasses - 1]int{-1, -1, -1}
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
// of a similar size decodes into its arrays — the same block, in the
// same count-class order, as a fresh decode — a reference kept past
// Release sees them change, and a steady-state miss allocates no decoded
// arrays and no decoder scratch — only the blob it reads and the cache's
// bookkeeping.
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
	raw, err := st.ReadSubShardRaw(small.i, small.j, false)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := storage.DecodeSubShardInto(nil, raw, m.Weighted, storage.ClassOrder)
	if err != nil {
		t.Fatal(err)
	}
	got := h.Value().(*storage.SubShard)
	if !slices.Equal(got.Dsts, fresh.Dsts) || !slices.Equal(got.Offsets, fresh.Offsets) || !slices.Equal(got.Srcs, fresh.Srcs) ||
		got.ClassEnds != fresh.ClassEnds {
		t.Fatal("decode into a poisoned spare differs from a fresh decode in the same class order")
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

// TestSlabPoolFitsSmallest: the slab pool hands out the smallest pooled
// slab that fits, and a wide DPU run — which keeps no vertex interval
// resident, so every slab it asks for has length 0 — neither takes a
// pooled slab while it runs nor returns one when it closes; the next
// wide SPU run gets the pooled slab back.
func TestSlabPoolFitsSmallest(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 5})
	n := int64(st.Meta().NumVertices)
	// Two lanes fit the budget (SPU); sixteen get Q = ⌊2/16·5⌋ = 0 (DPU).
	e, err := New(st, Config{Threads: 1, MemoryBudget: 2 * n * Ba * 2})
	if err != nil {
		t.Fatal(err)
	}
	big, small := make([]float64, 100), make([]float64, 40)
	e.putSlab(2, big, small)
	if got := e.getSlab(2, 30); &got[:1][0] != &small[0] {
		t.Fatalf("getSlab(30) took the %d-slot slab, want the 40-slot one", cap(got))
	}
	if got := e.getSlab(2, 0); got != nil || len(e.slabs) != 1 {
		t.Fatalf("getSlab(0) = %d slots, pool left with %d slabs; want nil and 1", cap(got), len(e.slabs))
	}
	e.slabs = nil

	add := func(a, b float64) float64 { return a + b }
	progs := func(L int) []Program {
		ps := make([]Program, L)
		for l := range ps {
			ps[l] = &foldTestProg{gather: func(a float64, _ uint32, _ float32) float64 { return a }, sum: add}
		}
		return ps
	}
	run := func(L int, want Strategy, during func()) {
		r, err := e.NewBatchRun(progs(L), Forward)
		if err != nil {
			t.Fatal(err)
		}
		if r.Strategy() != want {
			t.Fatalf("%d lanes: strategy %v, want %v", L, r.Strategy(), want)
		}
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
		during()
		r.Close()
	}
	run(2, SPU, func() {})
	pooled := slices.Clone(e.slabs)
	if len(pooled) != 2 {
		t.Fatalf("a closed 2-lane SPU run pooled %d slabs, want 2", len(pooled))
	}
	run(16, DPU, func() {
		if len(e.slabs) != 2 {
			t.Fatalf("a running 16-lane DPU run left %d of 2 pooled slabs", len(e.slabs))
		}
	})
	if len(e.slabs) != 2 {
		t.Fatalf("a closed 16-lane DPU run left %d pooled slabs, want 2", len(e.slabs))
	}
	run(2, SPU, func() {
		if len(e.slabs) != 0 {
			t.Fatalf("a running 2-lane SPU run left %d pooled slabs, want 0", len(e.slabs))
		}
	})
	for i, b := range e.slabs {
		if &b[:1][0] != &pooled[0][:1][0] && &b[:1][0] != &pooled[1][:1][0] {
			t.Fatalf("pooled slab %d is a new allocation, want the first run's", i)
		}
	}
}
