package preprocess_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"nxgraph/internal/diskio"
	"nxgraph/internal/gen"
	"nxgraph/internal/graph"
	"nxgraph/internal/preprocess"
	"nxgraph/internal/storage"
)

func build(t testing.TB, g *graph.EdgeList, opt preprocess.Options) *preprocess.Result {
	t.Helper()
	disk := diskio.MustNew(t.TempDir(), diskio.Unthrottled)
	res, err := preprocess.FromEdgeList(disk, "st", g, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { res.Store.Close() })
	return res
}

// collectEdges reads every sub-shard back into a flat edge list and
// verifies the DSSS invariants along the way:
//   - every destination of SS[i][j] lies in interval j, every source in i;
//   - destinations strictly ascend within a sub-shard;
//   - sources ascend within one destination's list.
func collectEdges(t *testing.T, st *storage.Store, transpose bool) map[[2]uint32]int {
	t.Helper()
	m := st.Meta()
	got := map[[2]uint32]int{}
	for i := 0; i < m.P; i++ {
		for j := 0; j < m.P; j++ {
			ss, err := st.ReadSubShard(i, j, transpose)
			if err != nil {
				t.Fatal(err)
			}
			ilo, ihi := m.IntervalRange(i)
			jlo, jhi := m.IntervalRange(j)
			for k := range ss.Dsts {
				d := ss.Dsts[k]
				if d < jlo || d >= jhi {
					t.Fatalf("SS[%d][%d] dst %d outside interval [%d,%d)", i, j, d, jlo, jhi)
				}
				if k > 0 && ss.Dsts[k-1] >= d {
					t.Fatalf("SS[%d][%d] dsts not strictly ascending", i, j)
				}
				var prev int64 = -1
				for e := ss.Offsets[k]; e < ss.Offsets[k+1]; e++ {
					s := ss.Srcs[e]
					if s < ilo || s >= ihi {
						t.Fatalf("SS[%d][%d] src %d outside interval [%d,%d)", i, j, s, ilo, ihi)
					}
					if int64(s) < prev {
						t.Fatalf("SS[%d][%d] srcs of dst %d not sorted", i, j, d)
					}
					prev = int64(s)
					got[[2]uint32{s, d}]++
				}
			}
		}
	}
	return got
}

func TestPartitionInvariants(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 7, 16} {
		res := build(t, g, preprocess.Options{Name: "t", P: p, Transpose: true})
		// Every input edge appears exactly once (after compaction).
		remap := compactRemap(g)
		want := map[[2]uint32]int{}
		for _, e := range g.Edges {
			want[[2]uint32{remap[e.Src], remap[e.Dst]}]++
		}
		got := collectEdges(t, res.Store, false)
		if len(got) != len(want) {
			t.Fatalf("P=%d: %d distinct edges, want %d", p, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("P=%d: edge %v count %d, want %d", p, k, got[k], c)
			}
		}
		// Transpose holds the reversed multiset.
		gotT := collectEdges(t, res.Store, true)
		for k, c := range want {
			rk := [2]uint32{k[1], k[0]}
			if gotT[rk] < c {
				t.Fatalf("P=%d: transpose missing edge %v", p, rk)
			}
		}
	}
}

func compactRemap(g *graph.EdgeList) []uint32 {
	out := make([]uint32, g.NumVertices)
	in := make([]uint32, g.NumVertices)
	for _, e := range g.Edges {
		out[e.Src]++
		in[e.Dst]++
	}
	remap := make([]uint32, g.NumVertices)
	var next uint32
	for v := uint32(0); v < g.NumVertices; v++ {
		if out[v] == 0 && in[v] == 0 {
			remap[v] = ^uint32(0)
			continue
		}
		remap[v] = next
		next++
	}
	return remap
}

func TestIsolatedVerticesDropped(t *testing.T) {
	g := &graph.EdgeList{NumVertices: 100, Edges: []graph.Edge{
		{Src: 10, Dst: 20}, {Src: 20, Dst: 99},
	}}
	res := build(t, g, preprocess.Options{Name: "t", P: 1})
	if res.NumVertices != 3 {
		t.Fatalf("n = %d, want 3", res.NumVertices)
	}
	if res.DroppedVertices != 97 {
		t.Fatalf("dropped = %d, want 97", res.DroppedVertices)
	}
	ids, err := res.Store.IDMap()
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 10 || ids[1] != 20 || ids[2] != 99 {
		t.Fatalf("idmap: %v", ids)
	}
}

func TestFromIndexEdgesSparse(t *testing.T) {
	disk := diskio.MustNew(t.TempDir(), diskio.Unthrottled)
	edges := []graph.IndexEdge{
		{Src: 1_000_000_000_000, Dst: 5, Weight: 2},
		{Src: 5, Dst: 7, Weight: 1},
		{Src: 7, Dst: 1_000_000_000_000, Weight: 3},
	}
	res, err := preprocess.FromIndexEdges(disk, "st", edges, preprocess.Options{
		Name: "sparse", P: 2, Weighted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Store.Close()
	if res.NumVertices != 3 {
		t.Fatalf("n = %d", res.NumVertices)
	}
	ids, _ := res.Store.IDMap()
	if ids[0] != 5 || ids[1] != 7 || ids[2] != 1_000_000_000_000 {
		t.Fatalf("idmap: %v", ids)
	}
	out, in, _ := res.Store.Degrees()
	if out[2] != 1 || in[2] != 1 {
		t.Fatalf("degrees of big index: %v %v", out, in)
	}
}

func TestDegreesMatchGraph(t *testing.T) {
	g, _ := gen.Uniform(200, 2000, 4)
	res := build(t, g, preprocess.Options{Name: "t", P: 4})
	out, in, err := res.Store.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	remap := compactRemap(g)
	wantOut := make([]uint32, res.NumVertices)
	wantIn := make([]uint32, res.NumVertices)
	for _, e := range g.Edges {
		wantOut[remap[e.Src]]++
		wantIn[remap[e.Dst]]++
	}
	for v := range out {
		if out[v] != wantOut[v] || in[v] != wantIn[v] {
			t.Fatalf("vertex %d degrees %d/%d, want %d/%d", v, out[v], in[v], wantOut[v], wantIn[v])
		}
	}
}

func TestErrors(t *testing.T) {
	disk := diskio.MustNew(t.TempDir(), diskio.Unthrottled)
	if _, err := preprocess.FromEdgeList(disk, "st", &graph.EdgeList{NumVertices: 5}, preprocess.Options{P: 2}); err == nil {
		t.Fatal("empty edge set accepted")
	}
	g := &graph.EdgeList{NumVertices: 2, Edges: []graph.Edge{{Src: 0, Dst: 1}}}
	if _, err := preprocess.FromEdgeList(disk, "st", g, preprocess.Options{P: 0}); err == nil {
		t.Fatal("P=0 accepted")
	}
	if _, err := preprocess.FromEdgeList(disk, "st", g, preprocess.Options{P: 10}); err == nil {
		t.Fatal("P > n accepted")
	}
	bad := &graph.EdgeList{NumVertices: 1, Edges: []graph.Edge{{Src: 0, Dst: 5}}}
	if _, err := preprocess.FromEdgeList(disk, "st", bad, preprocess.Options{P: 1}); err == nil {
		t.Fatal("invalid edge accepted")
	}
}

// TestStoreBytesIndependentOfEdgeOrder builds weighted RMAT graphs, whose
// parallel edges carry different weights, from their edge list and from
// the reversed list: the shard files must match byte for byte, so a store
// (and a compaction rebuild) is a function of its edge multiset alone.
func TestStoreBytesIndependentOfEdgeOrder(t *testing.T) {
	read := func(res *preprocess.Result, file string) []byte {
		b, err := os.ReadFile(res.Store.Disk().Path(filepath.Join(res.Store.Dir(), file)))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for seed := int64(1); seed <= 10; seed++ {
		cfg := gen.DefaultRMAT(10, 8, seed)
		cfg.Weighted = true
		g, err := gen.RMAT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rev := &graph.EdgeList{NumVertices: g.NumVertices, Weighted: true,
			Edges: slices.Clone(g.Edges)}
		slices.Reverse(rev.Edges)
		opt := preprocess.Options{Name: "w", P: 4, Weighted: true, Transpose: true}
		a := build(t, g, opt)
		b := build(t, rev, opt)
		for _, f := range []string{storage.ShardsFile, storage.TShardsFile} {
			if !bytes.Equal(read(a, f), read(b, f)) {
				t.Fatalf("seed %d: %s differs between edge orders", seed, f)
			}
		}
	}
}

func TestQuickRandomGraphsRoundTrip(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(10 + rng.Intn(200))
		m := int64(1 + rng.Intn(2000))
		g, err := gen.Uniform(n, m, seed)
		if err != nil {
			return false
		}
		p := 1 + int(pRaw)%8
		// Compaction drops isolated vertices, so a very sparse draw can
		// leave fewer vertices than P; clamp so the legitimate
		// "P exceeds vertex count" rejection doesn't fail the property.
		touched := make(map[uint32]struct{})
		for _, e := range g.Edges {
			touched[e.Src] = struct{}{}
			touched[e.Dst] = struct{}{}
		}
		if p > len(touched) {
			p = len(touched)
		}
		disk := diskio.MustNew(t.TempDir(), diskio.Unthrottled)
		res, err := preprocess.FromEdgeList(disk, "st", g, preprocess.Options{Name: "q", P: p})
		if err != nil {
			return false
		}
		defer res.Store.Close()
		var edges int64
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				ss, err := res.Store.ReadSubShard(i, j, false)
				if err != nil {
					return false
				}
				edges += int64(ss.NumEdges())
			}
		}
		return edges == int64(len(g.Edges))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
