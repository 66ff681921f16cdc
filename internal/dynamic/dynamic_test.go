package dynamic_test

import (
	"context"
	"math"
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/diskio"
	"nxgraph/internal/dynamic"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/graph"
	"nxgraph/internal/preprocess"
	"nxgraph/internal/refalgo"
	"nxgraph/internal/storage"
	"nxgraph/internal/testutil"
)

// pagerankOf runs PageRank on a store and returns ranks keyed by
// original index (stable across rebuilds).
func pagerankOf(t *testing.T, st *storage.Store) map[uint64]float64 {
	t.Helper()
	e, err := engine.New(st, engine.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := algorithms.PageRank(e, 0.85, 8)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := st.IDMap()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]float64, len(ids))
	for v, r := range res.Attrs {
		out[ids[v]] = r
	}
	return out
}

// rebuild folds every op logged so far into a fresh store at dir — a
// compaction of the whole log.
func rebuild(t *testing.T, l *dynamic.DeltaLog, disk *diskio.Disk, dir string, p int) *preprocess.Result {
	t.Helper()
	res, err := l.Rebuild(context.Background(), l.Checkpoint(), disk, dir, preprocess.Options{Name: dir, P: p})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { res.Store.Close() })
	return res
}

// newLog opens an empty delta log over st.
func newLog(t *testing.T, st *storage.Store) *dynamic.DeltaLog {
	t.Helper()
	l, err := dynamic.NewDeltaLog(st)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAddEdgesMatchesFromScratch(t *testing.T) {
	base, _ := gen.RMAT(gen.DefaultRMAT(8, 6, 13))
	st, _ := testutil.BuildStore(t, base, testutil.StoreOptions{P: 4})
	l := newLog(t, st)
	// New edges, including a brand-new vertex (index 1<<20).
	extra := []graph.IndexEdge{
		{Src: 1, Dst: 2, Weight: 1},
		{Src: 1 << 20, Dst: 0, Weight: 1},
		{Src: 0, Dst: 1 << 20, Weight: 1},
	}
	for _, e := range extra {
		l.Add(e.Src, e.Dst, e.Weight)
	}
	if l.Pending() != len(extra) {
		t.Fatalf("pending = %d", l.Pending())
	}
	disk := diskio.MustNew(t.TempDir(), diskio.Unthrottled)
	res := rebuild(t, l, disk, "v2", 4)
	if res.NumEdges != st.Meta().NumEdges+int64(len(extra)) {
		t.Fatalf("merged edges %d, want %d", res.NumEdges, st.Meta().NumEdges+3)
	}

	// Ground truth: preprocess the union from scratch.
	var union []graph.IndexEdge
	if err := st.ForEachEdge(func(s, d uint32, w float32) error {
		ids, _ := st.IDMap()
		union = append(union, graph.IndexEdge{Src: ids[s], Dst: ids[d], Weight: w})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	union = append(union, extra...)
	disk2 := diskio.MustNew(t.TempDir(), diskio.Unthrottled)
	want, err := preprocess.FromIndexEdges(disk2, "w", union, preprocess.Options{Name: "w", P: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer want.Store.Close()

	got := pagerankOf(t, res.Store)
	exp := pagerankOf(t, want.Store)
	if len(got) != len(exp) {
		t.Fatalf("vertex sets differ: %d vs %d", len(got), len(exp))
	}
	for idx, r := range exp {
		if math.Abs(got[idx]-r) > 1e-12 {
			t.Fatalf("index %d: rank %v, want %v", idx, got[idx], r)
		}
	}
}

// TestRemoveEdgeSemantics: a removal kills every copy of a doubled edge,
// and an insertion logged after the removal survives it as one copy.
func TestRemoveEdgeSemantics(t *testing.T) {
	// Graph with a doubled edge 0->1 and single 1->2, 2->0.
	g := &graph.EdgeList{NumVertices: 3, Edges: []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
	}}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 2})
	disk := diskio.MustNew(t.TempDir(), diskio.Unthrottled)

	l := newLog(t, st)
	l.Remove(0, 1)
	if res := rebuild(t, l, disk, "v2", 2); res.NumEdges != 2 {
		t.Fatalf("edges after removing a doubled edge: %d, want 2", res.NumEdges)
	}

	l2 := newLog(t, st)
	l2.Remove(0, 1)
	l2.Add(0, 1, 1)
	if res := rebuild(t, l2, disk, "v3", 2); res.NumEdges != 3 {
		t.Fatalf("edges after remove-then-re-add: %d, want 3", res.NumEdges)
	}
}

func TestRemovalAppliesToPendingAdds(t *testing.T) {
	g := &graph.EdgeList{NumVertices: 2, Edges: []graph.Edge{{Src: 0, Dst: 1}}}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 1})
	l := newLog(t, st)
	l.Add(1, 0, 1)
	l.Remove(1, 0) // cancels the pending add
	disk := diskio.MustNew(t.TempDir(), diskio.Unthrottled)
	if res := rebuild(t, l, disk, "v2", 1); res.NumEdges != 1 {
		t.Fatalf("edges %d, want 1", res.NumEdges)
	}
}

func TestRebuildEmptyFails(t *testing.T) {
	g := &graph.EdgeList{NumVertices: 2, Edges: []graph.Edge{{Src: 0, Dst: 1}}}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 1})
	l := newLog(t, st)
	l.Remove(0, 1)
	disk := diskio.MustNew(t.TempDir(), diskio.Unthrottled)
	if _, err := l.Rebuild(context.Background(), l.Checkpoint(), disk, "v2", preprocess.Options{Name: "v2", P: 1}); err == nil {
		t.Fatal("empty rebuild accepted")
	}
}

func TestIncrementalBFSScenario(t *testing.T) {
	// A disconnected pair of cliques; adding a bridge must change
	// reachability, matching an oracle on the edited graph.
	mk := func(base uint32) []graph.Edge {
		var es []graph.Edge
		for a := uint32(0); a < 5; a++ {
			for b := uint32(0); b < 5; b++ {
				if a != b {
					es = append(es, graph.Edge{Src: base + a, Dst: base + b})
				}
			}
		}
		return es
	}
	g := &graph.EdgeList{NumVertices: 10, Edges: append(mk(0), mk(5)...)}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 2})
	l := newLog(t, st)
	l.Add(0, 5, 1)
	disk := diskio.MustNew(t.TempDir(), diskio.Unthrottled)
	res := rebuild(t, l, disk, "v2", 2)
	e, err := engine.New(res.Store, engine.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := algorithms.BFS(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	edited := &graph.EdgeList{NumVertices: 10,
		Edges: append(append([]graph.Edge(nil), g.Edges...), graph.Edge{Src: 0, Dst: 5})}
	want := refalgo.BFS(graph.BuildAdjacency(edited), 0)
	for v := range want {
		got := int64(-1)
		if !math.IsInf(bfs.Attrs[v], 1) {
			got = int64(bfs.Attrs[v])
		}
		if got != want[v] {
			t.Fatalf("vertex %d: depth %d, want %d", v, got, want[v])
		}
	}
}
