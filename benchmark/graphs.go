package main

import (
	"fmt"
	"math"
	"time"

	nxgraph "nxgraph"
	"nxgraph/internal/graph"
	"nxgraph/internal/refalgo"
)

// builtStore is one preprocessed graph on disk, closed, with the numbers
// the set-up metrics need.
type builtStore struct {
	dir         string
	genS        float64 // nxgraph.Generate
	buildS      float64 // nxgraph.Build
	numVertices uint32
	numEdges    int64
	// storeBytes is the encoded size of every sub-shard, both replicas.
	storeBytes int64
	// writtenBytes is everything Build wrote through diskio.
	writtenBytes int64
	// decodedFwdBytes is what the forward sub-shards occupy once decoded,
	// the unit the block cache budgets; batch-cold gets half of it.
	decodedFwdBytes int64
	// ids maps a dense vertex id to its id in the generated edge list,
	// which is the id space ingest names edges in.
	ids []uint64
	// byOutDegree lists the dense vertex ids, best-connected first.
	byOutDegree []uint32
	// spec regenerates the edge list; see oracleGraph.
	spec nxgraph.GenSpec
}

// baseOptions are the store options every workload shares.
func baseOptions() nxgraph.Options {
	return nxgraph.Options{P: intervals, Threads: threads, Strategy: nxgraph.SPU, Transpose: true}
}

// buildStore generates the workload's RMAT graph from seed and
// preprocesses it into dir. The program under test sees only the
// generated edge list.
func buildStore(wl workload, seed int64, dir string) (*builtStore, error) {
	spec := nxgraph.RMAT(wl.scale, wl.edgeFactor, seed)
	t0 := time.Now()
	g, err := nxgraph.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	t1 := time.Now()
	opt := baseOptions()
	opt.TraceSpans = -1
	gr, err := nxgraph.Build(dir, g, opt)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	t2 := time.Now()
	defer gr.Close()

	st := gr.Engine().Store()
	bs := &builtStore{
		dir:          dir,
		genS:         t1.Sub(t0).Seconds(),
		buildS:       t2.Sub(t1).Seconds(),
		numVertices:  gr.NumVertices(),
		numEdges:     gr.NumEdges(),
		writtenBytes: gr.IOStats().BytesWritten,
		spec:         spec,
	}
	bs.storeBytes, _ = st.CompressionRatio()
	for _, info := range st.Meta().SubShards {
		bs.decodedFwdBytes += (2*info.Dsts + 1 + info.Edges) * 4
	}
	if bs.ids, err = gr.RemapTable(); err != nil {
		return nil, fmt.Errorf("remap table: %w", err)
	}
	out, _, err := gr.Degrees()
	if err != nil {
		return nil, fmt.Errorf("degrees: %w", err)
	}
	bs.byOutDegree = rankByOutDegree(out)
	return bs, nil
}

// oracleGraph is the generated edge list renamed to the store's dense
// ids: the graph the oracle runs on. It is regenerated from the seed on
// each call, outside the measured window, rather than kept: an edge list
// held by the harness would be counted in live_heap_mb as if the program
// under test had allocated it.
func (bs *builtStore) oracleGraph() (*graph.EdgeList, error) {
	g, err := nxgraph.Generate(bs.spec)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	toDense := bs.denseIDs()
	dense := &graph.EdgeList{NumVertices: bs.numVertices, Edges: make([]graph.Edge, len(g.Edges))}
	for i, e := range g.Edges {
		dense.Edges[i] = graph.Edge{Src: toDense[uint64(e.Src)], Dst: toDense[uint64(e.Dst)], Weight: e.Weight}
	}
	return dense, nil
}

// denseIDs inverts ids: generated id → dense id.
func (bs *builtStore) denseIDs() map[uint64]uint32 {
	m := make(map[uint64]uint32, len(bs.ids))
	for d, orig := range bs.ids {
		m[orig] = uint32(d)
	}
	return m
}

// Parameters of the library round, shared by the measured rounds and the
// oracle.
const (
	damping       = 0.85
	pagerankIters = 10
)

// roundResult holds one round's three attribute arrays.
type roundResult struct {
	pagerank, wcc, bfs *nxgraph.Result
}

// checkRound holds one library round against internal/refalgo on the
// dense edge list: PageRank within 1e-9 per vertex and summing to 1, WCC
// and BFS exactly.
func checkRound(t *tally, bs *builtStore, root uint32, r roundResult) error {
	oracle, err := bs.oracleGraph()
	if err != nil {
		return err
	}
	n := int(oracle.NumVertices)
	if len(r.pagerank.Attrs) != n || len(r.wcc.Attrs) != n || len(r.bfs.Attrs) != n {
		t.fail("results cover %d, %d and %d vertices, the graph has %d", len(r.pagerank.Attrs), len(r.wcc.Attrs), len(r.bfs.Attrs), n)
		return nil
	}
	want := refalgo.PageRank(oracle, damping, pagerankIters)
	worst, total := 0.0, 0.0
	for v := 0; v < n; v++ {
		worst = math.Max(worst, math.Abs(r.pagerank.Attrs[v]-want[v]))
		total += r.pagerank.Attrs[v]
	}
	t.check(worst <= 1e-9, "pagerank differs from the oracle by %g", worst)
	t.check(math.Abs(total-1) <= 1e-9, "pagerank sums to %v, not 1", total)

	labels := refalgo.WCC(oracle)
	bad := 0
	for v := 0; v < n; v++ {
		if r.wcc.Attrs[v] != float64(labels[v]) {
			bad++
		}
	}
	t.check(bad == 0, "wcc labels differ from the oracle on %d vertices", bad)

	dist := refalgo.BFS(graph.BuildAdjacency(oracle), root)
	bad = 0
	for v := 0; v < n; v++ {
		got := r.bfs.Attrs[v]
		if dist[v] < 0 && !math.IsInf(got, 1) || dist[v] >= 0 && got != float64(dist[v]) {
			bad++
		}
	}
	t.check(bad == 0, "bfs distances differ from the oracle on %d vertices", bad)
	return nil
}

// sameBits reports whether two attribute arrays are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
