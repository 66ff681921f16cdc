// Package preprocess implements NXgraph's explicit preprocessing stage
// (paper §III-A): the degreer and the sharder.
//
// The degreer maps raw vertex *indices* (possibly sparse, as found in edge
// list files) to dense *ids* in [0, n), dropping vertices with no incident
// edge — exactly the paper's convention ("# vertices does not include
// isolated vertices"). It also computes in/out degrees and emits the
// id-space edge set (the paper's "pre-shard").
//
// The sharder partitions vertices into P equal-sized intervals and writes
// the DSSS store. Every entry point already holds the whole edge list in
// memory, so the sharder hands that list to storage.BuildSubShards, which
// sorts it in place into the P² destination-sorted sub-shards — the same
// builder the delta overlay uses — and makes a store's bytes a function
// of its edge multiset alone.
package preprocess

import (
	"fmt"
	"sort"

	"nxgraph/internal/diskio"
	"nxgraph/internal/graph"
	"nxgraph/internal/storage"
)

// Options configures preprocessing.
type Options struct {
	// Name labels the store (informational).
	Name string
	// P is the number of vertex intervals (and per-axis sub-shards).
	P int
	// Weighted retains edge weights in the store.
	Weighted bool
	// Transpose additionally materializes the transposed sub-shard set,
	// needed by algorithms that traverse reverse edges (WCC, SCC, HITS).
	Transpose bool
}

// Result reports what preprocessing produced.
type Result struct {
	Store       *storage.Store
	NumVertices uint32
	NumEdges    int64
	// DroppedVertices counts raw indices that appeared in no edge (they
	// exist only when the caller supplies an explicit universe, e.g. a
	// vertex count larger than the edges touch).
	DroppedVertices int64
}

// Degree maps and degree arrays from the degreer.
type degreeing struct {
	idOf     func(graph.Index) (uint32, bool)
	idMap    []uint64 // id -> original index
	outDeg   []uint32
	inDeg    []uint32
	numVerts uint32
}

// runDegreer builds the dense id space from raw index edges.
func runDegreer(edges []graph.IndexEdge) *degreeing {
	// Collect every endpoint, sort, unique: the rank of an index is its id.
	idx := make([]uint64, 0, 2*len(edges))
	for _, e := range edges {
		idx = append(idx, e.Src, e.Dst)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	uniq := idx[:0]
	var last uint64
	for i, v := range idx {
		if i == 0 || v != last {
			uniq = append(uniq, v)
			last = v
		}
	}
	idMap := make([]uint64, len(uniq))
	copy(idMap, uniq)
	d := &degreeing{
		idMap:    idMap,
		numVerts: uint32(len(idMap)),
		outDeg:   make([]uint32, len(idMap)),
		inDeg:    make([]uint32, len(idMap)),
	}
	d.idOf = func(x graph.Index) (uint32, bool) {
		k := sort.Search(len(idMap), func(i int) bool { return idMap[i] >= x })
		if k < len(idMap) && idMap[k] == x {
			return uint32(k), true
		}
		return 0, false
	}
	for _, e := range edges {
		s, _ := d.idOf(e.Src)
		t, _ := d.idOf(e.Dst)
		d.outDeg[s]++
		d.inDeg[t]++
	}
	return d
}

// FromIndexEdges preprocesses a raw edge list (sparse indices) into a DSSS
// store at dir on disk.
func FromIndexEdges(disk *diskio.Disk, dir string, edges []graph.IndexEdge, opt Options) (*Result, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("preprocess: empty edge set")
	}
	d := runDegreer(edges)
	dense := make([]graph.Edge, len(edges))
	for i, e := range edges {
		s, _ := d.idOf(e.Src)
		t, _ := d.idOf(e.Dst)
		dense[i] = graph.Edge{Src: s, Dst: t, Weight: e.Weight}
	}
	return shard(disk, dir, dense, d, opt)
}

// FromEdgeList preprocesses an in-memory dense edge list. Isolated
// vertices (ids with no incident edge) are dropped and the remaining ids
// compacted, matching the degreer's behaviour on raw input.
func FromEdgeList(disk *diskio.Disk, dir string, g *graph.EdgeList, opt Options) (*Result, error) {
	if len(g.Edges) == 0 {
		return nil, fmt.Errorf("preprocess: empty edge set")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// Degree in original id space, then compact.
	out := make([]uint32, g.NumVertices)
	in := make([]uint32, g.NumVertices)
	for _, e := range g.Edges {
		out[e.Src]++
		in[e.Dst]++
	}
	remap := make([]uint32, g.NumVertices)
	idMap := make([]uint64, 0, g.NumVertices)
	var next uint32
	for v := uint32(0); v < g.NumVertices; v++ {
		if out[v] == 0 && in[v] == 0 {
			remap[v] = ^uint32(0)
			continue
		}
		remap[v] = next
		idMap = append(idMap, uint64(v))
		next++
	}
	d := &degreeing{
		idMap:    idMap,
		numVerts: next,
		outDeg:   make([]uint32, next),
		inDeg:    make([]uint32, next),
	}
	dense := make([]graph.Edge, len(g.Edges))
	for i, e := range g.Edges {
		s, t := remap[e.Src], remap[e.Dst]
		dense[i] = graph.Edge{Src: s, Dst: t, Weight: e.Weight}
		d.outDeg[s]++
		d.inDeg[t]++
	}
	res, err := shard(disk, dir, dense, d, opt)
	if err != nil {
		return nil, err
	}
	res.DroppedVertices = int64(g.NumVertices) - int64(next)
	return res, nil
}

// shard writes the store: degrees, id map, and the sub-shards that
// storage.BuildSubShards cuts from dense, then from the reversed edges
// for the transposed replica. It owns dense: the slice is sorted and
// reversed in place.
func shard(disk *diskio.Disk, dir string, dense []graph.Edge, d *degreeing, opt Options) (*Result, error) {
	if opt.P <= 0 {
		return nil, fmt.Errorf("preprocess: P must be positive, got %d", opt.P)
	}
	n := d.numVerts
	P := opt.P
	if uint32(P) > n {
		return nil, fmt.Errorf("preprocess: P=%d exceeds vertex count %d", P, n)
	}
	size := (n + uint32(P) - 1) / uint32(P)
	w, err := storage.NewWriter(disk, dir, opt.Name, n, int64(len(dense)), P, opt.Weighted)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			w.Abort()
		}
	}()
	if err := w.WriteDegrees(d.outDeg, d.inDeg); err != nil {
		return nil, err
	}
	if err := w.WriteIDMap(d.idMap); err != nil {
		return nil, err
	}
	appendCell := func(_ int, ss *storage.SubShard) error {
		return w.AppendSubShard(ss)
	}
	if err := storage.BuildSubShards(dense, size, P, opt.Weighted, appendCell); err != nil {
		return nil, err
	}
	if opt.Transpose {
		if err := w.BeginTranspose(); err != nil {
			return nil, err
		}
		for i, e := range dense {
			dense[i] = graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight}
		}
		if err := storage.BuildSubShards(dense, size, P, opt.Weighted, appendCell); err != nil {
			return nil, err
		}
	}
	if err := w.Finish(); err != nil {
		return nil, err
	}
	st, err := storage.Open(disk, dir)
	if err != nil {
		return nil, err
	}
	ok = true
	return &Result{Store: st, NumVertices: n, NumEdges: int64(len(dense))}, nil
}
