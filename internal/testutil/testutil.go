// Package testutil provides shared fixtures for the NXgraph test suites:
// compacted graphs, temp-disk stores, and partition comparators.
package testutil

import (
	"testing"

	"nxgraph/internal/diskio"
	"nxgraph/internal/graph"
	"nxgraph/internal/preprocess"
	"nxgraph/internal/storage"
)

// Compact drops isolated vertices from g and renumbers the rest densely —
// the same transformation the degreer applies — so oracle results computed
// on the returned graph align index-by-index with engine results.
func Compact(g *graph.EdgeList) *graph.EdgeList {
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
	c := &graph.EdgeList{NumVertices: next, Weighted: g.Weighted,
		Edges: make([]graph.Edge, len(g.Edges))}
	for i, e := range g.Edges {
		c.Edges[i] = graph.Edge{Src: remap[e.Src], Dst: remap[e.Dst], Weight: e.Weight}
	}
	return c
}

// StoreOptions configures BuildStore.
type StoreOptions struct {
	P         int
	Weighted  bool
	Transpose bool
	Profile   diskio.Profile
}

// BuildStore preprocesses g into a store on a fresh temp disk. It returns
// the store and the compacted oracle graph. The store is closed and the
// disk removed by t.Cleanup.
func BuildStore(t testing.TB, g *graph.EdgeList, opt StoreOptions) (*storage.Store, *graph.EdgeList) {
	t.Helper()
	if opt.P == 0 {
		opt.P = 4
	}
	if opt.Profile.Name == "" {
		opt.Profile = diskio.Unthrottled
	}
	disk, err := diskio.New(t.TempDir(), opt.Profile)
	if err != nil {
		t.Fatalf("create disk: %v", err)
	}
	res, err := preprocess.FromEdgeList(disk, "store", g, preprocess.Options{
		Name:      "test",
		P:         opt.P,
		Weighted:  opt.Weighted,
		Transpose: opt.Transpose,
	})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	t.Cleanup(func() { res.Store.Close() })
	compact := Compact(g)
	if compact.NumVertices != res.NumVertices {
		t.Fatalf("compacted oracle has %d vertices, store has %d",
			compact.NumVertices, res.NumVertices)
	}
	return res.Store, compact
}

// SamePartition verifies two labelings induce the same partition of
// [0, n), i.e. a[i]==a[j] ⟺ b[i]==b[j], without requiring equal label
// values.
func SamePartition(t testing.TB, a, b []uint32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("label slices differ in length: %d vs %d", len(a), len(b))
	}
	fwd := make(map[uint32]uint32)
	rev := make(map[uint32]uint32)
	for i := range a {
		if want, ok := fwd[a[i]]; ok {
			if want != b[i] {
				t.Fatalf("vertex %d: label %d maps to both %d and %d", i, a[i], want, b[i])
			}
		} else {
			fwd[a[i]] = b[i]
		}
		if want, ok := rev[b[i]]; ok {
			if want != a[i] {
				t.Fatalf("vertex %d: label %d maps back to both %d and %d", i, b[i], want, a[i])
			}
		} else {
			rev[b[i]] = a[i]
		}
	}
}

// BaseEdgesByCell samples real edges of the store's forward replica for
// removal fixtures: up to perCell edges from every cell (indexed
// i*P+j), on distinct destinations spread evenly over the cell, as
// original-index (src, dst) pairs. Distinct destinations make the pairs
// distinct, so each one is a removal that kills at least one base copy.
func BaseEdgesByCell(t testing.TB, st *storage.Store, perCell int) [][][2]uint64 {
	t.Helper()
	ids, err := st.IDMap()
	if err != nil {
		t.Fatalf("id map: %v", err)
	}
	P := st.Meta().P
	cells := make([][][2]uint64, P*P)
	for ci := range cells {
		ss, err := st.ReadSubShard(ci/P, ci%P, false)
		if err != nil {
			t.Fatalf("read SS[%d][%d]: %v", ci/P, ci%P, err)
		}
		n := min(perCell, ss.NumDsts())
		for x := 0; x < n; x++ {
			k := x * ss.NumDsts() / n
			cells[ci] = append(cells[ci], [2]uint64{ids[ss.Srcs[ss.Offsets[k]]], ids[ss.Dsts[k]]})
		}
	}
	return cells
}
