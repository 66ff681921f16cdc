package storage

import (
	"sync"
	"testing"

	"nxgraph/internal/gen"
	"nxgraph/internal/graph"
)

// rmatCells builds the P² forward sub-shards of the benchmark's graph
// shape — RMAT scale 16 × 16, isolated vertices dropped, ids dense in
// original order, P = 12 equal intervals — without going through
// internal/preprocess, which imports this package. Row-major, nil for an
// empty cell. Built once per test binary.
var rmatCells = sync.OnceValue(func() []*SubShard {
	const P = 12
	g, err := gen.RMAT(gen.DefaultRMAT(16, 16, 7))
	if err != nil {
		panic(err)
	}
	seen := make([]bool, g.NumVertices)
	for _, e := range g.Edges {
		seen[e.Src], seen[e.Dst] = true, true
	}
	remap := make([]uint32, g.NumVertices)
	var n uint32
	for v, ok := range seen {
		if ok {
			remap[v] = n
			n++
		}
	}
	edges := make([]graph.Edge, len(g.Edges))
	for k, e := range g.Edges {
		edges[k] = graph.Edge{Src: remap[e.Src], Dst: remap[e.Dst]}
	}
	cells := make([]*SubShard, P*P)
	err = BuildSubShards(edges, (n+P-1)/P, P, false, func(c int, ss *SubShard) error {
		if ss.NumEdges() > 0 {
			cells[c] = ss
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return cells
})

// rmatCell returns SS[i][j] of rmatCells.
func rmatCell(tb testing.TB, i, j int) *SubShard {
	tb.Helper()
	ss := rmatCells()[i*12+j]
	if ss == nil {
		tb.Fatalf("rmat cell (%d,%d) is empty", i, j)
	}
	return ss
}

// TestVarintLengthMix measures what varint.go's header states: the
// byte-length mix of each stream of a blob over the whole store: the
// gaps within each class's destination list, the last class's counts
// less four, first sources and source gaps. It asserts only the two
// facts the decoder's shape rests on — counts and gaps are short, first
// sources are not.
func TestVarintLengthMix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scale-16 RMAT store")
	}
	var dstGap, count, firstSrc, srcGap [maxUvarint32Len + 1]int
	for _, ss := range rmatCells() {
		if ss == nil {
			continue
		}
		b := ss.Classes()
		for k, d := range ss.Dsts {
			if k > 0 && k != b[1] && k != b[2] && k != b[3] {
				dstGap[len(appendUvarint(nil, d-ss.Dsts[k-1]))]++
			}
			lo, hi := ss.Offsets[k], ss.Offsets[k+1]
			if k >= b[NumClasses-1] {
				count[len(appendUvarint(nil, hi-lo-NumClasses))]++
			}
			firstSrc[len(appendUvarint(nil, ss.Srcs[lo]))]++
			for e := lo + 1; e < hi; e++ {
				srcGap[len(appendUvarint(nil, ss.Srcs[e]-ss.Srcs[e-1]))]++
			}
		}
	}
	share := func(h [maxUvarint32Len + 1]int, n int) float64 {
		total := 0
		for _, c := range h {
			total += c
		}
		return float64(h[n]) / float64(total)
	}
	for _, s := range []struct {
		name string
		h    [maxUvarint32Len + 1]int
	}{{"dst gaps", dstGap}, {"counts", count}, {"first sources", firstSrc}, {"source gaps", srcGap}} {
		t.Logf("%-13s 1B %.3f  2B %.3f  3B %.3f  4B+ %.3f", s.name,
			share(s.h, 1), share(s.h, 2), share(s.h, 3), share(s.h, 4)+share(s.h, 5))
	}
	// The counts are the last class's, less four: 0.984 one byte on
	// this store (all of v2's counts, 0.995).
	if share(count, 1) < 0.98 || share(dstGap, 1) < 0.9 {
		t.Errorf("counts / dst gaps are not overwhelmingly one byte: %.3f / %.3f", share(count, 1), share(dstGap, 1))
	}
	if share(firstSrc, 1) > 0.25 {
		t.Errorf("first sources are one byte %.3f of the time; the inline 2-3 byte cases assume they mostly are not", share(firstSrc, 1))
	}
}
