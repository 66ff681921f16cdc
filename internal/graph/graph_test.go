package graph

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func small() *EdgeList {
	// The paper's Figure 1 example graph (7 vertices).
	return &EdgeList{NumVertices: 7, Edges: []Edge{
		{Src: 1, Dst: 2}, {Src: 0, Dst: 3}, {Src: 1, Dst: 3},
		{Src: 3, Dst: 2}, {Src: 5, Dst: 2}, {Src: 4, Dst: 3}, {Src: 5, Dst: 3},
		{Src: 3, Dst: 0}, {Src: 2, Dst: 1}, {Src: 3, Dst: 1}, {Src: 4, Dst: 1},
		{Src: 6, Dst: 1}, {Src: 1, Dst: 4}, {Src: 0, Dst: 5}, {Src: 3, Dst: 4},
		{Src: 3, Dst: 5}, {Src: 5, Dst: 4}, {Src: 4, Dst: 5}, {Src: 6, Dst: 4},
		{Src: 0, Dst: 6}, {Src: 4, Dst: 6},
	}}
}

func TestDegrees(t *testing.T) {
	g := small()
	out := g.OutDegrees()
	in := g.InDegrees()
	var sumOut, sumIn uint32
	for v := range out {
		sumOut += out[v]
		sumIn += in[v]
	}
	if int(sumOut) != len(g.Edges) || int(sumIn) != len(g.Edges) {
		t.Fatalf("degree sums %d/%d, want %d", sumOut, sumIn, len(g.Edges))
	}
	if out[3] != 5 { // vertex 3 has out-edges to 2,0,1,4,5
		t.Fatalf("out[3] = %d, want 5", out[3])
	}
}

func TestValidate(t *testing.T) {
	g := small()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &EdgeList{NumVertices: 3, Edges: []Edge{{Src: 0, Dst: 3}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestTransposeInvolution(t *testing.T) {
	g := small()
	tt := g.Transpose().Transpose()
	if len(tt.Edges) != len(g.Edges) {
		t.Fatal("edge count changed")
	}
	for i := range g.Edges {
		if tt.Edges[i] != g.Edges[i] {
			t.Fatalf("edge %d changed: %v vs %v", i, tt.Edges[i], g.Edges[i])
		}
	}
}

func TestSymmetrizeDoubles(t *testing.T) {
	g := small()
	s := g.Symmetrize()
	if len(s.Edges) != 2*len(g.Edges) {
		t.Fatalf("symmetrize: %d edges, want %d", len(s.Edges), 2*len(g.Edges))
	}
	out := s.OutDegrees()
	in := s.InDegrees()
	for v := range out {
		if out[v] != in[v] {
			t.Fatalf("vertex %d: out %d != in %d after symmetrize", v, out[v], in[v])
		}
	}
}

func TestBuildAdjacency(t *testing.T) {
	g := small()
	a := BuildAdjacency(g)
	if a.Offsets[g.NumVertices] != int64(len(g.Edges)) {
		t.Fatalf("CSR holds %d edges, want %d", a.Offsets[g.NumVertices], len(g.Edges))
	}
	out := g.OutDegrees()
	for v := uint32(0); v < g.NumVertices; v++ {
		nb := a.Out(v)
		if len(nb) != int(out[v]) {
			t.Fatalf("vertex %d: %d neighbors, want %d", v, len(nb), out[v])
		}
		for i := 1; i < len(nb); i++ {
			if nb[i-1] > nb[i] {
				t.Fatalf("vertex %d neighbors unsorted: %v", v, nb)
			}
		}
	}
	if a.OutWeights(0) != nil {
		t.Fatal("unweighted graph should have nil weights")
	}
}

func TestBuildAdjacencyWeighted(t *testing.T) {
	g := &EdgeList{NumVertices: 3, Weighted: true, Edges: []Edge{
		{Src: 0, Dst: 2, Weight: 2.5}, {Src: 0, Dst: 1, Weight: 1.5},
	}}
	a := BuildAdjacency(g)
	nb, ws := a.Out(0), a.OutWeights(0)
	if nb[0] != 1 || nb[1] != 2 {
		t.Fatalf("neighbors %v", nb)
	}
	if ws[0] != 1.5 || ws[1] != 2.5 {
		t.Fatalf("weights %v did not follow the neighbor sort", ws)
	}
}

func TestParseEdgeText(t *testing.T) {
	in := `# comment
% another comment

1 2
300 4 0.5
7	9
`
	edges, err := ParseEdgeText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 3 {
		t.Fatalf("parsed %d edges, want 3", len(edges))
	}
	if edges[0] != (IndexEdge{Src: 1, Dst: 2, Weight: 1}) {
		t.Fatalf("edge 0: %+v", edges[0])
	}
	if edges[1] != (IndexEdge{Src: 300, Dst: 4, Weight: 0.5}) {
		t.Fatalf("edge 1: %+v", edges[1])
	}
}

func TestParseEdgeTextErrors(t *testing.T) {
	for _, in := range []string{"1\n", "a b\n", "1 b\n", "1 2 zz\n",
		"0 1 NaN\n", "0 1 inf\n", "0 1 -Inf\n", "0 1 -2\n"} {
		_, err := ParseEdgeText(strings.NewReader("# header\n" + in))
		if err == nil {
			t.Fatalf("input %q should fail", in)
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("input %q: error %q does not name line 2", in, err)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	f := func(pairs []uint32, weighted bool) bool {
		var edges []IndexEdge
		rng := rand.New(rand.NewSource(int64(len(pairs))))
		for i := 0; i+1 < len(pairs); i += 2 {
			e := IndexEdge{Src: uint64(pairs[i]), Dst: uint64(pairs[i+1]), Weight: 1}
			if weighted {
				e.Weight = float32(rng.Intn(1000)) / 16 // exactly representable
			}
			edges = append(edges, e)
		}
		var buf bytes.Buffer
		if err := WriteEdgeText(&buf, edges, weighted); err != nil {
			return false
		}
		got, err := ParseEdgeText(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(edges) {
			return false
		}
		for i := range edges {
			if got[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseEdgeText feeds arbitrary text to the edge-list parser: it must
// never panic, and every edge it accepts must survive a WriteEdgeText /
// ParseEdgeText round trip with bit-identical weights.
func FuzzParseEdgeText(f *testing.F) {
	for _, s := range []string{"0 1\n", "# c\n% c\n1 2 0.5\n", "3 4 0\n5 6 -0\n",
		"7 8 1e-45\n", "0 1 NaN\n", "0 1 inf\n", "0 1 -2\n", "18446744073709551615 0 3.4e38\n"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		edges, err := ParseEdgeText(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, e := range edges {
			if w := float64(e.Weight); math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				t.Fatalf("accepted weight %v", e.Weight)
			}
		}
		var buf bytes.Buffer
		if err := WriteEdgeText(&buf, edges, true); err != nil {
			t.Fatal(err)
		}
		got, err := ParseEdgeText(&buf)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", buf.String(), err)
		}
		if len(got) != len(edges) {
			t.Fatalf("round trip: %d edges, want %d", len(got), len(edges))
		}
		for i, e := range edges {
			g := got[i]
			if g.Src != e.Src || g.Dst != e.Dst || math.Float32bits(g.Weight) != math.Float32bits(e.Weight) {
				t.Fatalf("edge %d: %+v round-tripped to %+v", i, e, g)
			}
		}
	})
}
