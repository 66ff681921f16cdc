// Package gen produces the synthetic graphs used throughout the test and
// benchmark suites.
//
// The paper evaluates on three real-world graphs (LiveJournal, Twitter,
// Yahoo-web) and five synthetic Delaunay graphs (delaunay_n20..n24 from the
// DIMACS collection). Neither the real crawls nor the DIMACS files are
// available offline, so this package substitutes:
//
//   - RMAT: a recursive-matrix (Kronecker) generator with the classic
//     (a,b,c) = (0.57, 0.19, 0.19) skew, which reproduces the heavy-tailed
//     degree distributions of social/web graphs. Presets scale the paper's
//     graphs down by a configurable factor while preserving the
//     edges-per-vertex ratio.
//   - Mesh: a triangulated grid with randomly-oriented diagonals and a
//     shuffled vertex numbering — a planar, bounded-degree, high-diameter
//     stand-in for the Delaunay family (average degree ≈ 6 in both).
//   - Uniform: an Erdős–Rényi G(n, m) sampler for unbiased property tests.
//
// All generators are deterministic given a seed.
package gen

import (
	"fmt"
	"math/rand"

	"nxgraph/internal/graph"
)

// RMATConfig parameterizes the recursive-matrix generator.
type RMATConfig struct {
	// Scale is log2 of the number of vertices.
	Scale int
	// EdgeFactor is the number of edges per vertex.
	EdgeFactor int
	// A, B, C are the recursive quadrant probabilities; D = 1-A-B-C.
	A, B, C float64
	// Seed drives the deterministic PRNG.
	Seed int64
	// Weighted assigns uniform random weights in (0, 1].
	Weighted bool
}

// DefaultRMAT returns the Graph500-style parameters used for the paper's
// social/web graph stand-ins.
func DefaultRMAT(scale, edgeFactor int, seed int64) RMATConfig {
	return RMATConfig{Scale: scale, EdgeFactor: edgeFactor,
		A: 0.57, B: 0.19, C: 0.19, Seed: seed}
}

// RMAT generates a directed power-law graph. Self-loops are permitted, as
// they are in real crawls; duplicate edges are not removed (the
// preprocessor handles them).
func RMAT(cfg RMATConfig) (*graph.EdgeList, error) {
	if cfg.Scale < 1 || cfg.Scale > 30 {
		return nil, fmt.Errorf("gen: rmat scale %d out of range [1,30]", cfg.Scale)
	}
	if cfg.EdgeFactor < 1 {
		return nil, fmt.Errorf("gen: rmat edge factor %d < 1", cfg.EdgeFactor)
	}
	if cfg.A <= 0 || cfg.B < 0 || cfg.C < 0 || cfg.A+cfg.B+cfg.C >= 1 {
		return nil, fmt.Errorf("gen: rmat probabilities invalid (a=%g b=%g c=%g)",
			cfg.A, cfg.B, cfg.C)
	}
	n := uint32(1) << uint(cfg.Scale)
	m := int64(n) * int64(cfg.EdgeFactor)
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &graph.EdgeList{NumVertices: n, Weighted: cfg.Weighted,
		Edges: make([]graph.Edge, 0, m)}
	ab := cfg.A + cfg.B
	abc := cfg.A + cfg.B + cfg.C
	for i := int64(0); i < m; i++ {
		var src, dst uint32
		for bit := cfg.Scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < cfg.A:
				// top-left: no bits set
			case r < ab:
				dst |= 1 << uint(bit)
			case r < abc:
				src |= 1 << uint(bit)
			default:
				src |= 1 << uint(bit)
				dst |= 1 << uint(bit)
			}
		}
		w := float32(1)
		if cfg.Weighted {
			w = float32(1 - rng.Float64()) // (0, 1]
		}
		g.Edges = append(g.Edges, graph.Edge{Src: src, Dst: dst, Weight: w})
	}
	return g, nil
}

// Mesh generates a triangulated rows×cols grid: each cell contributes its
// two sides plus one randomly-oriented diagonal, and every edge is stored
// in both directions. Vertex numbering is shuffled so interval
// partitioning does not trivially align with grid locality. The result is
// the planar bounded-degree stand-in for the DIMACS delaunay graphs
// (average degree ≈ 6).
func Mesh(rows, cols int, seed int64) (*graph.EdgeList, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("gen: mesh needs rows, cols >= 2 (got %d, %d)", rows, cols)
	}
	if int64(rows)*int64(cols) > int64(1)<<31 {
		return nil, fmt.Errorf("gen: mesh %dx%d too large", rows, cols)
	}
	n := uint32(rows * cols)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(int(n))
	id := func(r, c int) uint32 { return uint32(perm[r*cols+c]) }
	g := &graph.EdgeList{NumVertices: n}
	add := func(u, v uint32) {
		g.Edges = append(g.Edges,
			graph.Edge{Src: u, Dst: v, Weight: 1},
			graph.Edge{Src: v, Dst: u, Weight: 1})
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				add(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				add(id(r, c), id(r+1, c))
			}
			if r+1 < rows && c+1 < cols {
				if rng.Intn(2) == 0 {
					add(id(r, c), id(r+1, c+1))
				} else {
					add(id(r, c+1), id(r+1, c))
				}
			}
		}
	}
	return g, nil
}

// MeshN generates a mesh with approximately 2^scale vertices, mirroring the
// delaunay_n<scale> naming of the DIMACS instances.
func MeshN(scale int, seed int64) (*graph.EdgeList, error) {
	if scale < 2 || scale > 28 {
		return nil, fmt.Errorf("gen: mesh scale %d out of range [2,28]", scale)
	}
	n := 1 << uint(scale)
	rows := 1 << uint(scale/2)
	cols := n / rows
	return Mesh(rows, cols, seed)
}

// Uniform generates an Erdős–Rényi style G(n, m) multigraph with m edges
// sampled uniformly at random.
func Uniform(n uint32, m int64, seed int64) (*graph.EdgeList, error) {
	if n == 0 {
		return nil, fmt.Errorf("gen: uniform needs n > 0")
	}
	rng := rand.New(rand.NewSource(seed))
	g := &graph.EdgeList{NumVertices: n, Edges: make([]graph.Edge, 0, m)}
	for i := int64(0); i < m; i++ {
		g.Edges = append(g.Edges, graph.Edge{
			Src:    uint32(rng.Int63n(int64(n))),
			Dst:    uint32(rng.Int63n(int64(n))),
			Weight: 1,
		})
	}
	return g, nil
}

// Preset identifies a scaled stand-in for one of the paper's datasets.
type Preset struct {
	Name       string
	Kind       string // "rmat" or "mesh"
	Scale      int
	EdgeFactor int
	// PaperVertices / PaperEdges record the size of the original dataset
	// (the scaled graphs the repository actually measures are described
	// in benchmark/README.md).
	PaperVertices int64
	PaperEdges    int64
}

// Presets lists the stand-ins used by the benchmark harness. Scales are
// sized for a small CI machine; the harness can raise them uniformly.
var Presets = map[string]Preset{
	// Live-journal: 4.85M vertices, 69M edges => edge factor ~14.
	"livejournal": {Name: "livejournal", Kind: "rmat", Scale: 16, EdgeFactor: 14,
		PaperVertices: 4_850_000, PaperEdges: 69_000_000},
	// Twitter: 41.7M vertices, 1.47B edges => edge factor ~35.
	"twitter": {Name: "twitter", Kind: "rmat", Scale: 17, EdgeFactor: 35,
		PaperVertices: 41_700_000, PaperEdges: 1_470_000_000},
	// Yahoo-web: 720M vertices, 6.64B edges => edge factor ~9, very
	// vertex-heavy (drives the DPU/MPU paths).
	"yahoo": {Name: "yahoo", Kind: "rmat", Scale: 19, EdgeFactor: 9,
		PaperVertices: 720_000_000, PaperEdges: 6_640_000_000},
	// delaunay_n20..n24 stand-ins.
	"delaunay_n20": {Name: "delaunay_n20", Kind: "mesh", Scale: 14,
		PaperVertices: 1 << 20, PaperEdges: 6_290_000},
	"delaunay_n21": {Name: "delaunay_n21", Kind: "mesh", Scale: 15,
		PaperVertices: 1 << 21, PaperEdges: 12_600_000},
	"delaunay_n22": {Name: "delaunay_n22", Kind: "mesh", Scale: 16,
		PaperVertices: 1 << 22, PaperEdges: 25_200_000},
	"delaunay_n23": {Name: "delaunay_n23", Kind: "mesh", Scale: 17,
		PaperVertices: 1 << 23, PaperEdges: 50_300_000},
	"delaunay_n24": {Name: "delaunay_n24", Kind: "mesh", Scale: 18,
		PaperVertices: 1 << 24, PaperEdges: 101_000_000},
}

// FromPreset generates the named preset graph with an optional scale
// adjustment added to the preset's base scale (negative shrinks).
func FromPreset(name string, scaleDelta int, seed int64) (*graph.EdgeList, error) {
	p, ok := Presets[name]
	if !ok {
		return nil, fmt.Errorf("gen: unknown preset %q", name)
	}
	scale := p.Scale + scaleDelta
	switch p.Kind {
	case "rmat":
		return RMAT(DefaultRMAT(scale, p.EdgeFactor, seed))
	case "mesh":
		return MeshN(scale, seed)
	default:
		return nil, fmt.Errorf("gen: preset %q has unknown kind %q", name, p.Kind)
	}
}
