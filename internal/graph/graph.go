// Package graph defines the basic graph types shared by every NXgraph
// component: vertex ids, edges, in-memory edge lists and adjacency views.
//
// Following the paper (§II-A), a graph G = (V, E) is directed; an
// undirected graph is represented by storing both orientations of every
// edge. Vertex ids are dense uint32 values produced by the degreer
// (internal/preprocess); raw inputs may instead carry sparse "indices",
// which this package models with the wider Index type.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// VertexID is a dense vertex identifier in [0, n).
type VertexID = uint32

// Index is a raw vertex index as it appears in input files. Indices may be
// sparse and need not start at zero; the degreer maps them to dense ids.
type Index = uint64

// Edge is a directed edge from Src to Dst with an optional weight.
type Edge struct {
	Src, Dst VertexID
	Weight   float32
}

// IndexEdge is an edge in raw-input index space.
type IndexEdge struct {
	Src, Dst Index
	Weight   float32
}

// EdgeList is an in-memory directed graph in coordinate form.
type EdgeList struct {
	NumVertices uint32
	Edges       []Edge
	Weighted    bool
}

// NumEdges returns the number of edges.
func (g *EdgeList) NumEdges() int64 { return int64(len(g.Edges)) }

// Validate checks that all endpoints are within [0, NumVertices).
func (g *EdgeList) Validate() error {
	for i, e := range g.Edges {
		if e.Src >= g.NumVertices || e.Dst >= g.NumVertices {
			return fmt.Errorf("graph: edge %d (%d->%d) out of range n=%d",
				i, e.Src, e.Dst, g.NumVertices)
		}
	}
	return nil
}

// OutDegrees returns the out-degree of every vertex.
func (g *EdgeList) OutDegrees() []uint32 {
	deg := make([]uint32, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.Src]++
	}
	return deg
}

// InDegrees returns the in-degree of every vertex.
func (g *EdgeList) InDegrees() []uint32 {
	deg := make([]uint32, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.Dst]++
	}
	return deg
}

// Transpose returns a new EdgeList with every edge reversed.
func (g *EdgeList) Transpose() *EdgeList {
	t := &EdgeList{NumVertices: g.NumVertices, Weighted: g.Weighted,
		Edges: make([]Edge, len(g.Edges))}
	for i, e := range g.Edges {
		t.Edges[i] = Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight}
	}
	return t
}

// Symmetrize returns a new EdgeList containing both orientations of every
// edge (the paper's representation of undirected graphs).
func (g *EdgeList) Symmetrize() *EdgeList {
	s := &EdgeList{NumVertices: g.NumVertices, Weighted: g.Weighted,
		Edges: make([]Edge, 0, 2*len(g.Edges))}
	for _, e := range g.Edges {
		s.Edges = append(s.Edges, e, Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	return s
}

// Adjacency is a CSR (compressed sparse row) view over an edge list, used
// by the in-memory reference algorithms.
type Adjacency struct {
	NumVertices uint32
	Offsets     []int64    // len n+1
	Neighbors   []VertexID // len m
	Weights     []float32  // len m if weighted, else nil
}

// BuildAdjacency builds an out-neighbor CSR from g. Neighbor lists are
// sorted by destination id.
func BuildAdjacency(g *EdgeList) *Adjacency {
	n := g.NumVertices
	a := &Adjacency{NumVertices: n, Offsets: make([]int64, n+1)}
	for _, e := range g.Edges {
		a.Offsets[e.Src+1]++
	}
	for i := uint32(0); i < n; i++ {
		a.Offsets[i+1] += a.Offsets[i]
	}
	a.Neighbors = make([]VertexID, len(g.Edges))
	if g.Weighted {
		a.Weights = make([]float32, len(g.Edges))
	}
	next := make([]int64, n)
	copy(next, a.Offsets[:n])
	for _, e := range g.Edges {
		p := next[e.Src]
		a.Neighbors[p] = e.Dst
		if g.Weighted {
			a.Weights[p] = e.Weight
		}
		next[e.Src]++
	}
	for v := uint32(0); v < n; v++ {
		lo, hi := a.Offsets[v], a.Offsets[v+1]
		nb := a.Neighbors[lo:hi]
		if g.Weighted {
			ws := a.Weights[lo:hi]
			sort.Sort(&nbrWeightSort{nb, ws})
		} else {
			sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		}
	}
	return a
}

type nbrWeightSort struct {
	nb []VertexID
	ws []float32
}

func (s *nbrWeightSort) Len() int           { return len(s.nb) }
func (s *nbrWeightSort) Less(i, j int) bool { return s.nb[i] < s.nb[j] }
func (s *nbrWeightSort) Swap(i, j int) {
	s.nb[i], s.nb[j] = s.nb[j], s.nb[i]
	s.ws[i], s.ws[j] = s.ws[j], s.ws[i]
}

// Out returns v's out-neighbors.
func (a *Adjacency) Out(v VertexID) []VertexID {
	return a.Neighbors[a.Offsets[v]:a.Offsets[v+1]]
}

// OutWeights returns the weights parallel to Out(v); nil for unweighted
// graphs.
func (a *Adjacency) OutWeights(v VertexID) []float32 {
	if a.Weights == nil {
		return nil
	}
	return a.Weights[a.Offsets[v]:a.Offsets[v+1]]
}

// ParseEdgeText reads a whitespace-separated edge-list ("SNAP") text
// stream: one "src dst [weight]" pair per line, '#' or '%' comments
// allowed. A weight must be finite and non-negative; a missing one is 1.
// It returns edges in raw index space.
func ParseEdgeText(r io.Reader) ([]IndexEdge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var edges []IndexEdge
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || s[0] == '#' || s[0] == '%' {
			continue
		}
		fields := strings.Fields(s)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: need at least 2 fields", line)
		}
		src, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src: %w", line, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst: %w", line, err)
		}
		e := IndexEdge{Src: src, Dst: dst, Weight: 1}
		if len(fields) >= 3 {
			w, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %w", line, err)
			}
			// The rule ingest applies: NaN poisons the min and sum folds,
			// and infinite or negative weights mean nothing to the
			// served algorithms.
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return nil, fmt.Errorf("graph: line %d: weight %q must be a finite non-negative number", line, fields[2])
			}
			e.Weight = float32(w)
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan: %w", err)
	}
	return edges, nil
}

// WriteEdgeText writes edges as "src dst" lines (plus weight when w is
// true), the inverse of ParseEdgeText.
func WriteEdgeText(w io.Writer, edges []IndexEdge, weighted bool) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		var err error
		if weighted {
			_, err = fmt.Fprintf(bw, "%d %d %g\n", e.Src, e.Dst, e.Weight)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d\n", e.Src, e.Dst)
		}
		if err != nil {
			return fmt.Errorf("graph: write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flush: %w", err)
	}
	return nil
}
