package algorithms

import "nxgraph/internal/engine"

// Exported program constructors. The baseline systems (GraphChi-like,
// TurboGraph-like, GridGraph-like, X-Stream-like) execute the very same
// gather–sum–apply programs as the NXgraph engine, so benchmark
// comparisons measure storage layout and scheduling, not algorithm
// differences.

// NewPageRankProgram returns the PageRank program over n vertices.
func NewPageRankProgram(n uint32, damping float64) engine.Program {
	return &pageRankProg{n: float64(n), damping: damping}
}

// NewPPRProgram returns the personalized PageRank program that teleports
// to root.
func NewPPRProgram(root uint32, damping float64) engine.Program {
	return &pprProg{root: root, damping: damping}
}

// NewBFSProgram returns the minimum-depth BFS program rooted at root.
func NewBFSProgram(root uint32) engine.Program { return &bfsProg{root: root} }

// NewSSSPProgram returns the weighted shortest-path program rooted at
// root.
func NewSSSPProgram(root uint32) engine.Program { return &ssspProg{root: root} }

// NewWCCProgram returns the minimum-label propagation program. On a
// directed store it must run in direction Both; on a symmetrized edge set
// (both orientations materialized) Forward suffices.
func NewWCCProgram() engine.Program { return wccProg{} }
