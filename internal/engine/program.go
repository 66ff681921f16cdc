// Package engine implements the NXgraph computation engine: the update
// model of paper §II-B driven by the three update strategies of §III-B
// (SPU, DPU, MPU) with the fine-grained sub-shard parallelism of §III-D.
package engine

// Program expresses one graph computation in the gather–sum–apply form
// that Algorithm 1's Update(Ij, Ii, SSi.j) decomposes into. For every edge
// (s → t) in an active sub-shard the engine computes
// Gather(attr[s], deg[s], w); contributions to the same destination are
// folded with Sum (which must be associative and commutative with identity
// Zero); at the end of the iteration Apply folds the accumulated value
// into the destination's attribute and reports whether it changed.
//
// The hubs of DPU hold exactly Sum-combined partial aggregates, so a
// single Program definition drives all three update strategies.
//
// Activity: a vertex that changed activates its interval for the next
// iteration; sub-shards whose source interval is inactive are skipped.
// This skipping is sound for monotone programs (BFS, WCC, SCC, SSSP) where
// earlier contributions are already folded into destination attributes.
// Non-monotone programs (PageRank, HITS) must report changed=true until
// they genuinely converge.
type Program interface {
	// Name labels the program in logs and results.
	Name() string
	// Zero is the identity of Sum.
	Zero() float64
	// Init supplies vertex v's initial attribute and activity. Like
	// Gather, Sum and Apply it may be called from several goroutines at
	// once (for distinct vertices).
	Init(v uint32) (attr float64, active bool)
	// Gather computes the contribution of one edge. srcDeg is the
	// source's degree in the traversal direction (out-degree for forward
	// edges, in-degree when traversing the transpose).
	Gather(srcAttr float64, srcDeg uint32, weight float32) float64
	// Sum folds two contributions.
	Sum(a, b float64) float64
	// Apply folds the iteration's accumulated contribution acc into the
	// old attribute, returning the new attribute and whether it changed.
	// acc is Zero when no contribution arrived.
	Apply(v uint32, old, acc float64) (float64, bool)
}

// GlobalAggregator is an optional Program extension for computations that
// need a global reduction over the current attributes before each
// iteration (e.g. PageRank's dangling-vertex mass, HITS' norm). The engine
// computes g = ⊕ AggVertex(v, attr[v], deg[v]) over all vertices and calls
// SetGlobal(g) before any Apply of the iteration. All strategies compute
// the aggregate while attributes stream through memory, so it adds no
// extra disk traffic.
type GlobalAggregator interface {
	AggZero() float64
	AggVertex(v uint32, attr float64, deg uint32) float64
	AggCombine(a, b float64) float64
	SetGlobal(g float64)
}

// DenseApply is an optional marker for programs whose Apply must run for
// every vertex in every iteration even when no contribution arrived (i.e.
// programs violating the default contract Apply(v, old, Zero) == (old,
// false)). Programs with a GlobalAggregator get this behaviour implicitly.
type DenseApply interface {
	DenseApply()
}

// KernelHint names the functional form of a Program's Gather/Sum pair. A
// Run uses the hint its lanes share to select a specialized inner loop
// with no per-edge interface dispatch (the hinted kernel of
// batch_kernels.go, at every width). Each specialized fold performs
// exactly the floating-point operations the declared Gather/Sum would,
// in the same order, so results stay bit-identical to the generic
// interface path; a program must only declare a hint whose form its
// methods — including Zero, the identity of Sum — match exactly. The
// min and max folds (KernelHopMin, DistMin, MinFold, MaxFold) are
// computed with the min/max builtins, which are bit-identical to
// math.Min/math.Max on every non-NaN input, signed zeros and infinities
// included; a NaN attribute yields a NaN, of unspecified payload, where
// math.Min would still let -Inf (math.Max, +Inf) win over it.
type KernelHint int

const (
	// KernelGeneric makes no claim: gathering dispatches through the
	// Program interface per edge.
	KernelGeneric KernelHint = iota
	// KernelRankSum claims Gather(a, deg, w) == a/float64(deg),
	// Sum(x, y) == x+y and Zero == 0 — the PageRank family.
	KernelRankSum
	// KernelHopMin claims Gather(a, deg, w) == a+1,
	// Sum(x, y) == math.Min(x, y) and Zero == +Inf — BFS.
	KernelHopMin
	// KernelDistMin claims Gather(a, deg, w) == a+float64(w),
	// Sum(x, y) == math.Min(x, y) and Zero == +Inf — SSSP.
	KernelDistMin
	// KernelMinFold claims Gather(a, deg, w) == a,
	// Sum(x, y) == math.Min(x, y) and Zero == +Inf — WCC's min-label
	// propagation.
	KernelMinFold
	// KernelMaxFold claims Gather(a, deg, w) == a,
	// Sum(x, y) == math.Max(x, y) and Zero == -Inf — SCC's forward
	// max-coloring.
	KernelMaxFold
	// KernelCountSum claims Gather(a, deg, w) == 1, Sum(x, y) == x+y and
	// Zero == 0 — the live-degree counts of SCC trim and KCore peeling.
	KernelCountSum
	// KernelCopySum claims Gather(a, deg, w) == a, Sum(x, y) == x+y and
	// Zero == 0 — HITS' SpMV half-steps.
	KernelCopySum
)

// FusedKernel is an optional Program extension declaring the kernel
// hint a run of any width may specialize on.
type FusedKernel interface {
	FusedKernelHint() KernelHint
}

// LaneApplier is an optional Program extension that applies a whole
// strided vertex range in one call instead of one Apply call per vertex.
// A Run passes its lane-minor slabs with stride = lane count (stride 1
// for a one-lane run) and off = the lane, and for an interval streamed
// from disk a window of the same stride with the window's base folded
// into off (lane l of a window starting at vertex b uses off = l-b*L).
// curr/next hold the program's state for vertex v at index
// int(v)*stride+off. The implementation must perform, per vertex in
// ascending order, exactly the floating-point operations
// Apply(v, curr[idx], next[idx]) would and store the result in
// next[idx], returning whether any vertex changed — it exists purely to
// eliminate per-vertex interface dispatch, not to change semantics.
type LaneApplier interface {
	ApplyLane(curr, next []float64, stride, off int, v0, v1 uint32) bool
}

// LaneAggregator is an optional GlobalAggregator extension: it computes
// the whole global reduction over one strided attribute lane in a single
// call, used at every width whenever all attributes are memory-resident.
// deg has one entry per vertex; the result must be bit-identical to
// folding AggCombine over AggVertex in ascending vertex order starting
// from AggZero — which is what the engine does for aggregators without
// one, and for this one when intervals stream from disk. The engine still
// calls SetGlobal with the returned value.
type LaneAggregator interface {
	AggLane(curr []float64, stride, off int, deg []uint32) float64
}

// Direction selects which edge orientation a Run traverses.
type Direction int

const (
	// Forward traverses stored edges source→destination.
	Forward Direction = iota
	// Reverse traverses the transposed replica (requires a store built
	// with Transpose).
	Reverse
	// Both traverses forward and reverse edges in every iteration,
	// which makes min/max label propagation treat the graph as
	// undirected (used by WCC).
	Both
)

func (d Direction) String() string {
	switch d {
	case Forward:
		return "forward"
	case Reverse:
		return "reverse"
	case Both:
		return "both"
	}
	return "unknown"
}
