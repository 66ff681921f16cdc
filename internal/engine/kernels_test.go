package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nxgraph/internal/storage"
)

func TestChunkRanges(t *testing.T) {
	cases := []struct {
		n, size int
		want    []int
	}{
		{0, 16, []int{0}}, // degenerate: zero chunks, canonical single boundary
		{0, 0, []int{0}},
		{5, 16, []int{0, 5}},
		{16, 16, []int{0, 16}}, // exact multiple: no trailing empty chunk
		{32, 16, []int{0, 16, 32}},
		{33, 16, []int{0, 16, 32, 33}},
		{3, 1, []int{0, 1, 2, 3}},
		{4, -1, []int{0, 1, 2, 3, 4}}, // size clamps to 1
	}
	for _, c := range cases {
		got := chunkRanges(c.n, c.size)
		if len(got) != len(c.want) {
			t.Fatalf("chunkRanges(%d, %d) = %v, want %v", c.n, c.size, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("chunkRanges(%d, %d) = %v, want %v", c.n, c.size, got, c.want)
			}
		}
	}
}

func TestEdgeChunkRanges(t *testing.T) {
	// 6 destinations with edge counts 1, 100, 1, 1, 1, 1: with target 8
	// the hub destination must close its chunk alone instead of dragging
	// its neighbours into a 100-edge chunk.
	offsets := []uint32{0, 1, 101, 102, 103, 104, 105}
	got := edgeChunkRanges(offsets, 8)
	if got[0] != 0 || got[len(got)-1] != len(offsets)-1 {
		t.Fatalf("bounds must span [0, n]: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("bounds not strictly increasing: %v", got)
		}
	}
	// Every chunk except the last must have reached the target cost
	// (edges + destinations); no chunk may start inside the hub's edges.
	cost := func(k int) int { return int(offsets[k]) + k }
	for i := 0; i+2 < len(got); i++ {
		if cost(got[i+1])-cost(got[i]) < 8 {
			t.Fatalf("chunk %d under target: %v", i, got)
		}
	}
	// The chunk containing the hub destination (index 1) must close
	// immediately after it — the light destinations behind the hub never
	// serialize behind its edges.
	found := false
	for _, b := range got {
		if b == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no boundary directly after the hub destination: %v", got)
	}

	if got := edgeChunkRanges([]uint32{0}, 8); len(got) != 1 || got[0] != 0 {
		t.Fatalf("empty CSR: %v", got)
	}
	// Uniform destinations pack evenly: 64 dsts x 3 edges, target 16
	// -> every chunk spans 4 destinations (cost 16 each).
	uni := make([]uint32, 65)
	for i := range uni {
		uni[i] = uint32(i * 3)
	}
	got = edgeChunkRanges(uni, 16)
	if len(got) != 17 {
		t.Fatalf("uniform split: got %d chunks, want 16 (%v)", len(got)-1, got)
	}
	for i := 1; i < len(got); i++ {
		if got[i]-got[i-1] != 4 {
			t.Fatalf("uniform chunk width: %v", got)
		}
	}
}

// foldTestProg is a generic Program with pluggable Gather/Sum/Zero — the
// interface-dispatch reference the specialized folds must match
// bit-for-bit.
type foldTestProg struct {
	zero   float64
	gather func(a float64, deg uint32, w float32) float64
	sum    func(a, b float64) float64
}

func (p *foldTestProg) Name() string                  { return "fold-test" }
func (p *foldTestProg) Zero() float64                 { return p.zero }
func (p *foldTestProg) Init(v uint32) (float64, bool) { return 0, true }
func (p *foldTestProg) Gather(a float64, deg uint32, w float32) float64 {
	return p.gather(a, deg, w)
}
func (p *foldTestProg) Sum(a, b float64) float64 { return p.sum(a, b) }
func (p *foldTestProg) Apply(v uint32, old, acc float64) (float64, bool) {
	return acc, true
}

// makeTestSubShard builds a synthetic destination-sorted sub-shard over
// vertices [0, n) with edge counts spread over 0..12 plus one run of 45
// edges, so every unroll arm (0, 1, 2, 3, long) is exercised and the
// min folds' two-accumulator loop runs from 1 to 21 trips, with and
// without a remainder edge.
func makeTestSubShard(rng *rand.Rand, n, numDsts int, weighted bool) *storage.SubShard {
	ss := &storage.SubShard{Offsets: []uint32{0}}
	step := n / numDsts
	if step == 0 {
		step = 1
	}
	for k := 0; k < numDsts; k++ {
		d := uint32(k * step % n)
		e := k % 13 // deterministic spread over the unroll arms
		if k == numDsts/2 {
			e = 45
		}
		for t := 0; t < e; t++ {
			ss.Srcs = append(ss.Srcs, uint32(rng.Intn(n)))
			if weighted {
				ss.Weights = append(ss.Weights, 0.25+rng.Float32())
			}
		}
		ss.Dsts = append(ss.Dsts, d)
		ss.Offsets = append(ss.Offsets, uint32(len(ss.Srcs)))
	}
	return ss
}

// nanFirst makes a NaN operand win outright, as it does in the min and
// max builtins the kernels fold with. math.Min and math.Max differ in
// one corner — Min(NaN, -Inf) is -Inf and Max(NaN, +Inf) is +Inf — so on
// vectors holding NaNs the reference is the documented kernel contract
// (KernelMinFold in program.go), not the bare math function.
func nanFirst(f func(a, b float64) float64) func(a, b float64) float64 {
	return func(a, b float64) float64 {
		if math.IsNaN(a) || math.IsNaN(b) {
			return math.NaN()
		}
		return f(a, b)
	}
}

// kernelCase is one hinted fold and a hint-free Program whose Gather,
// Sum and Zero are the hint's: the reference the fold is held to.
type kernelCase struct {
	name     string
	hint     KernelHint
	prog     *foldTestProg
	weighted bool
}

// kernelCases lists every fold a hint maps to (opFor): sum, min, max,
// hop, and dist on weighted and on unweighted cells. nan selects
// the NaN-first reference for attribute sets that hold NaNs.
func kernelCases(nan bool) []kernelCase {
	add := func(a, b float64) float64 { return a + b }
	min, max := math.Min, math.Max
	if nan {
		min, max = nanFirst(min), nanFirst(max)
	}
	attr := func(a float64, _ uint32, _ float32) float64 { return a }
	hop := func(a float64, _ uint32, _ float32) float64 { return a + 1 }
	dist := func(a float64, _ uint32, w float32) float64 { return a + float64(w) }
	return []kernelCase{
		{"copySum", KernelCopySum, &foldTestProg{0, attr, add}, false},
		{"min", KernelMinFold, &foldTestProg{math.Inf(1), attr, min}, false},
		{"max", KernelMaxFold, &foldTestProg{math.Inf(-1), attr, max}, false},
		{"hopMin", KernelHopMin, &foldTestProg{math.Inf(1), hop, min}, false},
		{"distMin", KernelDistMin, &foldTestProg{math.Inf(1), dist, min}, true},
		{"distMin-unweighted", KernelDistMin, &foldTestProg{math.Inf(1), dist, min}, false},
	}
}

// specialValues is what the min/max folds must agree with math.Min and
// math.Max on beyond ordinary numbers: both zeros (min(-0, +0) is -0),
// both infinities (the folds' own Zero values among them), denormals, and
// NaN, which every fold must propagate as a NaN (assertSameBits accepts
// any payload: the builtins leave it unspecified).
var specialValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030,
	1, -1, 2.5, math.MaxFloat64, -math.MaxFloat64, math.NaN(),
}

// specialAttrs draws n attributes from specialValues, NaN included or
// not.
func specialAttrs(rng *rand.Rand, n int, nan bool) []float64 {
	vals := specialValues
	if !nan {
		vals = vals[:len(vals)-1]
	}
	attrs := make([]float64, n)
	for v := range attrs {
		attrs[v] = vals[rng.Intn(len(vals))]
	}
	return attrs
}

// refRun returns a bare run of the given programs, one lane each, for
// driving its kernels directly: with KernelGeneric its gatherCell is the
// generic lane kernel — the reference every fold is held to — and its
// foldHub folds through the programs' Sum.
func refRun(hint KernelHint, ps ...Program) *Run {
	r := &Run{lanes: make([]lane, len(ps)), zero: ps[0].Zero(), op: opFor(hint)}
	for l, p := range ps {
		r.lanes[l].p = p
	}
	return r
}

var lane0 = []int{0}

// laneRun returns the consecutive lane ids [first, first+n).
func laneRun(first, n int) []int {
	lanes := make([]int, n)
	for x := range lanes {
		lanes[x] = first + x
	}
	return lanes
}

type kernelAttrSet struct {
	name string
	nan  bool
	draw func(n int) []float64
}

// kernelAttrSets are the attribute sets the bit-identity gates draw
// attributes, accumulators and hub partials from: ordinary numbers
// (negative values catch sign bugs), values drawn from specialValues —
// ±0, ±Inf, denormals — without and with NaN, or only ±0, so that many
// short runs hold -0 alone. Every fold must start from Zero like the
// generic one (0 + -0 is +0), and the min and max folds meet the
// kernels' NaN-first contract.
func kernelAttrSets(rng *rand.Rand) []kernelAttrSet {
	return []kernelAttrSet{
		{"normal", false, func(n int) []float64 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = rng.NormFloat64()
			}
			return vals
		}},
		{"special", false, func(n int) []float64 { return specialAttrs(rng, n, false) }},
		{"special+nan", true, func(n int) []float64 { return specialAttrs(rng, n, true) }},
		{"signed-zeros", false, func(n int) []float64 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = specialValues[rng.Intn(2)] // a run of -0s sums to +0 only from Zero
			}
			return vals
		}},
	}
}

// TestScalarKernelsMatchGeneric is the one-lane half of the kernel-level
// bit-identity gate: at width 1, where gatherLanes runs its one-lane
// leaf (foldLane) alone, every hinted fold, through gatherCell and
// through the FromHub fold, must reproduce the generic lane kernel bit
// for bit.
func TestScalarKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, set := range kernelAttrSets(rng) {
		t.Run(set.name, func(t *testing.T) { checkLaneKernels(t, rng, set.nan, set.draw, []int{1}) })
	}
}

// TestLaneKernelsMatchGeneric is the multi-lane half of the gate: it
// runs at widths 2, 3, 4, 5, 8, 12, 13, 14 and 16, so every split of a
// run into four-lane blocks, a padded block of three and one-lane leaves
// is met: for the run's every lane, a consecutive run starting past
// lane 0 and a lane list with gaps; over source and accumulator windows
// whose base is not 0; into the accumulator and into hub entries; on a
// sub-shard whose destinations carry 0 to 12 edges plus runs of 45 and
// 150, listed in id order and in count-class order (the hinted kernels
// fold it in tasks of seven destinations, so task bounds cut classes).
func TestLaneKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, set := range kernelAttrSets(rng) {
		t.Run(set.name, func(t *testing.T) {
			checkLaneKernels(t, rng, set.nan, set.draw, []int{2, 3, 4, 5, 8, 12, 13, 14, 16})
		})
	}
}

func checkLaneKernels(t *testing.T, rng *rand.Rand, nan bool, draw func(n int) []float64, widths []int) {
	const n, base = 96, 40
	deg := make([]uint32, base+n)
	for v := range deg {
		deg[v] = uint32(1 + rng.Intn(5))
	}
	for _, c := range kernelCases(nan) {
		ss := makeTestSubShard(rng, n, 48, c.weighted)
		for e := 0; e < 150; e++ { // one more destination, past any edge block
			ss.Srcs = append(ss.Srcs, uint32(rng.Intn(n)))
			if c.weighted {
				ss.Weights = append(ss.Weights, 0.25+rng.Float32())
			}
		}
		ss.Dsts = append(ss.Dsts, uint32(n-1))
		ss.Offsets = append(ss.Offsets, uint32(len(ss.Srcs)))
		for x := range ss.Srcs {
			ss.Srcs[x] += base
		}
		for x := range ss.Dsts {
			ss.Dsts[x] += base
		}
		for _, cell := range []*storage.SubShard{ss, classOrdered(ss)} {
			checkCellKernels(t, c, cell, deg, draw, widths)
		}
	}
}

// classOrdered returns ss with its destinations in count-class order
// (storage.SubShard), keeping their order within a class: one, two
// and three edges first, then every other count, the empty runs of a
// synthetic cell among them, in the last class.
func classOrdered(ss *storage.SubShard) *storage.SubShard {
	out := &storage.SubShard{Offsets: []uint32{0}}
	if ss.Weights != nil {
		out.Weights = []float32{}
	}
	last := storage.NumClasses - 1
	classOf := func(n uint32) int {
		if n >= 1 && n <= uint32(last) {
			return int(n) - 1
		}
		return last
	}
	for c := range storage.NumClasses {
		for k, d := range ss.Dsts {
			lo, hi := ss.Offsets[k], ss.Offsets[k+1]
			if classOf(hi-lo) != c {
				continue
			}
			out.Dsts = append(out.Dsts, d)
			out.Srcs = append(out.Srcs, ss.Srcs[lo:hi]...)
			if ss.Weights != nil {
				out.Weights = append(out.Weights, ss.Weights[lo:hi]...)
			}
			out.Offsets = append(out.Offsets, uint32(len(out.Srcs)))
		}
		if c < last {
			out.ClassEnds[c] = len(out.Dsts)
		}
	}
	return out
}

// checkCellKernels holds every hinted kernel of case c on cell ss to the
// generic one at the given widths, folding the cell in tasks of seven
// destinations so that task bounds fall inside its count classes.
func checkCellKernels(t *testing.T, c kernelCase, ss *storage.SubShard, deg []uint32, draw func(n int) []float64, widths []int) {
	const n, base, task = 96, 40, 7
	nd := ss.NumDsts()
	tasks := func(r *Run, src, acc view, hub []float64, lanes []int, contig bool) {
		for k0 := 0; k0 < nd; k0 += task {
			r.gatherCell(ss, deg, src, acc, hub, lanes, contig, k0, min(k0+task, nd))
		}
	}
	for _, L := range widths {
		ps := make([]Program, L)
		for l := range ps {
			ps[l] = c.prog
		}
		shapes := [][]int{laneRun(0, L)}
		if L > 1 {
			shapes = append(shapes, laneRun(1, L-1))
		}
		if L > 2 {
			var gapped []int
			for l := 0; l < L; l++ {
				if l%3 != 1 {
					gapped = append(gapped, l)
				}
			}
			shapes = append(shapes, gapped)
		}
		src := view{draw(n * L), base}
		hinted, ref := refRun(c.hint, ps...), refRun(KernelGeneric, ps...)
		for _, lanes := range shapes {
			contig := lanes[len(lanes)-1]-lanes[0] == len(lanes)-1
			name := fmt.Sprintf("%s/L%d/lanes%v", c.name, L, lanes)
			if ss.ClassEnds[0] > 0 {
				name += "/classes"
			}
			accA := draw(n * L)
			accB := slices.Clone(accA)
			ref.gatherCell(ss, deg, src, view{accA, base}, nil, lanes, contig, 0, nd)
			tasks(hinted, src, view{accB, base}, nil, lanes, contig)
			assertSameBits(t, name+"/acc", accA, accB)
			hubA := make([]float64, nd*L)
			hubB := make([]float64, nd*L)
			ref.gatherCell(ss, deg, src, view{}, hubA, lanes, contig, 0, nd)
			tasks(hinted, src, view{}, hubB, lanes, contig)
			assertSameBits(t, name+"/hub", hubA, hubB)
			// FromHub: the op's Sum alone folds the partials.
			hub, accC := draw(nd*L), draw(n*L)
			accD := slices.Clone(accC)
			ref.foldHub(ss.Dsts, hub, view{accC, base}, lanes, 0, nd)
			hinted.foldHub(ss.Dsts, hub, view{accD, base}, lanes, 0, nd)
			assertSameBits(t, name+"/foldHub", accC, accD)
		}
	}
}

func TestOpFor(t *testing.T) {
	for hint, want := range map[KernelHint]laneOp{
		KernelGeneric: opGeneric,
		KernelRankSum: opSum, // division hoisted into the scaled view
		KernelCopySum: opSum,
		KernelMinFold: opMin,
		KernelMaxFold: opMax,
		KernelHopMin:  opHop,
		KernelDistMin: opDist, // opHop on an unweighted cell, inside gatherLanes
	} {
		if got := opFor(hint); got != want {
			t.Errorf("opFor(%v) = %v, want %v", hint, got, want)
		}
	}
}

func assertSameBits(t *testing.T, name string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(want[i]) && math.IsNaN(got[i]) {
			continue // a NaN in, a NaN out; which one is unspecified
		}
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: [%d] = %x (%g), want %x (%g)", name, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// cellRunLengths is the per-destination in-edge count mix measured on
// every cell of a scale-16, P = 12 RMAT store (both replicas agree
// within 0.2 pp): the percentage of destinations with 1..8 in-edges.
// The remaining 12.2 % are long runs (see mixRunLength).
var cellRunLengths = [...]float64{46.5, 16.9, 8.8, 5.5, 3.8, 2.8, 2.0, 1.5}

// mixRunLength draws one destination's in-edge count from that mix.
// Beyond 8 edges the store has 9.3 % of destinations with 9..32 edges
// (23.8 % of the edges, mean 15) and 3.0 % with more than 32 (43.8 %,
// mean 86); both draw from a shifted exponential with that mean.
func mixRunLength(rng *rand.Rand) int {
	u := rng.Float64() * 100
	for i, pct := range cellRunLengths {
		if u < pct {
			return i + 1
		}
		u -= pct
	}
	if u < 9.3 {
		return min(9+int(rng.ExpFloat64()*6), 32)
	}
	return 33 + int(rng.ExpFloat64()*53)
}

// benchSubShard builds a synthetic sub-shard over n source vertices:
// numDsts destinations, each with a sorted in-edge run whose length is
// drawn by mixRunLength.
func benchSubShard(rng *rand.Rand, n, numDsts int) *storage.SubShard {
	ss := &storage.SubShard{Offsets: []uint32{0}}
	for k := 0; k < numDsts; k++ {
		lo := len(ss.Srcs)
		for e := mixRunLength(rng); e > 0; e-- {
			ss.Srcs = append(ss.Srcs, uint32(rng.Intn(n)))
		}
		slices.Sort(ss.Srcs[lo:])
		ss.Dsts = append(ss.Dsts, uint32(k%n))
		ss.Offsets = append(ss.Offsets, uint32(len(ss.Srcs)))
	}
	return ss
}

// BenchmarkGatherKernel times gatherCell, the function a run calls, on
// one sub-shard of 8192 destinations (about 48k edges) with the
// run-length mix of a real cell, in the count-class order of a block
// (storage.SubShard). The generic/ rows run the hint-free kernel at one
// lane. The lane/<op>/L1 rows run every hinted fold at one lane, where
// the one-lane leaf takes the whole run; lane/<op>/L1ids runs it over
// the same cell in id order, as one class that branches on every run's
// length.
// The two fused
// hints' folds — copy-sum (RankSum over a scaled view) and hop-min —
// also run at the widths a fused run meets: L2 is two leaf lanes, L3 one
// four-lane pass padded from three, L12 serve-read's mean fused width
// (about 11.7), L13 those twelve lanes in windows plus one leaf lane,
// L16 every lane in windows, and L16list 12 of 16 lanes through a lane
// list with gaps, the shape of a BFS frontier. It reports ns/edge (all
// lanes of an edge together), the unit of the benchmark ledger's
// engine.gather_self_ns_per_edge. The distMin folds are left out: without
// weights they fold as hopMin, and the weighted fold is covered by
// TestLaneKernelsMatchGeneric.
func BenchmarkGatherKernel(b *testing.B) {
	const n = 1 << 13
	rng := rand.New(rand.NewSource(7))
	ids := benchSubShard(rng, n, n)
	ss := classOrdered(ids)
	deg := make([]uint32, n)
	attrs := make([]float64, n)
	for v := range attrs {
		deg[v] = uint32(1 + rng.Intn(8))
		attrs[v] = rng.Float64()
	}
	edges := float64(ss.NumEdges())
	nsPerEdge := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/edges, "ns/edge")
	}
	acc := make([]float64, n)
	for _, c := range kernelCases(false) {
		if c.hint == KernelDistMin {
			continue
		}
		b.Run("generic/"+c.name, func(b *testing.B) {
			r := refRun(KernelGeneric, c.prog)
			for i := 0; i < b.N; i++ {
				r.gatherCell(ss, deg, view{attrs, 0}, view{acc, 0}, nil, lane0, true, 0, ss.NumDsts())
			}
			nsPerEdge(b)
		})
	}
	for _, sh := range []struct {
		name  string
		L     int
		lanes []int
		cell  *storage.SubShard
	}{
		{"L1", 1, lane0, ss},
		{"L1ids", 1, lane0, ids},
		{"L2", 2, laneRun(0, 2), ss},
		{"L3", 3, laneRun(0, 3), ss},
		{"L12", 12, laneRun(0, 12), ss},
		{"L13", 13, laneRun(0, 13), ss},
		{"L16", 16, laneRun(0, 16), ss},
		{"L16list", 16, []int{0, 1, 2, 4, 5, 6, 8, 9, 11, 12, 14, 15}, ss},
	} {
		L, lanes, cell := sh.L, sh.lanes, sh.cell
		contig := lanes[len(lanes)-1]-lanes[0] == len(lanes)-1
		slab, accL := make([]float64, n*L), make([]float64, n*L)
		for x := range slab {
			slab[x] = attrs[x/L]
		}
		for _, c := range kernelCases(false) {
			if c.hint == KernelDistMin || L > 1 && c.hint != KernelCopySum && c.hint != KernelHopMin {
				continue
			}
			ps := make([]Program, L)
			for l := range ps {
				ps[l] = c.prog
			}
			r := refRun(c.hint, ps...)
			b.Run("lane/"+c.name+"/"+sh.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r.gatherCell(cell, deg, view{slab, 0}, view{accL, 0}, nil, lanes, contig, 0, cell.NumDsts())
				}
				nsPerEdge(b)
			})
		}
	}
}

// minApplyBenchProg is a BFS-style relaxation with a LaneApplier.
type minApplyBenchProg struct{}

func (minApplyBenchProg) Name() string                  { return "min-apply-bench" }
func (minApplyBenchProg) Zero() float64                 { return math.Inf(1) }
func (minApplyBenchProg) Init(v uint32) (float64, bool) { return math.Inf(1), true }
func (minApplyBenchProg) Gather(a float64, _ uint32, _ float32) float64 {
	return a + 1
}
func (minApplyBenchProg) Sum(a, b float64) float64 { return math.Min(a, b) }
func (minApplyBenchProg) Apply(v uint32, old, acc float64) (float64, bool) {
	if acc < old {
		return acc, true
	}
	return old, false
}
func (minApplyBenchProg) ApplyLane(curr, next []float64, stride, off int, v0, v1 uint32) bool {
	changed := false
	for v := v0; v < v1; v++ {
		idx := int(v)*stride + off
		if next[idx] < curr[idx] {
			changed = true
		} else {
			next[idx] = curr[idx]
		}
	}
	return changed
}

// BenchmarkApplyKernel compares the per-vertex interface apply against
// the lane apply over one 256k-vertex range.
func BenchmarkApplyKernel(b *testing.B) {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(9))
	old := make([]float64, n)
	acc := make([]float64, n)
	for v := range old {
		old[v] = rng.Float64()
		acc[v] = rng.Float64()
	}
	p := minApplyBenchProg{}
	b.Run("generic", func(b *testing.B) {
		b.SetBytes(n * 16)
		for i := 0; i < b.N; i++ {
			applyRange(p, old, acc, 1, 0, 0, n)
		}
	})
	b.Run("lane", func(b *testing.B) {
		b.SetBytes(n * 16)
		for i := 0; i < b.N; i++ {
			p.ApplyLane(old, acc, 1, 0, 0, n)
		}
	})
}

// BenchmarkChunkingSkewed demonstrates why chunk boundaries balance
// edges rather than destinations: one hub destination holding half the
// sub-shard's edges serializes its whole destination-count chunk, while
// edge-balanced boundaries isolate it.
func BenchmarkChunkingSkewed(b *testing.B) {
	// Power-law shape: a high-in-degree hub among moderately dense
	// destinations, then a long sparse tail. Destination-count chunks
	// (2048 destinations each) put the hub and every dense destination
	// into one chunk holding ~95% of the edges; edge-balanced chunks
	// split that mass across the pool.
	const n = 1 << 13
	rng := rand.New(rand.NewSource(11))
	ss := &storage.SubShard{Offsets: []uint32{0}}
	edgesOf := func(k int) int {
		switch {
		case k == 0:
			return 1 << 14 // the hub
		case k < 1<<11:
			return 64 // dense neighbourhood
		default:
			return 1 // sparse tail
		}
	}
	for k := 0; k < 1<<12; k++ {
		for t := 0; t < edgesOf(k); t++ {
			ss.Srcs = append(ss.Srcs, uint32(rng.Intn(n)))
		}
		ss.Dsts = append(ss.Dsts, uint32(k))
		ss.Offsets = append(ss.Offsets, uint32(len(ss.Srcs)))
	}
	attrs := make([]float64, n)
	for v := range attrs {
		attrs[v] = rng.Float64()
	}
	src := view{attrs, 0}
	acc := make([]float64, n)
	edges := int64(ss.NumEdges())
	const threads, chunk = 4, 2048

	run := func(b *testing.B, bounds []int) {
		// The largest chunk bounds the critical path: with enough
		// threads, wall-clock cannot drop below maxChunkEdges. Reporting
		// it makes the schedule quality visible even on machines without
		// the cores to show it in ns/op.
		maxEdges := 0
		for c := 0; c+1 < len(bounds); c++ {
			if e := int(ss.Offsets[bounds[c+1]] - ss.Offsets[bounds[c]]); e > maxEdges {
				maxEdges = e
			}
		}
		b.ReportMetric(float64(maxEdges), "maxChunkEdges")
		b.ReportMetric(float64(maxEdges)/float64(edges), "criticalPathFrac")
		b.SetBytes(edges * 8)
		r := refRun(KernelCopySum, &foldTestProg{})
		r.threads = threads
		pool := r.newGatherPool(0)
		defer pool.stop()
		for i := 0; i < b.N; i++ {
			pool.run(len(bounds)-1, func(c int) {
				r.gatherCell(ss, nil, src, view{acc, 0}, nil, lane0, true, bounds[c], bounds[c+1])
			})
		}
	}
	b.Run(fmt.Sprintf("dstCount/t%d", threads), func(b *testing.B) {
		run(b, chunkRanges(ss.NumDsts(), chunk))
	})
	b.Run(fmt.Sprintf("edgeBalanced/t%d", threads), func(b *testing.B) {
		run(b, edgeChunkRanges(ss.Offsets, gatherChunkCost(1, chunk)))
	})
}
