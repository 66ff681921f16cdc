package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nxgraph/internal/bitset"
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

func scalarFoldCases(nan bool) []struct {
	name     string
	f        scalarFold
	prog     *foldTestProg
	weighted bool
} {
	add := func(a, b float64) float64 { return a + b }
	min, max := math.Min, math.Max
	if nan {
		min, max = nanFirst(min), nanFirst(max)
	}
	return []struct {
		name     string
		f        scalarFold
		prog     *foldTestProg
		weighted bool
	}{
		{"copySum", foldCopySum, &foldTestProg{0,
			func(a float64, _ uint32, _ float32) float64 { return a }, add}, false},
		{"countSum", foldCountSum, &foldTestProg{0,
			func(_ float64, _ uint32, _ float32) float64 { return 1 }, add}, false},
		{"min", foldMin, &foldTestProg{math.Inf(1),
			func(a float64, _ uint32, _ float32) float64 { return a }, min}, false},
		{"max", foldMax, &foldTestProg{math.Inf(-1),
			func(a float64, _ uint32, _ float32) float64 { return a }, max}, false},
		{"hopMin", foldHopMin, &foldTestProg{math.Inf(1),
			func(a float64, _ uint32, _ float32) float64 { return a + 1 }, min}, false},
		{"distMin", foldDistMin, &foldTestProg{math.Inf(1),
			func(a float64, _ uint32, w float32) float64 { return a + float64(w) }, min}, true},
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
func refRun(hint KernelHint, mask *bitset.Set, ps ...Program) *Run {
	r := &Run{lanes: make([]lane, len(ps)), zero: ps[0].Zero(), hint: hint, mask: mask}
	for l, p := range ps {
		r.lanes[l].p = p
	}
	return r
}

// TestScalarKernelsMatchGeneric is the kernel-level bit-identity gate:
// every specialized fold, across the CSR, ToHub and FromHub kernels,
// with and without mask/tombstone filtering, must reproduce the generic
// interface path (the generic lane kernel at one lane) exactly — on
// ordinary attributes and on vectors of signed zeros, infinities,
// denormals and NaNs, where the kernels' min/max builtins meet the
// programs' math.Min/math.Max.
func TestScalarKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	normal := make([]float64, 96)
	for v := range normal {
		normal[v] = rng.NormFloat64() // negative values catch sign bugs
	}
	for _, set := range []struct {
		name  string
		attrs []float64
	}{
		{"normal", normal},
		{"special", specialAttrs(rng, 96, false)},
		{"special+nan", specialAttrs(rng, 96, true)},
	} {
		t.Run(set.name, func(t *testing.T) { checkScalarKernels(t, rng, set.attrs) })
	}
}

func checkScalarKernels(t *testing.T, rng *rand.Rand, attrs []float64) {
	n := len(attrs)
	deg := make([]uint32, n)
	for v := range deg {
		deg[v] = uint32(1 + rng.Intn(5))
	}
	mask := bitset.New(n)
	for v := 0; v < n; v += 5 {
		mask.Set(v)
	}
	del := func(s, d uint32) bool { return (s+d)%3 == 0 }
	src := view{attrs, 0}

	for _, c := range scalarFoldCases(slices.ContainsFunc(attrs, math.IsNaN)) {
		ss := makeTestSubShard(rng, n, 48, c.weighted)
		filters := []struct {
			name string
			mask *bitset.Set
			del  delPred
		}{
			{"plain", nil, nil},
			{"mask", mask, nil},
			{"del", nil, del},
			{"mask+del", mask, del},
		}
		for _, fl := range filters {
			name := c.name + "/" + fl.name

			accA := make([]float64, n)
			accB := make([]float64, n)
			for v := range accA {
				accA[v] = c.prog.zero
				accB[v] = c.prog.zero
			}
			ref := refRun(KernelGeneric, fl.mask, c.prog)
			ref.gatherCell(ss, deg, fl.del, src, view{accA, 0}, nil, lane0, true, 0, ss.NumDsts())
			gatherSpec(c.f, fl.mask, fl.del, ss, src, view{accB, 0}, nil, 0, ss.NumDsts())
			assertSameBits(t, name+"/csr", accA, accB)

			hubA := make([]float64, ss.NumDsts())
			hubB := make([]float64, ss.NumDsts())
			ref.gatherCell(ss, deg, fl.del, src, view{}, hubA, lane0, true, 0, ss.NumDsts())
			gatherSpec(c.f, fl.mask, fl.del, ss, src, view{}, hubB, 0, ss.NumDsts())
			assertSameBits(t, name+"/hub", hubA, hubB)
		}

		// FromHub: only Sum matters, so exercise the sum fold over the
		// hub partials just produced.
		if hint := hintForFold(c.f); sumFoldFor(hint) != foldNone {
			hub := make([]float64, ss.NumDsts())
			gatherSpec(c.f, nil, nil, ss, src, view{}, hub, 0, ss.NumDsts())
			accA := make([]float64, n)
			accB := make([]float64, n)
			for v := range accA {
				accA[v] = c.prog.zero
				accB[v] = c.prog.zero
			}
			refRun(KernelGeneric, nil, c.prog).foldHub(ss.Dsts, hub, view{accA, 0}, lane0, 0, ss.NumDsts())
			refRun(hint, nil, c.prog).foldHub(ss.Dsts, hub, view{accB, 0}, lane0, 0, ss.NumDsts())
			assertSameBits(t, c.name+"/foldHub", accA, accB)
		}
	}
}

var lane0 = []int{0}

// hintForFold inverts scalarFoldFor far enough for the FromHub check:
// any hint whose Sum matches the fold's combine.
func hintForFold(f scalarFold) KernelHint {
	switch f {
	case foldCopySum, foldCountSum:
		return KernelCopySum
	case foldMin, foldHopMin, foldDistMin:
		return KernelMinFold
	case foldMax:
		return KernelMaxFold
	}
	return KernelGeneric
}

func TestScalarFoldFor(t *testing.T) {
	cases := []struct {
		hint     KernelHint
		weighted bool
		want     scalarFold
	}{
		{KernelGeneric, false, foldNone},
		{KernelRankSum, false, foldCopySum}, // division hoisted
		{KernelHopMin, true, foldHopMin},
		{KernelDistMin, true, foldDistMin},
		{KernelDistMin, false, foldHopMin}, // unweighted cell: w == 1
		{KernelMinFold, false, foldMin},
		{KernelMaxFold, false, foldMax},
		{KernelCountSum, false, foldCountSum},
		{KernelCopySum, false, foldCopySum},
	}
	for _, c := range cases {
		if got := scalarFoldFor(c.hint, c.weighted); got != c.want {
			t.Errorf("scalarFoldFor(%v, %v) = %v, want %v", c.hint, c.weighted, got, c.want)
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

// BenchmarkGatherKernel compares the generic interface-dispatch gather
// against the devirtualized folds on one sub-shard of 8192 destinations
// (about 48k edges) with the run-length mix of a real cell. The lane/
// rows run the lane kernels of the two fused hints — copy-sum over a
// scaled view (RankSum) and hop-min — at L = 1, against the scalar
// spec/copySum and spec/hopMin arms a one-lane run takes instead, and
// at L = 16 over every lane. It reports ns/edge (all lanes of an edge
// together), the unit of the benchmark ledger's
// engine.gather_self_ns_per_edge.
func BenchmarkGatherKernel(b *testing.B) {
	const n = 1 << 13
	rng := rand.New(rand.NewSource(7))
	ss := benchSubShard(rng, n, n)
	deg := make([]uint32, n)
	attrs := make([]float64, n)
	for v := range attrs {
		deg[v] = uint32(1 + rng.Intn(8))
		attrs[v] = rng.Float64()
	}
	src := view{attrs, 0}
	acc := make([]float64, n)
	edges := float64(ss.NumEdges())
	nsPerEdge := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/edges, "ns/edge")
	}

	for _, c := range scalarFoldCases(false) {
		if c.weighted {
			continue // weight array omitted; distMin is covered by the equivalence tests
		}
		b.Run("generic/"+c.name, func(b *testing.B) {
			r := refRun(KernelGeneric, nil, c.prog)
			for i := 0; i < b.N; i++ {
				r.gatherCell(ss, deg, nil, src, view{acc, 0}, nil, lane0, true, 0, ss.NumDsts())
			}
			nsPerEdge(b)
		})
		b.Run("spec/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gatherSpec(c.f, nil, nil, ss, src, view{acc, 0}, nil, 0, ss.NumDsts())
			}
			nsPerEdge(b)
		})
	}
	// L12 is serve-read's mean fused width (about 11.7) and ends in a
	// partial four-lane block; L16list folds 12 of 16 lanes through a
	// lane list with gaps, the shape of a BFS frontier.
	for _, c := range []struct {
		name  string
		L     int
		lanes []int
	}{
		{"L1", 1, []int{0}},
		{"L12", 12, laneRun(0, 12)},
		{"L16", 16, laneRun(0, 16)},
		{"L16list", 16, []int{0, 1, 2, 4, 5, 6, 8, 9, 11, 12, 14, 15}},
	} {
		L, lanes, ps := c.L, c.lanes, make([]Program, c.L)
		contig := lanes[len(lanes)-1]-lanes[0] == len(lanes)-1
		slab, accL := make([]float64, n*L), make([]float64, n*L)
		for l := range ps {
			ps[l] = &foldTestProg{zero: math.Inf(1)}
		}
		for x := range slab {
			slab[x] = attrs[x/L]
		}
		r := refRun(KernelGeneric, nil, ps...)
		b.Run("lane/rankSum/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.gatherLanes(opSum, ss, nil, view{slab, 0}, view{accL, 0}, nil, lanes, contig, 0, ss.NumDsts())
			}
			nsPerEdge(b)
		})
		b.Run("lane/hopMin/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.gatherLanes(opHop, ss, nil, view{slab, 0}, view{accL, 0}, nil, lanes, contig, 0, ss.NumDsts())
			}
			nsPerEdge(b)
		})
	}
}

// laneRun returns the consecutive lane ids [first, first+n).
func laneRun(first, n int) []int {
	lanes := make([]int, n)
	for x := range lanes {
		lanes[x] = first + x
	}
	return lanes
}

// TestLaneKernelsMatchGeneric holds the hinted lane kernels to the
// generic lane kernel, bit for bit, at run widths 1, 3, 4, 5, 8, 12, 13
// and 16: for the run's every lane, a consecutive run starting past lane
// 0 and a lane list with gaps (each its widths' partial four-lane pass
// included); over source and accumulator windows whose base is not 0;
// into the accumulator and into hub entries; with and without a
// tombstone predicate; on a sub-shard whose destinations carry 0 to 12
// edges plus runs of 45 and 150. Attributes and accumulators are drawn
// from specialValues — ±0, ±Inf, denormals and NaN — so every fold must
// start from Zero like the generic one (0 + -0 is +0), and the min folds
// meet the kernels' NaN-first min contract.
func TestLaneKernelsMatchGeneric(t *testing.T) {
	const n, base = 96, 40
	rng := rand.New(rand.NewSource(5))
	deg := make([]uint32, base+n)
	for v := range deg {
		deg[v] = uint32(1 + rng.Intn(5))
	}
	del := func(s, d uint32) bool { return (s+d)%3 == 0 }
	add := func(a, b float64) float64 { return a + b }
	nanMin := nanFirst(math.Min)
	cases := []struct {
		name     string
		op       laneOp
		hint     KernelHint
		prog     *foldTestProg
		weighted bool
	}{
		{"rankSum", opSum, KernelRankSum, &foldTestProg{0, func(a float64, _ uint32, _ float32) float64 { return a }, add}, false},
		{"hopMin", opHop, KernelHopMin, &foldTestProg{math.Inf(1), func(a float64, _ uint32, _ float32) float64 { return a + 1 }, nanMin}, false},
		{"distMin", opDist, KernelDistMin, &foldTestProg{math.Inf(1), func(a float64, _ uint32, w float32) float64 { return a + float64(w) }, nanMin}, true},
		{"distMin-unweighted", opDist, KernelDistMin, &foldTestProg{math.Inf(1), func(a float64, _ uint32, w float32) float64 { return a + float64(w) }, nanMin}, false},
	}
	for _, c := range cases {
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
		for _, L := range []int{1, 3, 4, 5, 8, 12, 13, 16} {
			attrs := func() []float64 { return specialAttrs(rng, n*L, true) }
			ps := make([]Program, L)
			for l := range ps {
				ps[l] = c.prog
			}
			spec, ref := refRun(c.hint, nil, ps...), refRun(KernelGeneric, nil, ps...)
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
			src := view{attrs(), base}
			for _, lanes := range shapes {
				contig := lanes[len(lanes)-1]-lanes[0] == len(lanes)-1
				for _, dl := range []delPred{nil, del} {
					name := fmt.Sprintf("%s/L%d/lanes%v/del=%v", c.name, L, lanes, dl != nil)
					accA := attrs()
					accB := slices.Clone(accA)
					ref.gatherCell(ss, deg, dl, src, view{accA, base}, nil, lanes, contig, 0, ss.NumDsts())
					spec.gatherLanes(c.op, ss, dl, src, view{accB, base}, nil, lanes, contig, 0, ss.NumDsts())
					assertSameBits(t, name+"/acc", accA, accB)
					hubA := make([]float64, ss.NumDsts()*L)
					hubB := make([]float64, ss.NumDsts()*L)
					ref.gatherCell(ss, deg, dl, src, view{}, hubA, lanes, contig, 0, ss.NumDsts())
					spec.gatherLanes(c.op, ss, dl, src, view{}, hubB, lanes, contig, 0, ss.NumDsts())
					assertSameBits(t, name+"/hub", hubA, hubB)
				}
			}
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
			applyRange(p, nil, old, acc, 1, 0, 0, n)
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
		for i := 0; i < b.N; i++ {
			parallelFor(threads, len(bounds)-1, func(c int) {
				gatherSpec(foldCopySum, nil, nil, ss, src, view{acc, 0}, nil, bounds[c], bounds[c+1])
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
