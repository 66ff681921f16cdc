package engine_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/diskio"
	"nxgraph/internal/dynamic"
	"nxgraph/internal/engine"
	"nxgraph/internal/graph"
	"nxgraph/internal/preprocess"
	"nxgraph/internal/storage"
	"nxgraph/internal/testutil"
)

// The tombstone-equivalence suite: a base store served through an
// overlay that carries removals must produce, bit for bit, what the
// compacted (Rebuild) store produces through the generic interface
// kernels — at run widths 1, 3 and 16 (the hinted kernel's one-lane
// leaf, a padded block of three and whole lane blocks), every update
// strategy, chunked and whole-cell tasks, both replicas and every kernel
// hint — with the tombstones aimed at the places where splitting a chunk
// into clean runs and dirty destinations could go wrong, and at both
// ends of every count class of a cached block.

const (
	tombN        = 96 // vertices; P = 4 gives 24-vertex intervals
	tombP        = 4
	tombChunk    = 2       // engine.SetChunkDsts; see engine.GatherChunkCost
	tombWhole    = 1 << 20 // engine.SetChunkDsts past any cell's cost: one gather task per cell
	tombHubFirst = 30
	tombHubLast  = 32
)

// tombGraph is the suite's fixed graph: a ring (every vertex keeps an in-
// and an out-edge, so no removal below empties the vertex set and dense
// ids stay aligned across the rebuild), pseudo-random filler, three
// consecutive hub destinations fed by all of interval 0 (each exceeds
// the chunk cost on its own, so the later ones own a chunk), and one
// explicit parallel edge.
func tombGraph() *graph.EdgeList {
	g := &graph.EdgeList{NumVertices: tombN, Weighted: true}
	add := func(s, d uint32) {
		g.Edges = append(g.Edges, graph.Edge{Src: s, Dst: d, Weight: float32(1 + (s*7+d*3)%5)})
	}
	for v := uint32(0); v < tombN; v++ {
		add(v, (v+1)%tombN)
	}
	x := uint32(12345)
	for i := 0; i < 500; i++ {
		x = x*1664525 + 1013904223
		s := (x >> 8) % tombN
		x = x*1664525 + 1013904223
		d := (x >> 8) % tombN
		if s != d {
			add(s, d)
		}
	}
	for h := uint32(tombHubFirst); h <= tombHubLast; h++ {
		for s := uint32(0); s < tombN/tombP; s++ {
			add(s, h)
		}
	}
	add(5, 50)
	add(5, 50)
	return g
}

// tombPlan is the mutation list plus the facts the degree checks need.
type tombPlan struct {
	ops []dynamic.Op
	// removed maps each removed pair with base copies to that count.
	removed map[[2]uint32]int
	readds  int
}

// planTombstones picks the victims from the base store itself. ids are
// dense == original here (the graph has no isolated vertex).
func planTombstones(t *testing.T, st *storage.Store) tombPlan {
	t.Helper()
	copies := make(map[[2]uint32]int)
	inOf := make(map[uint32][]uint32)
	outOf := make(map[uint32][]uint32)
	if err := st.ForEachEdge(func(s, d uint32, _ float32) error {
		copies[[2]uint32{s, d}]++
		inOf[d] = append(inOf[d], s)
		outOf[s] = append(outOf[s], d)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	plan := tombPlan{removed: make(map[[2]uint32]int)}
	used := make(map[uint32]bool) // destinations already carrying a case
	remove := func(s, d uint32) {
		plan.ops = append(plan.ops, dynamic.Op{Remove: true, Src: uint64(s), Dst: uint64(d)})
		if c := copies[[2]uint32{s, d}]; c > 0 {
			plan.removed[[2]uint32{s, d}] = c
		}
		used[d] = true
	}

	// The hub cell: interval 0 -> interval 1, as the engine's block
	// cache holds it (count-class order), so that the chunk bounds below
	// are the ones its gather tasks fold.
	ss := classBlock(t, st, 0, 1)
	n := ss.NumDsts()
	edgeOf := func(k, which int) (uint32, uint32) { // which: 0 first, 1 middle, 2 last in-edge
		lo, hi := int(ss.Offsets[k]), int(ss.Offsets[k+1])
		return ss.Srcs[[]int{lo, (lo + hi) / 2, hi - 1}[which]], ss.Dsts[k]
	}
	chunkCost := uint32(engine.GatherChunkCost(1, tombChunk))
	bounds := engine.EdgeChunkRanges(ss.Offsets, int(chunkCost))
	if len(bounds) < 5 {
		t.Fatalf("hub cell has %d chunks, fixture wants several", len(bounds)-1)
	}
	remove(edgeOf(0, 0))   // first destination of the sub-shard
	remove(edgeOf(n-1, 2)) // last destination of the sub-shard
	// Both sides of a chunk boundary that is not next to a hub.
	placed := false
	for _, b := range bounds[1 : len(bounds)-1] {
		if b < 2 || b > n-2 || ss.Dsts[b] >= tombHubFirst-1 && ss.Dsts[b-1] <= tombHubLast+1 {
			continue
		}
		remove(edgeOf(b-1, 1))
		remove(edgeOf(b, 1))
		placed = true
		break
	}
	if !placed {
		t.Fatal("no usable chunk boundary in the hub cell")
	}
	// A hub destination that owns a chunk.
	placed = false
	for c := 0; c+1 < len(bounds); c++ {
		k := bounds[c]
		if bounds[c+1] == k+1 && ss.Offsets[k+1]-ss.Offsets[k] >= chunkCost && !used[ss.Dsts[k]] {
			remove(edgeOf(k, 1))
			placed = true
			break
		}
	}
	if !placed {
		t.Fatal("no hub destination owns a chunk")
	}

	// The first and the last destination of each count class of the
	// hub cell — one, two, three, four or more in-edges — so that every
	// class's search meets a dirty destination at both of its bounds.
	b := ss.Classes()
	for c := range storage.NumClasses {
		if b[c] == b[c+1] {
			t.Fatalf("hub cell has no destination with %d in-edges (classes %v)", c+1, b)
		}
		for _, k := range []int{b[c], b[c+1] - 1} {
			if !used[ss.Dsts[k]] {
				remove(edgeOf(k, 1))
			}
		}
	}

	// A parallel edge: both base copies die.
	if copies[[2]uint32{5, 50}] != 2 {
		t.Fatalf("fixture pair (5,50) has %d copies, want 2", copies[[2]uint32{5, 50}])
	}
	remove(5, 50)

	// Every in-edge of one destination (its local stays Zero everywhere).
	const orphan = 70
	if used[orphan] {
		t.Fatal("orphan destination already used")
	}
	for _, s := range inOf[orphan] {
		if _, done := plan.removed[[2]uint32{s, orphan}]; !done {
			remove(s, orphan)
		}
	}

	// Pairs with no base copy: one that never existed, one that only
	// ever existed as a pending insertion.
	placed = false
	for s := uint32(40); s+1 < tombN && !placed; s++ {
		for d := uint32(80); d < tombN && !placed; d++ {
			if copies[[2]uint32{s, d}] == 0 && copies[[2]uint32{s + 1, d}] == 0 && !used[d] {
				remove(s, d)
				plan.ops = append(plan.ops, dynamic.Op{Src: uint64(s + 1), Dst: uint64(d), Weight: 2})
				remove(s+1, d)
				placed = true
			}
		}
	}
	if !placed {
		t.Fatal("no absent pair found")
	}

	// Remove-then-re-add. The re-added copy is gathered from the overlay
	// cell, after the base cell's fold, so a sum-based program matches
	// the rebuilt store's single fold bit for bit only when the pair is
	// its destination's sole in-edge from the source's interval — and,
	// for the transposed replica, its source's sole out-edge into the
	// destination's interval.
	placed = false
	m := st.Meta()
	for d := uint32(48); d < tombN && !placed; d++ {
		if used[d] {
			continue
		}
		for _, s := range inOf[d] {
			sole := true
			for _, s2 := range inOf[d] {
				sole = sole && (s2 == s || m.IntervalOf(s2) != m.IntervalOf(s))
			}
			for _, d2 := range outOf[s] {
				sole = sole && (d2 == d || m.IntervalOf(d2) != m.IntervalOf(d))
			}
			if sole && copies[[2]uint32{s, d}] == 1 {
				remove(s, d)
				plan.ops = append(plan.ops, dynamic.Op{Src: uint64(s), Dst: uint64(d), Weight: 2.5})
				plan.readds++
				placed = true
				break
			}
		}
	}
	if !placed {
		t.Fatal("no pair that is alone in its cell row and column")
	}
	return plan
}

// classBlock decodes SS[i][j] of st in count-class order, as the
// engine's block cache holds it.
func classBlock(t *testing.T, st *storage.Store, i, j int) *storage.SubShard {
	t.Helper()
	blob, err := st.ReadSubShardRaw(i, j, false)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := storage.DecodeSubShardInto(nil, blob, st.Meta().Weighted)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// sumProg is a hint-free sum-based program: it drives the generic
// interface kernel (gatherGeneric, to accumulator and hub, at every
// width) with a non-associative fold that also reads degrees and
// weights.
type sumProg struct{ seed uint32 }

func (p sumProg) Name() string  { return "generic-sum" }
func (p sumProg) Zero() float64 { return 0 }
func (p sumProg) Init(v uint32) (float64, bool) {
	return 1 + float64((v+p.seed)%7)/3, true
}
func (p sumProg) Gather(a float64, deg uint32, w float32) float64 {
	return a * float64(w) / float64(deg)
}
func (p sumProg) Sum(a, b float64) float64 { return a + b }
func (p sumProg) Apply(v uint32, old, acc float64) (float64, bool) {
	return 0.25 + 0.3*acc, true
}
func (sumProg) DenseApply() {}

// noHint and noHintAgg strip a program's specializations — FusedKernel,
// LaneApplier, LaneAggregator — so a run of it goes through the generic
// interface kernels: the oracle every specialized path is held to.
// noHintAgg keeps the GlobalAggregator a rank program's Apply depends on.
type noHint struct{ engine.Program }

type noHintAgg struct{ engine.Program }

func (h noHintAgg) AggZero() float64 { return h.Program.(engine.GlobalAggregator).AggZero() }
func (h noHintAgg) AggVertex(v uint32, attr float64, deg uint32) float64 {
	return h.Program.(engine.GlobalAggregator).AggVertex(v, attr, deg)
}
func (h noHintAgg) AggCombine(a, b float64) float64 {
	return h.Program.(engine.GlobalAggregator).AggCombine(a, b)
}
func (h noHintAgg) SetGlobal(g float64) { h.Program.(engine.GlobalAggregator).SetGlobal(g) }

func stripHint(p engine.Program) engine.Program {
	if _, ok := p.(engine.FusedKernel); !ok {
		return p // sumProg: generic already, and its DenseApply must stay
	}
	if _, ok := p.(engine.GlobalAggregator); ok {
		return noHintAgg{p}
	}
	return noHint{p}
}

// runLanes drives ps as the lanes of one run for at most iters
// iterations (0: to termination) and returns each lane's attributes.
func runLanes(t *testing.T, e *engine.Engine, ps []engine.Program, dir engine.Direction, iters int) [][]float64 {
	t.Helper()
	run, err := e.NewBatchRun(ps, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	for it := 0; iters <= 0 || it < iters; it++ {
		more, err := run.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	res, err := run.FinishLanes()
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, len(res))
	for l := range res {
		out[l] = res[l].Attrs
	}
	return out
}

// runEach runs every program as a run of its own.
func runEach(t *testing.T, e *engine.Engine, ps []engine.Program, dir engine.Direction, iters int) [][]float64 {
	t.Helper()
	out := make([][]float64, len(ps))
	for l, p := range ps {
		out[l] = runLanes(t, e, []engine.Program{p}, dir, iters)[0]
	}
	return out
}

func sameBits(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lanes, want %d", label, len(got), len(want))
	}
	for l := range got {
		if len(got[l]) != len(want[l]) {
			t.Fatalf("%s lane %d: %d vertices, want %d", label, l, len(got[l]), len(want[l]))
		}
		for v := range got[l] {
			if math.Float64bits(got[l][v]) != math.Float64bits(want[l][v]) {
				t.Fatalf("%s lane %d vertex %d: %v (%#x), rebuilt store has %v (%#x)", label, l, v,
					got[l][v], math.Float64bits(got[l][v]), want[l][v], math.Float64bits(want[l][v]))
			}
		}
	}
}

func TestTombstoneEquivalence(t *testing.T) {
	opts := testutil.StoreOptions{P: tombP, Weighted: true, Transpose: true}
	st, _ := testutil.BuildStore(t, tombGraph(), opts)
	plan := planTombstones(t, st)
	log, err := dynamic.NewDeltaLog(st)
	if err != nil {
		t.Fatal(err)
	}
	log.Append(plan.ops...)

	disk, err := diskio.New(t.TempDir(), diskio.Unthrottled)
	if err != nil {
		t.Fatal(err)
	}
	res, err := log.Rebuild(context.Background(), log.Checkpoint(), disk, "rebuilt",
		preprocess.Options{P: tombP, Weighted: true, Transpose: true})
	if err != nil {
		t.Fatal(err)
	}
	rb := res.Store
	t.Cleanup(func() { rb.Close() })

	// The stores must share one dense id space, and the snapshot must
	// account for exactly the rebuilt store's degrees and edge count.
	ids, err := st.IDMap()
	if err != nil {
		t.Fatal(err)
	}
	rbIDs, err := rb.IDMap()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, rbIDs) {
		t.Fatal("rebuilt store renumbered vertices; the fixture must keep every vertex attached")
	}
	ov, err := log.Overlay()
	if err != nil || ov == nil {
		t.Fatalf("overlay = %v, %v", ov, err)
	}
	out, in := ov.Degrees()
	rbOut, rbIn, err := rb.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, rbOut) || !reflect.DeepEqual(in, rbIn) {
		t.Fatal("overlay degrees differ from the rebuilt store's")
	}
	dead := 0
	for _, c := range plan.removed {
		dead += c
	}
	if got, want := ov.DeltaEdges(), int64(plan.readds-dead); got != want || rb.Meta().NumEdges-st.Meta().NumEdges != want {
		t.Fatalf("DeltaEdges = %d, want %d (rebuilt store: %d)", got, want, rb.Meta().NumEdges-st.Meta().NumEdges)
	}
	// Every listed key kills a base copy, and the pairs without one
	// (never existed / pending insertion only) list nothing.
	keys := 0
	for i := 0; i < tombP; i++ {
		for j := 0; j < tombP; j++ {
			for _, key := range ov.CellTombstones(i, j, false) {
				if plan.removed[[2]uint32{uint32(key), uint32(key >> 32)}] == 0 {
					t.Fatalf("cell (%d,%d) lists key %#x with no base copy", i, j, key)
				}
				keys++
			}
			if got, want := len(ov.CellTombstones(j, i, true)), len(ov.CellTombstones(i, j, false)); got != want {
				t.Fatalf("transposed cell (%d,%d) lists %d keys, forward cell lists %d", j, i, got, want)
			}
		}
	}
	if keys != len(plan.removed) {
		t.Fatalf("%d tombstone keys, want %d", keys, len(plan.removed))
	}

	nv := int64(st.Meta().NumVertices)
	type config struct {
		engine.Config
		chunk int // engine.SetChunkDsts
	}
	configs := map[string]config{
		"spu": {engine.Config{Threads: 3, Strategy: engine.SPU}, tombChunk},
		"dpu": {engine.Config{Threads: 3, Strategy: engine.DPU}, tombChunk},
		"mpu": {engine.Config{Threads: 3, Strategy: engine.MPU, MemoryBudget: nv * engine.Ba}, tombChunk},
		// The -lock rows keep their names from the deleted Sync: Lock mode
		// and run its schedule, one whole-cell task per sub-shard (ADR-016).
		"spu-lock": {engine.Config{Threads: 3, Strategy: engine.SPU}, tombWhole},
		"mpu-lock": {engine.Config{Threads: 3, Strategy: engine.MPU, MemoryBudget: nv * engine.Ba}, tombWhole},
		// Q = P at one lane, Q = 2 of 4 at width 3: a wide MPU run.
		"mpu-wide": {engine.Config{Threads: 3, Strategy: engine.MPU, MemoryBudget: 3 * nv * engine.Ba}, tombChunk},
	}
	// Roots: spread over the intervals, including sources of removed
	// edges, so every lane's frontier crosses tombstoned cells.
	roots := make([]uint32, 16)
	for l := range roots {
		roots[l] = uint32(l*37+5) % tombN
	}
	type family struct {
		name  string
		dir   engine.Direction
		iters int
		prog  func(root uint32) engine.Program
	}
	families := []family{
		{"ranksum", engine.Forward, 6, func(r uint32) engine.Program { return algorithms.NewPPRProgram(r, 0.85) }},
		{"ranksum-both", engine.Both, 4, func(r uint32) engine.Program { return algorithms.NewPPRProgram(r, 0.85) }},
		{"hopmin", engine.Forward, 0, algorithms.NewBFSProgram},
		{"distmin", engine.Forward, 0, algorithms.NewSSSPProgram},
		{"minfold-both", engine.Both, 0, func(uint32) engine.Program { return algorithms.NewWCCProgram() }},
		{"generic", engine.Forward, 5, func(r uint32) engine.Program { return sumProg{seed: r} }},
		{"generic-both", engine.Both, 4, func(r uint32) engine.Program { return sumProg{seed: r} }},
	}
	progs := func(f family, w int, oracle bool) []engine.Program {
		ps := make([]engine.Program, w)
		for l := range ps {
			ps[l] = f.prog(roots[l])
			if oracle {
				ps[l] = stripHint(ps[l])
			}
		}
		return ps
	}
	for name, c := range configs {
		t.Run(name, func(t *testing.T) {
			defer engine.SetChunkDsts(c.chunk)()
			cfg := c.Config
			eOv, err := engine.New(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			eOv.SetOverlayProvider(log.Overlay)
			eRb, err := engine.New(rb, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A run of width w resolves its Q from the budget over its
			// width, and a sum fold over both replicas associates by Q,
			// so the oracle of width w is the same config on the
			// compacted store with budget BM/w: one lane there resolves
			// the same Q. One lane's oracle is the config itself.
			eRbW := map[int]*engine.Engine{1: eRb}
			for _, w := range []int{3, 16} {
				cw := cfg
				cw.MemoryBudget /= int64(w)
				if eRbW[w], err = engine.New(rb, cw); err != nil {
					t.Fatal(err)
				}
			}
			for _, f := range families {
				want := runEach(t, eRb, progs(f, 4, true), f.dir, f.iters)
				got := runEach(t, eOv, progs(f, 4, false), f.dir, f.iters)
				sameBits(t, f.name+" width1", got, want)
				for _, w := range []int{3, 16} {
					got := runLanes(t, eOv, progs(f, w, false), f.dir, f.iters)
					want := runEach(t, eRbW[w], progs(f, w, true), f.dir, f.iters)
					sameBits(t, fmt.Sprintf("%s width%d", f.name, w), got, want)
				}
			}
			// The whole-graph rank program (global aggregate, scaled
			// source view) through the public entry point.
			wantPR, err := algorithms.PageRank(eRb, 0.85, 8)
			if err != nil {
				t.Fatal(err)
			}
			gotPR, err := algorithms.PageRank(eOv, 0.85, 8)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "pagerank", [][]float64{gotPR.Attrs}, [][]float64{wantPR.Attrs})
		})
	}
}
