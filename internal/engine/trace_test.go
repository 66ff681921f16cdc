package engine_test

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/testutil"
	"nxgraph/internal/trace"
)

// TestRunTraceTimeline checks the engine's tracing end to end: a PageRank
// run must leave a timeline containing the run span, one iteration span
// per iteration, block loads tagged hit/miss, gather and fetch-batch
// spans parented into the right iteration, and a per-iteration StepStats
// series whose counters are self-consistent and whose stall agrees with
// the spans (checkGatherLedger), on a free schedule and on one where
// every row's gather is held up, and under MPU and DPU, where each
// on-disk column records one gather span per iteration.
func TestRunTraceTimeline(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4})
	e, err := engine.New(st, engine.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 4
	res, err := algorithms.PageRank(e, 0.85, iters)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("tracing is on by default but Result.Trace is nil")
	}
	tl := res.Trace.Snapshot()
	if len(tl.Spans) == 0 {
		t.Fatal("empty span timeline")
	}

	byKind := map[trace.Kind][]trace.Span{}
	for _, sp := range tl.Spans {
		byKind[sp.Kind] = append(byKind[sp.Kind], sp)
	}
	runs := byKind[trace.KindRun]
	if len(runs) != 1 {
		t.Fatalf("got %d run spans, want 1", len(runs))
	}
	iterSpans := byKind[trace.KindIteration]
	if len(iterSpans) != iters {
		t.Fatalf("got %d iteration spans, want %d", len(iterSpans), iters)
	}
	iterIDs := map[uint64]bool{}
	for _, sp := range iterSpans {
		if sp.Parent != runs[0].ID {
			t.Fatalf("iteration %q parented to %d, not the run span %d", sp.Name, sp.Parent, runs[0].ID)
		}
		iterIDs[sp.ID] = true
	}
	loads := byKind[trace.KindBlockLoad]
	if len(loads) == 0 {
		t.Fatal("no block-load spans")
	}
	hits, misses := 0, 0
	for _, sp := range loads {
		switch sp.Tag {
		case trace.TagHit:
			hits++
		case trace.TagMiss:
			misses++
			if sp.Bytes <= 0 {
				t.Fatalf("miss %q decoded %d bytes", sp.Name, sp.Bytes)
			}
		default:
			t.Fatalf("block load %q has tag %q", sp.Name, sp.Tag)
		}
		if !iterIDs[sp.Parent] {
			t.Fatalf("block load %q parented to %d, not an iteration", sp.Name, sp.Parent)
		}
	}
	// Iteration 0 decodes from disk; later iterations hit the warm cache.
	if misses == 0 || hits == 0 {
		t.Fatalf("hits=%d misses=%d, want both non-zero", hits, misses)
	}
	if len(byKind[trace.KindGather]) == 0 || len(byKind[trace.KindFetchBatch]) == 0 {
		t.Fatal("missing gather or fetch-batch spans")
	}

	steps := tl.Steps
	if len(steps) != iters {
		t.Fatalf("got %d steps, want %d", len(steps), iters)
	}
	var edges int64
	for i, s := range steps {
		if s.Iteration != i {
			t.Fatalf("step %d has iteration %d", i, s.Iteration)
		}
		if s.Edges <= 0 {
			t.Fatalf("step %d gathered %d edges", i, s.Edges)
		}
		if s.DurUS < s.StallUS || s.DurUS < s.ComputeUS {
			t.Fatalf("step %d timing inconsistent: %+v", i, s)
		}
		edges += s.Edges
	}
	if edges != res.EdgesTraversed {
		t.Fatalf("steps sum to %d edges, result says %d", edges, res.EdgesTraversed)
	}
	if steps[0].BlocksMiss == 0 {
		t.Fatal("first iteration recorded no block misses on a cold cache")
	}
	checkGatherLedger(t, tl)

	// MPU and DPU fold on-disk columns on the step's pool: a column's
	// folds are many units, but one col-j gather span.
	n := int64(st.Meta().NumVertices)
	for name, cfg := range map[string]engine.Config{
		"mpu": {Threads: 2, Strategy: engine.MPU, MemoryBudget: n * 8},
		"dpu": {Threads: 2, Strategy: engine.DPU},
	} {
		e, err := engine.New(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := algorithms.PageRank(e, 0.85, iters)
		if err != nil {
			t.Fatal(err)
		}
		tl := res.Trace.Snapshot()
		checkGatherLedger(t, tl)
		cols := map[uint64][]string{}
		for _, sp := range tl.Spans {
			if sp.Kind == trace.KindGather && strings.HasPrefix(sp.Name, "col-") {
				cols[sp.Parent] = append(cols[sp.Parent], sp.Name)
			}
		}
		var want []string
		for j := res.ResidentIntervals; j < st.Meta().P; j++ {
			want = append(want, "col-"+strconv.Itoa(j))
		}
		if len(want) == 0 || len(cols) != iters {
			t.Fatalf("%s: Q = %d of %d, column spans in %d of %d iterations", name, res.ResidentIntervals, st.Meta().P, len(cols), iters)
		}
		for _, got := range cols {
			if slices.Sort(got); !slices.Equal(got, want) {
				t.Fatalf("%s: an iteration's column gather spans are %v, want %v", name, got, want)
			}
		}
	}

	// Again with every row's gather tasks held up, so the step waits on
	// each fetch while the previous row still runs: those waits are not
	// stalls.
	restore := engine.SetDelayGather(func(int) { time.Sleep(50 * time.Microsecond) })
	defer restore()
	e, err = engine.New(st, engine.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res, err = algorithms.PageRank(e, 0.85, iters); err != nil {
		t.Fatal(err)
	}
	checkGatherLedger(t, res.Trace.Snapshot())
}

// checkGatherLedger holds a timeline to the two rules the benchmark's
// ledger relies on: the gather spans of one iteration never overlap (it
// sums them), and an iteration's StallUS is exactly the part of its
// fetch-batch waits that no gather span covers — time the step waited
// on a fetch while no gather task was pending. Span bounds are rounded
// down to microseconds one by one, hence the slack of 2 µs per span.
func checkGatherLedger(t *testing.T, tl trace.Timeline) {
	t.Helper()
	kids := map[uint64][]trace.Span{}
	for _, sp := range tl.Spans {
		kids[sp.Parent] = append(kids[sp.Parent], sp)
	}
	overlap := func(a, b trace.Span) int64 {
		return max(0, min(a.StartUS+a.DurUS, b.StartUS+b.DurUS)-max(a.StartUS, b.StartUS))
	}
	for _, it := range tl.Spans {
		if it.Kind != trace.KindIteration {
			continue
		}
		var gathers, fetches []trace.Span
		for _, sp := range kids[it.ID] {
			switch sp.Kind {
			case trace.KindGather:
				gathers = append(gathers, sp)
			case trace.KindFetchBatch:
				fetches = append(fetches, sp)
			}
		}
		slices.SortFunc(gathers, func(a, b trace.Span) int { return cmp.Compare(a.StartUS, b.StartUS) })
		for k := 1; k < len(gathers); k++ {
			if overlap(gathers[k-1], gathers[k]) > 0 {
				t.Fatalf("%s: gather spans %+v and %+v overlap", it.Name, gathers[k-1], gathers[k])
			}
		}
		var uncovered int64
		for _, f := range fetches {
			uncovered += f.DurUS
			for _, g := range gathers {
				uncovered -= overlap(f, g)
			}
		}
		k, err := strconv.Atoi(strings.TrimPrefix(it.Name, "iter-"))
		if err != nil || k >= len(tl.Steps) {
			t.Fatalf("iteration span %q has no step", it.Name)
		}
		stall := tl.Steps[k].StallUS
		if slack := int64(2 * (len(fetches) + len(gathers))); stall < uncovered-slack || stall > uncovered+slack {
			t.Fatalf("%s: StallUS %d, but %d µs of its %d fetch waits lie outside its %d gather spans", it.Name, stall, uncovered, len(fetches), len(gathers))
		}
	}
}

// TestTracingDisabled checks TraceSpans < 0 turns the tracer fully off.
func TestTracingDisabled(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4})
	e, err := engine.New(st, engine.Config{Threads: 2, TraceSpans: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := algorithms.PageRank(e, 0.85, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("TraceSpans=-1 still produced a trace")
	}
}

// TestTraceRingBoundOnRun checks a tiny span budget degrades to dropping
// old spans, never to unbounded growth or a broken run.
func TestTraceRingBoundOnRun(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4})
	e, err := engine.New(st, engine.Config{Threads: 2, TraceSpans: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := algorithms.PageRank(e, 0.85, 5)
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Trace.Snapshot()
	if len(tl.Spans) != 8 {
		t.Fatalf("ring holds %d spans, want 8", len(tl.Spans))
	}
	if tl.DroppedSpans == 0 {
		t.Fatal("a 8-span budget over 5 iterations dropped nothing")
	}
	if len(tl.Steps) != 5 {
		t.Fatalf("step series truncated to %d by the span ring", len(tl.Steps))
	}
}
