// Package trace is the engine's always-on run tracer: a lightweight
// span recorder with a bounded ring buffer, cheap enough to leave
// enabled on the serving path.
//
// NXgraph's performance story is about where bytes move — prefetch
// stall vs gather compute, cache-hit decode vs cold disk read — and
// none of that is visible from monotonic counters or a single
// elapsed_ms. A Trace records two complementary views of one run:
//
//   - spans: a timeline of timed sections (the run, each iteration,
//     each fetch-plan batch wait, block loads tagged hit/miss — misses
//     individually, a batch's hits coalesced into one counted span —
//     the gather work per row/column, the apply phase), parented into a
//     tree so a consumer can reconstruct where a run's time went;
//   - steps: one StepStats per iteration with the aggregate counters
//     the span timeline is too fine-grained for (bytes read, blocks
//     hit/missed, edges gathered, stall vs compute split).
//
// Recording a span costs two monotonic clock reads and a mutex append —
// and hot loops amortize further with Clock/Make plus one Record per
// batch. The ring bound caps memory on long runs by overwriting the
// oldest spans (Dropped counts them). A nil *Trace is valid and records
// nothing, so callers instrument unconditionally and disabling tracing
// is free.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a span. The engine emits the kinds below; consumers
// should tolerate kinds they do not know.
type Kind string

// Span kinds emitted by the engine.
const (
	// KindRun covers one whole program execution.
	KindRun Kind = "run"
	// KindIteration covers one step of the update loop.
	KindIteration Kind = "iteration"
	// KindFetchBatch covers the step loop waiting on a prefetched
	// fetch-plan batch, including the cells it loads itself. Row-phase
	// gather tasks may run meanwhile; only the part of the wait no
	// gather span covers is the iteration's stall.
	KindFetchBatch Kind = "fetch-batch"
	// KindBlockLoad covers sub-shard block acquisition, tagged "hit"
	// (served decoded from the block cache) or "miss" (decoded from
	// disk; Bytes carries the decoded size). Misses are one span per
	// block; a fetch batch's hits are coalesced into one span whose
	// Count carries how many (per-hit spans would each say "~0µs" and
	// their recording cost is measurable on warm runs).
	KindBlockLoad Kind = "block-load"
	// KindGather covers the gather work of one row (ToHub + resident
	// accumulation) or of one destination column (FromHub folds): from
	// its first submission to the step's pool until the pool went idle
	// or the next row or column began, so the gather spans of one
	// iteration never overlap.
	KindGather Kind = "gather"
	// KindApply covers the resident apply phase closing an iteration.
	KindApply Kind = "apply"
	// KindOverlay covers capturing the delta-overlay snapshot at run
	// start.
	KindOverlay Kind = "overlay"
	// KindLane covers one query lane of a fused batch run, from run
	// start until the lane converges, is cancelled (Tag "cancelled"), or
	// the run finishes; Count carries the lane's iteration count. Lane
	// spans parent to the batch's run span, giving each fused query its
	// own timeline entry.
	KindLane Kind = "lane"
)

// Tag values for KindBlockLoad spans.
const (
	TagHit  = "hit"
	TagMiss = "miss"
)

// Span is one timed section of a run. Start/Dur are microseconds
// relative to the trace's start, so a JSON timeline is self-contained.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Kind   Kind   `json:"kind"`
	Name   string `json:"name"`
	// StartUS is the span's start, in microseconds since the trace
	// began.
	StartUS int64 `json:"start_us"`
	// DurUS is the span's duration in microseconds.
	DurUS int64 `json:"dur_us"`
	// Tag carries a kind-specific annotation (hit/miss for block
	// loads).
	Tag string `json:"tag,omitempty"`
	// Bytes carries a kind-specific byte count (decoded bytes for
	// block-load misses).
	Bytes int64 `json:"bytes,omitempty"`
	// Count carries the number of events a coalesced span stands for
	// (cache-hit block loads are batched into one span per fetch).
	Count int64 `json:"count,omitempty"`

	// beganNS is the monotonic offset from the trace start, set by
	// Start and consumed by End. Reading the monotonic clock once per
	// edge (time.Since against the trace's base) is measurably cheaper
	// than a full time.Now per edge on the block-load hot path.
	beganNS int64
}

// StepStats aggregates one iteration of a run: where its time went and
// what it moved. Durations are microseconds.
type StepStats struct {
	// Iteration is the zero-based iteration index.
	Iteration int `json:"iteration"`
	// Edges is the number of edges gathered during this iteration.
	Edges int64 `json:"edges"`
	// BlocksHit counts sub-shard block acquisitions served from cache.
	BlocksHit int64 `json:"blocks_hit"`
	// BlocksMiss counts acquisitions that decoded from disk.
	BlocksMiss int64 `json:"blocks_miss"`
	// BytesRead/BytesWritten are the store's disk traffic during the
	// iteration (attributes and hubs included).
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	// StallUS is time the step loop spent waiting for a prefetched
	// batch while no gather task was pending — I/O the pipeline failed
	// to hide.
	StallUS int64 `json:"stall_us"`
	// ComputeUS is the rest of the iteration's wall time (gather,
	// fold, apply).
	ComputeUS int64 `json:"compute_us"`
	// DurUS is the iteration's total wall time (stall + compute).
	DurUS int64 `json:"dur_us"`
}

// DefaultCapacity is the span ring bound used when New is given a
// non-positive capacity.
const DefaultCapacity = 4096

// maxSteps bounds the per-iteration stats independently of the span
// ring (iterations are far rarer than spans).
const maxSteps = 65536

// Trace records one run's spans and per-iteration stats. Create with
// New; a nil *Trace is valid and records nothing.
type Trace struct {
	start time.Time
	cap   int
	ids   atomic.Uint64

	mu      sync.Mutex
	spans   []Span
	next    int // ring write index once len(spans) == cap
	dropped int64
	steps   []StepStats
}

// New creates a trace whose span buffer holds at most capacity spans
// (DefaultCapacity when capacity <= 0). The buffer grows on demand up
// to the bound, then overwrites the oldest spans.
func New(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Trace{start: time.Now(), cap: capacity}
}

// Start opens a span. The returned value must be passed to End to be
// recorded; until then it exists only on the caller's stack, so
// unfinished spans never leak. On a nil trace it returns a zero Span.
func (t *Trace) Start(kind Kind, name string, parent uint64) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		ID:      t.ids.Add(1),
		Parent:  parent,
		Kind:    kind,
		Name:    name,
		beganNS: int64(time.Since(t.start)),
	}
}

// End closes and records a span, returning its duration. Ending a zero
// Span (from a nil trace's Start) is a no-op.
func (t *Trace) End(s Span) time.Duration {
	if t == nil || s.ID == 0 {
		return 0
	}
	d := t.CloseSpan(&s)
	t.mu.Lock()
	t.recordLocked(s)
	t.mu.Unlock()
	return d
}

// Clock returns the monotonic offset from the trace start in
// nanoseconds — the raw timestamp Make consumes. Zero on a nil trace.
func (t *Trace) Clock() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.start))
}

// Make builds a fully-timed span from Clock timestamps, for hot loops
// that sample raw clock offsets and only materialize the few spans
// worth recording. Pass the result to Record. Zero Span on nil trace.
func (t *Trace) Make(kind Kind, name string, parent uint64, startNS, durNS int64) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		ID:      t.ids.Add(1),
		Parent:  parent,
		Kind:    kind,
		Name:    name,
		StartUS: startNS / 1e3,
		DurUS:   durNS / 1e3,
	}
}

// CloseSpan finalizes s's timing in place without recording it,
// returning its duration. Pair with Record to batch many spans from a
// tight loop into one lock acquisition. No-op on a nil trace or a zero
// span.
func (t *Trace) CloseSpan(s *Span) time.Duration {
	if t == nil || s.ID == 0 {
		return 0
	}
	d := time.Since(t.start) - time.Duration(s.beganNS)
	s.StartUS = s.beganNS / 1e3
	s.DurUS = d.Microseconds()
	return d
}

// Record appends already-closed spans (see CloseSpan) under one lock
// acquisition, preserving their slice order.
func (t *Trace) Record(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for _, s := range spans {
		t.recordLocked(s)
	}
	t.mu.Unlock()
}

func (t *Trace) recordLocked(s Span) {
	if len(t.spans) < t.cap {
		if t.spans == nil {
			// Start the buffer at a real size: a run records hundreds of
			// spans, so growing from 1 would pay several copy-and-double
			// rounds per run. 256 fits a typical short run exactly;
			// longer runs pay one doubling.
			t.spans = make([]Span, 0, min(t.cap, 256))
		}
		t.spans = append(t.spans, s)
	} else {
		t.spans[t.next] = s
		t.next = (t.next + 1) % t.cap
		t.dropped++
	}
}

// AddStep records one iteration's aggregate stats.
func (t *Trace) AddStep(s StepStats) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.steps) < maxSteps {
		t.steps = append(t.steps, s)
	}
	t.mu.Unlock()
}

// Timeline is a consistent snapshot of a trace, shaped for JSON.
type Timeline struct {
	// StartedAt is the wall-clock time the trace began.
	StartedAt time.Time `json:"started_at"`
	// Spans is the recorded timeline, in completion order (spans end
	// in the order they finish, so parents follow their children).
	Spans []Span `json:"spans"`
	// Steps is the per-iteration stats series.
	Steps []StepStats `json:"steps"`
	// DroppedSpans counts spans overwritten by the ring bound.
	DroppedSpans int64 `json:"dropped_spans,omitempty"`
}

// Snapshot returns a copy of everything recorded so far. Safe to call
// concurrently with recording; on a nil trace it returns an empty
// timeline.
func (t *Trace) Snapshot() Timeline {
	if t == nil {
		return Timeline{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]Span, 0, len(t.spans))
	// Unwrap the ring: oldest surviving span first.
	spans = append(spans, t.spans[t.next:]...)
	spans = append(spans, t.spans[:t.next]...)
	steps := make([]StepStats, len(t.steps))
	copy(steps, t.steps)
	return Timeline{
		StartedAt:    t.start,
		Spans:        spans,
		Steps:        steps,
		DroppedSpans: t.dropped,
	}
}

// Spans returns a copy of the recorded spans (see Timeline.Spans).
func (t *Trace) Spans() []Span { return t.Snapshot().Spans }

// Steps returns a copy of the per-iteration stats series.
func (t *Trace) Steps() []StepStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	steps := make([]StepStats, len(t.steps))
	copy(steps, t.steps)
	return steps
}
