package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nxgraph/internal/diskio"
	"nxgraph/internal/storage"
	"nxgraph/internal/trace"
)

// BatchControl is the per-lane control surface of a run, handed to
// callers that need to steer individual queries (the serving layer
// cancels one job's lane without touching its siblings).
type BatchControl interface {
	// Width returns the number of lanes.
	Width() int
	// CancelLane requests cancellation of lane l. The request takes
	// effect at the next iteration boundary: the lane stops computing,
	// its FinishLanes slot becomes nil, and sibling lanes are unaffected.
	// Cancelling a lane that already converged is a no-op (its result
	// stands). Safe to call from any goroutine.
	CancelLane(l int)
}

// lane is one program of a Run and everything that belongs to that
// program alone: its optional extensions, its frontier, and its
// lifecycle. Lanes share the run's sweep over the graph and nothing else.
type lane struct {
	p     Program
	agg   GlobalAggregator
	la    LaneApplier    // nil: per-vertex Apply
	laggr LaneAggregator // nil: serial AggVertex fold
	dense bool

	// active[i] reports that interval i holds vertices this lane changed
	// last iteration (the frontier). A lane with no active interval
	// retires: done is set and its values carry forward while siblings
	// continue. cancelReq is written by CancelLane (any goroutine) and
	// folded into done/cancelled at iteration boundaries.
	active    []bool
	done      bool
	cancelled bool
	cancelReq atomic.Bool

	iters  int
	edges  int64
	aggVal float64 // this iteration's global aggregate while it is folded

	span      trace.Span // zero for one-lane runs
	spanEnded bool
}

func (ln *lane) hasWork() bool { return slices.Contains(ln.active, true) }

// Run is one execution in progress: L programs ("lanes", L = 1 included)
// advanced together by one iteration loop. It exposes iteration-level
// stepping so algorithms can orchestrate multi-phase computations (SCC's
// alternating forward/backward fixpoints, HITS' alternating half-steps).
//
// Per-vertex state is a lane-minor slab — state[v*L+l] is lane l's
// attribute of vertex v, which at L = 1 is the plain attribute array — so
// one decoded sub-shard block feeds every lane while it is hot in cache:
// the edge decode, degree load and loop bookkeeping are paid once per
// edge instead of once per edge per query. Every lane keeps its own
// frontier, counters, global aggregate and convergence state, and the
// per-destination fold order never depends on L, so each lane's result
// is bit-identical to running its program alone.
//
// The loop realizes all three update strategies in one body, exactly as
// the paper frames them: MPU with Q resident intervals, where Q = P
// degenerates to SPU (no hubs, no attribute I/O) and Q = 0 to DPU (every
// interval via hubs). Each iteration runs:
//
//	row phase     — Algorithm 7 lines 1–16: for every active source
//	                interval, gather into resident accumulators
//	                (SPU-like) and into hubs for on-disk destinations
//	                (ToHub);
//	column phase  — lines 17–26: for every on-disk destination interval,
//	                fold resident-source contributions and hubs, apply,
//	                write back (FromHub);
//	apply phase   — finalize resident intervals and ping-pong swap.
//
// A run has this one shape at every width. The strategy follows the
// memory budget with Ba·L bytes per vertex (see chooseStrategy), and the
// on-disk intervals and hubs hold L lane-minor values per vertex and per
// hub entry. Only SetAttrs needs L = 1. Lanes must share one
// Zero value and one direction. A run over one replica (Forward or
// Reverse) does not depend on Q — every destination folds its cells in
// ascending source-interval order, resident or through a hub — so each
// lane is bitwise equal to its one-lane run whatever Q either resolves
// to; that covers every fused entry point. Over both replicas a sum fold
// associates by Q, so there a lane equals the one-lane run with its Q.
//
// Sub-shard reads flow through the engine's shared block cache with a
// prefetch pipeline per phase (see prefetch.go): runs on the same store
// reuse each other's decoded blocks, and misses load in the background
// while the batches before them compute.
type Run struct {
	e *Engine

	lanes   []lane // L of them
	dir     Direction
	strat   Strategy
	q       int
	resEnd  uint32
	threads int
	chunk   int

	// op is the fold of the kernel hint every lane declares (opGeneric
	// unless they all agree), zero their shared Sum identity. chunkCost is
	// the edge-balanced gather task size (see gatherChunkCost).
	op        laneOp
	zero      float64
	chunkCost int

	// curr/next are the ping-pong slabs over the resident vertices, index
	// v*L+l. accClean records "next holds Zero everywhere": true after a
	// completed step (the apply phase re-zeroes the outgoing curr chunk by
	// chunk while it is cache-hot), false initially — pooled slabs arrive
	// dirty — and after an aborted step.
	curr, next []float64
	accClean   bool

	// useScaled marks a RankSum run: the per-edge division Gather performs
	// is hoisted into scaled[d] (resident vertices, one slab per traversal
	// flag because each divides by its own degree array) with exactly the
	// operands Gather would use, so the edge loop is additions only. The
	// apply phase refreshes it chunk-hot (scaledReady); the standalone
	// sweep runs only when no apply has primed it. scaledBuf is the same
	// for an interval streamed from disk (Q < P).
	useScaled   bool
	scaled      [2][]float64
	scaledBuf   [2][]float64
	scaledReady bool

	attrs *storage.AttrStore
	hubs  [2]*storage.HubStore

	// ov is the delta-overlay snapshot captured at construction (nil
	// without pending deltas) and shared by every lane; ovOut/ovIn are its
	// adjusted degree arrays, and ovHub holds in-memory per-cell partials
	// for overlay edges whose destination interval is on disk (keyed
	// i*P+j per traversal flag).
	ov    Overlay
	ovOut []uint32
	ovIn  []uint32
	ovHub [2]map[int][]float64

	iter     int
	edges    int64 // summed over lanes
	finished bool
	closed   bool

	ctx      context.Context // nil outside StepContext
	progress ProgressFunc

	loadBuf []float64 // streamed interval attributes, L per vertex (row phase, Q < P)
	accBuf  []float64 // column accumulator, L per vertex
	oldBuf  []float64 // column old attributes, L per vertex

	errMu    sync.Mutex
	asyncErr error

	startIO diskio.StatsSnapshot
	started time.Time

	// tr records the run's span timeline (nil when Config.TraceSpans is
	// negative — every instrumentation call is then inert). iterSpanID is
	// the current iteration's span, read by the loaders (the prefetch
	// goroutines, and a step loading cells of a batch it waits on) and
	// the step's pool to parent their spans; iterHits/iterMisses count the
	// loaders' block acquisitions. stallNS accumulates the fetch-batch
	// wait time during which no gather task was pending and is touched
	// only by the step loop.
	tr         *trace.Trace
	runSpan    trace.Span
	runEnded   bool
	iterSpanID atomic.Uint64
	iterHits   atomic.Int64
	iterMisses atomic.Int64
	stallNS    int64
}

// NewRun initializes a run of p over the engine's store in direction dir.
func (e *Engine) NewRun(p Program, dir Direction) (*Run, error) {
	return e.NewBatchRun([]Program{p}, dir)
}

// NewBatchRun initializes a run of the given programs, one lane each,
// over the engine's store in direction dir, under the strategy the
// memory budget allows L lanes (chooseStrategy). All programs must share
// the same Zero value. The delta-overlay snapshot, if any, is captured
// once and shared by every lane — callers fusing queries must ensure they
// may legally observe the same graph version.
func (e *Engine) NewBatchRun(ps []Program, dir Direction) (*Run, error) {
	L := len(ps)
	if L == 0 {
		return nil, fmt.Errorf("engine: a run needs at least one program")
	}
	if err := e.validateDirection(dir); err != nil {
		return nil, err
	}
	m := e.store.Meta()
	strat, q := e.chooseStrategy(L)
	zero, hint := ps[0].Zero(), commonHint(ps)
	for l := 1; l < L; l++ {
		if math.Float64bits(ps[l].Zero()) != math.Float64bits(zero) {
			return nil, fmt.Errorf("engine: batch lanes must share one Zero value (lane %d: %v, lane 0: %v)", l, ps[l].Zero(), zero)
		}
	}
	r := &Run{
		e:       e,
		lanes:   make([]lane, L),
		dir:     dir,
		strat:   strat,
		q:       q,
		threads: e.cfg.threads(),
		chunk:   chunkDsts,
		op:      opFor(hint),
		zero:    zero,
		started: time.Now(),
		startIO: e.store.Disk().Stats().Snapshot(),
	}
	if e.cfg.TraceSpans >= 0 {
		r.tr = trace.New(e.cfg.TraceSpans)
		name := ps[0].Name()
		if L > 1 {
			name += "-batch"
		}
		r.runSpan = r.tr.Start(trace.KindRun, name, 0)
		r.iterSpanID.Store(r.runSpan.ID)
	}
	osp := r.tr.Start(trace.KindOverlay, "overlay-snapshot", r.runSpan.ID)
	if err := r.initOverlay(); err != nil {
		return nil, err
	}
	if r.ov != nil {
		r.tr.End(osp)
	}
	for l, p := range ps {
		ln := &r.lanes[l]
		ln.p = p
		ln.agg, _ = p.(GlobalAggregator)
		ln.la, _ = p.(LaneApplier)
		ln.laggr, _ = p.(LaneAggregator)
		_, dense := p.(DenseApply)
		ln.dense = dense || ln.agg != nil
		ln.active = make([]bool, m.P)
		if L > 1 && r.tr != nil {
			ln.span = r.tr.Start(trace.KindLane, spanName("lane-", l), r.runSpan.ID)
		}
	}
	r.chunkCost = gatherChunkCost(L, r.chunk)
	r.useScaled = hint == KernelRankSum
	r.resEnd = min(uint32(q)*m.IntervalSize(), m.NumVertices)
	size := int(r.resEnd) * L
	r.curr, r.next = e.getSlab(L, size), e.getSlab(L, size)
	if r.useScaled {
		for _, d := range r.dirsUsed() {
			// Dirty pooled contents are fine: the refresh overwrites every
			// slot the gather reads before the first row phase.
			r.scaled[d] = e.getSlab(L, size)
		}
	}
	if q < m.P {
		maxLen := 0
		for k := 0; k < m.P; k++ {
			maxLen = max(maxLen, m.IntervalLen(k)*L)
		}
		r.loadBuf = make([]float64, maxLen)
		r.accBuf = make([]float64, maxLen)
		r.oldBuf = make([]float64, maxLen)
		if r.useScaled {
			for _, d := range r.dirsUsed() {
				r.scaledBuf[d] = make([]float64, maxLen)
			}
		}
	}
	if err := r.initAttrs(); err != nil {
		r.Close()
		return nil, err
	}
	if err := r.openHubs(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// commonHint resolves the run's kernel specialization: the shared hint
// if every lane declares the same one, else generic.
func commonHint(ps []Program) KernelHint {
	h := KernelGeneric
	if fk, ok := ps[0].(FusedKernel); ok {
		h = fk.FusedKernelHint()
	}
	for _, p := range ps[1:] {
		fk, ok := p.(FusedKernel)
		if !ok || fk.FusedKernelHint() != h {
			return KernelGeneric
		}
	}
	return h
}

// gatherChunkCost sizes a gather task: a chunk closes once its edges +
// destinations reach the returned cost (see edgeChunkRanges). One
// destination costs about one unit of task overhead plus one unit per
// in-edge; 4x the destination-count chunk size keeps task counts
// comparable to destination-count chunking on typical sparse cells while
// splitting hub-heavy ranges by edge mass. A wide run's edge is
// several times dearer than a one-lane run's (it touches L attributes;
// ~5x at L = 16), so the budget shrinks with L — but never below chunk,
// which still amortizes a task's completion atomic and its two turns
// through the pool's lock.
func gatherChunkCost(L, chunk int) int {
	return max(1, 4*chunk/min(L, 4))
}

// dirsUsed lists the transpose flags the run traverses (index 0 =
// forward, 1 = reverse).
func (r *Run) dirsUsed() []int {
	switch r.dir {
	case Forward:
		return []int{0}
	case Reverse:
		return []int{1}
	default:
		return []int{0, 1}
	}
}

// degOf returns the source-degree array for a traversal flag,
// overlay-adjusted when a delta snapshot is installed.
func (r *Run) degOf(d int) []uint32 {
	if d == 1 {
		if r.ovIn != nil {
			return r.ovIn
		}
		return r.e.inDeg
	}
	if r.ovOut != nil {
		return r.ovOut
	}
	return r.e.outDeg
}

// primaryDeg is the degree array handed to lane GlobalAggregators.
func (r *Run) primaryDeg() []uint32 {
	if r.dir == Reverse {
		return r.degOf(1)
	}
	return r.degOf(0)
}

func (r *Run) setErr(err error) {
	r.errMu.Lock()
	if r.asyncErr == nil {
		r.asyncErr = err
	}
	r.errMu.Unlock()
}

func (r *Run) takeErr() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	err := r.asyncErr
	r.asyncErr = nil
	return err
}

// initAttrs runs every lane's Init over every vertex, populating the
// resident slab in memory (in parallel vertex chunks, interval activity
// reduced per chunk) and on-disk intervals through the attribute store.
func (r *Run) initAttrs() error {
	m := r.e.store.Meta()
	L, P := len(r.lanes), m.P
	bounds := chunkRanges(int(r.resEnd), 1<<14)
	act := make([][]bool, len(bounds)-1) // per chunk: [l*P+k] activity
	pool := r.newGatherPool(0)
	pool.run(len(bounds)-1, func(c int) {
		local := make([]bool, L*P)
		for v := bounds[c]; v < bounds[c+1]; v++ {
			k := m.IntervalOf(uint32(v))
			for l := range r.lanes {
				attr, a := r.lanes[l].p.Init(uint32(v))
				r.curr[v*L+l] = attr
				if a {
					local[l*P+k] = true
				}
			}
		}
		act[c] = local
	})
	pool.stop()
	for _, local := range act {
		for x, a := range local {
			if a {
				r.lanes[x/P].active[x%P] = true
			}
		}
	}
	if r.q == P {
		return nil
	}
	var err error
	if r.attrs, err = r.e.store.CreateAttrs(L); err != nil {
		return err
	}
	for k := r.q; k < P; k++ {
		lo, hi := m.IntervalRange(k)
		buf := r.loadBuf[:int(hi-lo)*L]
		for v := lo; v < hi; v++ {
			for l := range r.lanes {
				attr, act := r.lanes[l].p.Init(v)
				buf[int(v-lo)*L+l] = attr
				if act {
					r.lanes[l].active[k] = true
				}
			}
		}
		if err := r.attrs.WriteInterval(k, buf); err != nil {
			return err
		}
	}
	return nil
}

func (r *Run) openHubs() error {
	if r.q == r.e.store.Meta().P {
		return nil
	}
	for _, d := range r.dirsUsed() {
		h, err := r.e.store.CreateHubs(d == 1, len(r.lanes))
		if err != nil {
			return err
		}
		r.hubs[d] = h
	}
	return nil
}

// SetProgress installs a per-iteration progress observer (nil to clear).
// Progress aggregates over the lanes: Edges is the summed per-lane
// traversal count and ActiveIntervals the union frontier size.
func (r *Run) SetProgress(f ProgressFunc) { r.progress = f }

// checkCtx reports the context's error, if any. It is consulted at
// iteration boundaries and between sub-shard batches (rows and columns),
// so cancellation latency is one row/column of gathering, not a whole
// iteration.
func (r *Run) checkCtx() error {
	if r.ctx == nil {
		return nil
	}
	select {
	case <-r.ctx.Done():
		return r.ctx.Err()
	default:
		return nil
	}
}

// notifyProgress reports the completed iteration to the observer.
func (r *Run) notifyProgress() {
	if r.progress == nil {
		return
	}
	seen := make([]bool, r.e.store.Meta().P)
	n := 0
	for l := range r.lanes {
		if r.lanes[l].done {
			continue
		}
		for k, a := range r.lanes[l].active {
			if a && !seen[k] {
				seen[k] = true
				n++
			}
		}
	}
	r.progress(Progress{
		Iteration:       r.iter,
		Edges:           r.edges,
		ActiveIntervals: n,
		Elapsed:         time.Since(r.started),
	})
}

// Strategy returns the resolved update strategy.
func (r *Run) Strategy() Strategy { return r.strat }

// ResidentIntervals returns Q.
func (r *Run) ResidentIntervals() int { return r.q }

// Iterations returns the number of iterations executed so far (the
// maximum over lanes; see LaneIterations for one lane's count).
func (r *Run) Iterations() int { return r.iter }

// Width returns the number of lanes.
func (r *Run) Width() int { return len(r.lanes) }

// CancelLane implements BatchControl.
func (r *Run) CancelLane(l int) {
	if l >= 0 && l < len(r.lanes) {
		r.lanes[l].cancelReq.Store(true)
	}
}

// LaneCancelled reports whether lane l's cancellation took effect (its
// FinishLanes slot will be nil).
func (r *Run) LaneCancelled(l int) bool { return r.lanes[l].cancelled }

// LaneIterations returns the number of iterations lane l participated in.
func (r *Run) LaneIterations(l int) int { return r.lanes[l].iters }

// revive lets retired (not cancelled) lanes step again.
func (r *Run) revive() {
	r.finished = false
	for l := range r.lanes {
		r.lanes[l].done = r.lanes[l].cancelled
	}
}

// ActivateAll marks every interval active in every lane, forcing at
// least one more full iteration.
func (r *Run) ActivateAll() {
	for l := range r.lanes {
		for k := range r.lanes[l].active {
			r.lanes[l].active[k] = true
		}
	}
	r.revive()
}

// ActivateVertex marks the interval owning v active in every lane.
func (r *Run) ActivateVertex(v uint32) {
	k := r.e.store.Meta().IntervalOf(v)
	for l := range r.lanes {
		r.lanes[l].active[k] = true
	}
	r.revive()
}

// ResetIterations zeroes the iteration counters (the MaxIterations
// budget), for callers that drive multiple phases through one Run.
func (r *Run) ResetIterations() {
	r.iter = 0
	for l := range r.lanes {
		r.lanes[l].iters = 0
	}
	r.revive()
}

// Attrs returns a snapshot of all vertex attributes of lane 0 — the only
// lane of a NewRun run.
func (r *Run) Attrs() ([]float64, error) {
	if r.closed {
		return nil, fmt.Errorf("engine: Attrs on closed run")
	}
	out := make([][]float64, len(r.lanes))
	out[0] = make([]float64, r.e.store.Meta().NumVertices)
	if err := r.copyOut(out); err != nil {
		return nil, err
	}
	return out[0], nil
}

// copyOut fills every non-nil out[l] with lane l's attributes: the
// resident slab, then each on-disk interval through loadBuf.
func (r *Run) copyOut(out [][]float64) error {
	m := r.e.store.Meta()
	L := len(r.lanes)
	scatterLanes(out, r.curr, L, 0)
	for k := r.q; k < m.P; k++ {
		lo, hi := m.IntervalRange(k)
		buf := r.loadBuf[:int(hi-lo)*L]
		if err := r.attrs.ReadInterval(k, buf); err != nil {
			return err
		}
		scatterLanes(out, buf, L, lo)
	}
	return nil
}

// scatterLanes copies the lane-minor window vals, whose first vertex is
// lo, into every non-nil out[l]. Wide windows copy in vertex chunks:
// within a chunk the window stays cache-resident while each lane's
// strided reads sweep it, and each lane's writes run sequentially —
// against both a full lane-major pass (strided reads miss on every
// vertex) and a vertex-major pass (re-walks all L slice headers per
// vertex).
func scatterLanes(out [][]float64, vals []float64, L int, lo uint32) {
	const chunkV = 1 << 10 // ≈512KiB of slab per chunk at L=64
	n := len(vals) / L
	for v0 := 0; v0 < n; v0 += chunkV {
		v1 := min(v0+chunkV, n)
		for l, a := range out {
			if a == nil {
				continue
			}
			if a = a[lo:]; L == 1 {
				copy(a[v0:v1], vals[v0:v1])
				continue
			}
			for v := v0; v < v1; v++ {
				a[v] = vals[v*L+l]
			}
		}
	}
}

// SetAttrs overwrites all vertex attributes of a one-lane run.
func (r *Run) SetAttrs(a []float64) error {
	if r.closed {
		return fmt.Errorf("engine: SetAttrs on closed run")
	}
	m := r.e.store.Meta()
	if len(r.lanes) != 1 {
		return fmt.Errorf("engine: SetAttrs needs a one-lane run, this one has %d", len(r.lanes))
	}
	if len(a) != int(m.NumVertices) {
		return fmt.Errorf("engine: SetAttrs got %d values, want %d", len(a), m.NumVertices)
	}
	copy(r.curr, a[:r.resEnd])
	r.scaledReady = false
	for k := r.q; k < m.P; k++ {
		lo, hi := m.IntervalRange(k)
		if lo == hi {
			continue
		}
		if err := r.attrs.WriteInterval(k, a[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// Close releases run resources: its scratch attribute and hub files go,
// and a wide run's slabs return to the engine's pool. Step, Attrs, SetAttrs,
// Finish and FinishLanes fail on a closed run.
func (r *Run) Close() {
	if r.closed {
		return
	}
	r.closed = true
	if r.attrs != nil {
		r.attrs.Close()
	}
	for _, h := range r.hubs {
		if h != nil {
			h.Close()
		}
	}
	r.e.putSlab(len(r.lanes), r.curr, r.next, r.scaled[0], r.scaled[1])
	r.curr, r.next, r.scaled = nil, nil, [2][]float64{}
}

// Trace returns the run's trace, nil when tracing is disabled.
func (r *Run) Trace() *trace.Trace { return r.tr }

// endLaneSpan closes a lane's trace span. tag is empty for normal
// completion, "cancelled" for a cancelled lane.
func (r *Run) endLaneSpan(ln *lane, tag string) {
	if ln.span.ID == 0 || ln.spanEnded {
		return
	}
	ln.spanEnded = true
	ln.span.Tag = tag
	ln.span.Count = int64(ln.iters)
	r.tr.End(ln.span)
}

// FinishLanes assembles one Result per lane: final attributes plus the
// lane's own iteration and edge counters. Cancelled lanes yield nil. The
// IO snapshot, elapsed time, and trace are shared — they describe the
// run that served every lane. The run remains usable afterwards.
func (r *Run) FinishLanes() ([]*Result, error) {
	if r.closed {
		return nil, fmt.Errorf("engine: FinishLanes on closed run")
	}
	out := make([]*Result, len(r.lanes))
	attrs := make([][]float64, len(r.lanes))
	for l := range r.lanes {
		if !r.lanes[l].cancelled {
			attrs[l] = make([]float64, r.e.store.Meta().NumVertices)
		}
	}
	if err := r.copyOut(attrs); err != nil {
		return nil, err
	}
	for l := range r.lanes {
		r.endLaneSpan(&r.lanes[l], "") // lanes still running (fixed-iteration drivers) close here
	}
	if r.tr != nil && !r.runEnded {
		r.runEnded = true
		r.tr.End(r.runSpan)
	}
	io := r.e.store.Disk().Stats().Snapshot().Sub(r.startIO)
	elapsed := time.Since(r.started)
	for l := range r.lanes {
		if attrs[l] == nil {
			continue
		}
		out[l] = &Result{
			Attrs:             attrs[l],
			Iterations:        r.lanes[l].iters,
			Strategy:          r.strat,
			ResidentIntervals: r.q,
			EdgesTraversed:    r.lanes[l].edges,
			IO:                io,
			Elapsed:           elapsed,
			Trace:             r.tr,
		}
	}
	return out, nil
}

// Finish is FinishLanes for the caller of a one-program run: lane 0's
// Result, or an error when that lane was cancelled.
func (r *Run) Finish() (*Result, error) {
	if r.closed {
		return nil, fmt.Errorf("engine: Finish on closed run")
	}
	res, err := r.FinishLanes()
	if err != nil {
		return nil, err
	}
	if res[0] == nil {
		return nil, fmt.Errorf("engine: lane 0 was cancelled")
	}
	return res[0], nil
}
