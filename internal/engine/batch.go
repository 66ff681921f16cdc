package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"nxgraph/internal/diskio"
	"nxgraph/internal/storage"
	"nxgraph/internal/trace"
)

// BatchControl is the per-lane control surface of a fused batch run,
// handed to callers that need to steer individual queries (the serving
// layer cancels one job's lane without touching its siblings).
type BatchControl interface {
	// Width returns the number of lanes.
	Width() int
	// CancelLane requests cancellation of lane l. The request takes
	// effect at the next iteration boundary: the lane stops computing,
	// its Finish result becomes nil, and sibling lanes are unaffected.
	// Cancelling a lane that already converged is a no-op (its result
	// stands). Safe to call from any goroutine.
	CancelLane(l int)
}

// BatchRun executes a batch of Programs in one fused sweep over the
// graph — the answer to NXgraph's "every decoded edge byte should do
// maximum work" applied across queries instead of within one. Per-vertex
// state is laid out SoA-style, lane-minor (state[v*L+l] is lane l's
// attribute of vertex v), so one decoded sub-shard block feeds all L
// lanes while it is hot in cache: the edge decode, degree load, and loop
// bookkeeping are paid once per edge instead of once per edge per query.
//
// Every lane keeps its own frontier (per-interval activity), iteration
// and edge counters, global aggregate, and convergence state; a lane
// whose intervals all go inactive freezes (its values carry forward)
// while siblings continue. All lane state is memory-resident regardless
// of the engine's strategy — the fused sweep is SPU-shaped — and the
// per-destination fold order matches the scalar row phase exactly, so
// each lane's result is bit-identical to a scalar Run of its program
// (hub folding in DPU/MPU inserts only exact-identity operations, so
// scalar strategies agree with each other bit-for-bit too).
//
// Lanes must share one Zero value and one traversal direction; the
// source-sorted ablation order is not supported. Create with
// NewBatchRun, drive with Step/StepContext, collect with Finish.
type BatchRun struct {
	// fetcher carries the read path (block cache access, prefetch
	// pipeline, fetch tracing) shared with the scalar Run.
	fetcher

	ps      []Program
	aggs    []GlobalAggregator
	lapply  []LaneApplier    // nil entries fall back to per-vertex Apply
	laggs   []LaneAggregator // nil entries fall back to AggVertex folds
	dense   []bool
	dir     Direction
	hint    KernelHint
	lcount  int // lane count L
	threads int
	chunk   int

	// curr/next are the SoA ping-pong arrays: index v*L+l.
	curr, next []float64

	// scaled[d] holds, for KernelRankSum batches, this iteration's
	// per-lane Gather values curr[v*L+l]/deg[v] for traversal flag d.
	// Hoisting the division out of the edge loop turns the fused rank
	// kernel into pure additions: edges×L divisions become vertices×L.
	// After the first iteration the apply phase refreshes it in place
	// while the chunk is cache-hot (scaledReady), so the standalone
	// computeScaled sweep only runs on iteration one.
	scaled      [2][]float64
	scaledReady bool

	// active[l][i] is lane l's frontier: interval i has lane-l-active
	// vertices. done/cancelled/laneIters/laneEdges are per-lane run
	// state; cancelReq is written by CancelLane (any goroutine) and
	// folded into done at iteration boundaries.
	active    [][]bool
	done      []bool
	cancelled []bool
	laneIters []int
	laneEdges []int64
	cancelReq []atomic.Bool

	zero float64 // the lanes' shared Sum identity

	ov    Overlay
	ovOut []uint32
	ovIn  []uint32

	locks []sync.Mutex

	iter     int
	edges    int64
	finished bool
	closed   bool

	ctx      context.Context // nil outside StepContext
	progress ProgressFunc

	startIO diskio.StatsSnapshot
	started time.Time

	runSpan   trace.Span
	runEnded  bool
	laneSpans []trace.Span
	laneEnded []bool
}

// NewBatchRun initializes a fused run of the given programs (one lane
// each) over the engine's store in direction dir. All programs must
// share the same Zero value; the engine must not be configured with the
// source-sorted ablation order. The delta-overlay snapshot, if any, is
// captured once and shared by every lane — callers fusing queries must
// ensure they may legally observe the same graph version.
func (e *Engine) NewBatchRun(ps []Program, dir Direction) (*BatchRun, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("engine: batch run needs at least one program")
	}
	if err := e.validateDirection(dir); err != nil {
		return nil, err
	}
	if e.cfg.Order == SrcSortedCoarse {
		return nil, fmt.Errorf("engine: source-sorted ablation does not support fused batch runs")
	}
	zero := ps[0].Zero()
	for l := 1; l < len(ps); l++ {
		if math.Float64bits(ps[l].Zero()) != math.Float64bits(zero) {
			return nil, fmt.Errorf("engine: batch lanes must share one Zero value (lane %d: %v, lane 0: %v)", l, ps[l].Zero(), zero)
		}
	}
	m := e.store.Meta()
	L := len(ps)
	b := &BatchRun{
		ps:      ps,
		dir:     dir,
		lcount:  L,
		zero:    zero,
		threads: e.cfg.threads(),
		chunk:   e.cfg.chunk(),
		started: time.Now(),
		startIO: e.store.Disk().Stats().Snapshot(),
	}
	b.fetcher.e = e
	if e.cfg.TraceSpans >= 0 {
		b.tr = trace.New(e.cfg.TraceSpans)
		b.runSpan = b.tr.Start(trace.KindRun, ps[0].Name()+"-batch", 0)
		b.iterSpanID.Store(b.runSpan.ID)
		b.laneSpans = make([]trace.Span, L)
		for l := range ps {
			b.laneSpans[l] = b.tr.Start(trace.KindLane, spanName("lane-", l), b.runSpan.ID)
		}
	}
	osp := b.tr.Start(trace.KindOverlay, "overlay-snapshot", b.runSpan.ID)
	if e.overlayProvider != nil {
		ov, err := e.overlayProvider()
		if err != nil {
			return nil, fmt.Errorf("engine: overlay snapshot: %w", err)
		}
		if ov != nil {
			b.ov = ov
			b.ovOut, b.ovIn = ov.Degrees()
			b.tr.End(osp)
		}
	}
	b.hint = commonHint(ps)
	b.aggs = make([]GlobalAggregator, L)
	b.lapply = make([]LaneApplier, L)
	b.laggs = make([]LaneAggregator, L)
	b.dense = make([]bool, L)
	for l, p := range ps {
		if a, ok := p.(GlobalAggregator); ok {
			b.aggs[l] = a
		}
		if la, ok := p.(LaneApplier); ok {
			b.lapply[l] = la
		}
		if la, ok := p.(LaneAggregator); ok {
			b.laggs[l] = la
		}
		if _, ok := p.(DenseApply); ok || b.aggs[l] != nil {
			b.dense[l] = true
		}
	}
	n := int(m.NumVertices)
	b.curr = e.getBatchBuf(n * L)
	b.next = e.getBatchBuf(n * L)
	// The accumulator must hold the lanes' Zero before the first gather
	// (pooled buffers arrive dirty); later iterations re-zero it
	// chunkwise during apply.
	zeroSlab(b.next, zero)
	b.active = make([][]bool, L)
	for l := range b.active {
		b.active[l] = make([]bool, m.P)
	}
	b.done = make([]bool, L)
	b.cancelled = make([]bool, L)
	b.laneIters = make([]int, L)
	b.laneEdges = make([]int64, L)
	b.cancelReq = make([]atomic.Bool, L)
	b.laneEnded = make([]bool, L)
	b.locks = make([]sync.Mutex, m.P)
	if b.hint == KernelRankSum {
		for _, d := range b.dirsUsed() {
			// Dirty pooled contents are fine: computeScaled overwrites
			// every slot the gather reads before the first row phase.
			b.scaled[d] = e.getBatchBuf(n * L)
		}
	}
	b.initAttrs()
	return b, nil
}

// commonHint resolves the batch's kernel specialization: the shared
// non-generic hint if every lane declares the same one, else generic.
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

// initAttrs runs every lane's Init over every vertex, populating the SoA
// current array and the per-lane interval activity. Interval activity is
// written under a per-interval reduction so vertex chunks parallelize.
func (b *BatchRun) initAttrs() {
	m := b.e.store.Meta()
	n := int(m.NumVertices)
	L := b.lcount
	bounds := chunkRanges(n, 1<<14)
	act := make([][]bool, len(bounds)-1) // per-chunk [l*P+k] activity
	P := m.P
	parallelFor(b.threads, len(bounds)-1, func(c int) {
		local := make([]bool, L*P)
		for v := bounds[c]; v < bounds[c+1]; v++ {
			k := m.IntervalOf(uint32(v))
			for l, p := range b.ps {
				attr, a := p.Init(uint32(v))
				b.curr[v*L+l] = attr
				if a {
					local[l*P+k] = true
				}
			}
		}
		act[c] = local
	})
	for _, local := range act {
		for l := 0; l < L; l++ {
			for k := 0; k < P; k++ {
				if local[l*P+k] {
					b.active[l][k] = true
				}
			}
		}
	}
}

// Width returns the number of lanes.
func (b *BatchRun) Width() int { return b.lcount }

// CancelLane implements BatchControl.
func (b *BatchRun) CancelLane(l int) {
	if l >= 0 && l < b.lcount {
		b.cancelReq[l].Store(true)
	}
}

// LaneCancelled reports whether lane l's cancellation took effect (its
// Finish result will be nil).
func (b *BatchRun) LaneCancelled(l int) bool { return b.cancelled[l] }

// LaneIterations returns the number of iterations lane l participated in.
func (b *BatchRun) LaneIterations(l int) int { return b.laneIters[l] }

// SetProgress installs a per-iteration progress observer (nil to clear).
// Progress aggregates over the whole batch: Edges is the summed per-lane
// traversal count and ActiveIntervals the union frontier size.
func (b *BatchRun) SetProgress(f ProgressFunc) { b.progress = f }

// Trace returns the batch's shared trace, nil when tracing is disabled.
func (b *BatchRun) Trace() *trace.Trace { return b.tr }

// Iterations returns the number of fused iterations executed so far (the
// maximum over lanes; see LaneIterations for one lane's count).
func (b *BatchRun) Iterations() int { return b.iter }

// Close releases run resources: the SoA arrays return to the engine's
// fused-run buffer pool and the run becomes unusable.
func (b *BatchRun) Close() {
	if b.closed {
		return
	}
	b.closed = true
	b.e.putBatchBuf(b.curr, b.next, b.scaled[0], b.scaled[1])
	b.curr, b.next, b.scaled[0], b.scaled[1] = nil, nil, nil, nil
}

// Step executes one fused iteration across all unfinished lanes. It
// returns false when every lane has converged or been cancelled, or the
// MaxIterations budget is exhausted.
func (b *BatchRun) Step() (bool, error) {
	return b.step()
}

// StepContext is Step with cancellation of the whole batch: ctx is
// consulted before the iteration and between sub-shard rows. Per-lane
// cancellation is CancelLane, observed at iteration boundaries.
func (b *BatchRun) StepContext(ctx context.Context) (bool, error) {
	if ctx != nil && ctx != context.Background() {
		b.ctx = ctx
		defer func() { b.ctx = nil }()
	}
	return b.step()
}

func (b *BatchRun) checkCtx() error {
	if b.ctx == nil {
		return nil
	}
	select {
	case <-b.ctx.Done():
		return b.ctx.Err()
	default:
		return nil
	}
}

// endLaneSpan closes lane l's trace span. tag is empty for normal
// completion, "cancelled" for a cancelled lane.
func (b *BatchRun) endLaneSpan(l int, tag string) {
	if b.tr == nil || b.laneEnded[l] {
		return
	}
	b.laneEnded[l] = true
	sp := b.laneSpans[l]
	sp.Tag = tag
	sp.Count = int64(b.laneIters[l])
	b.tr.End(sp)
}

// laneHasWork reports whether lane l has any active interval.
func (b *BatchRun) laneHasWork(l int) bool {
	for _, a := range b.active[l] {
		if a {
			return true
		}
	}
	return false
}

func (b *BatchRun) step() (bool, error) {
	if b.closed {
		return false, fmt.Errorf("engine: Step on closed batch run")
	}
	if b.finished {
		return false, nil
	}
	if err := b.checkCtx(); err != nil {
		return false, err
	}
	// Fold lane-cancellation requests, then retire converged lanes; the
	// remaining lanes participate in this iteration.
	for l := range b.ps {
		if !b.done[l] && b.cancelReq[l].Load() {
			b.done[l], b.cancelled[l] = true, true
			b.endLaneSpan(l, "cancelled")
		}
	}
	if max := b.e.cfg.MaxIterations; max > 0 && b.iter >= max {
		b.finishAll()
		return false, nil
	}
	var lanes []int
	for l := range b.ps {
		if b.done[l] {
			continue
		}
		if !b.laneHasWork(l) {
			b.done[l] = true
			b.endLaneSpan(l, "")
			continue
		}
		lanes = append(lanes, l)
	}
	if len(lanes) == 0 {
		b.finished = true
		return false, nil
	}

	m := b.e.store.Meta()
	P := m.P
	dirs := b.dirsUsed()

	var iterSpan trace.Span
	var iterIO diskio.StatsSnapshot
	var edges0 int64
	if b.tr != nil {
		iterSpan = b.tr.Start(trace.KindIteration, spanName("iter-", b.iter), b.runSpan.ID)
		b.iterSpanID.Store(iterSpan.ID)
		b.iterHits.Store(0)
		b.iterMisses.Store(0)
		b.stallNS = 0
		iterIO = b.e.store.Disk().Stats().Snapshot()
		edges0 = b.edges
	}

	// InitializeIteration: the accumulator array is already Zero — it was
	// reset chunk by chunk during the previous apply phase (or by
	// NewBatchRun before iteration one), while each chunk was cache-hot.
	// The SoA array is L× a scalar run's accumulator, so avoiding a
	// separate cold zeroing pass over it each iteration matters.
	plans := b.rowPlans(dirs, lanes)

	// Per-lane global aggregates over current attributes, each folded in
	// ascending vertex order exactly as the scalar step does.
	b.computeAggregates(lanes)

	// Rank-sum batches hoist Gather's division out of the edge loop:
	// every lane's attr/deg values are precomputed per vertex, so the
	// gather kernel is left with additions only. After iteration one the
	// apply phase refreshes the values in place (scaledReady); the
	// standalone sweep only runs when no apply has primed them.
	if b.hint == KernelRankSum && !b.scaledReady {
		b.computeScaled(dirs)
	}
	b.scaledReady = false

	// Row phase: one pass over the sub-shard grid; each decoded block is
	// gathered into every participating lane before the next block.
	rowPipe := b.newPipeline(plans)
	defer rowPipe.drain()
	rowLanes := make([]int, 0, len(lanes))
	for i := 0; i < P; i++ {
		if err := b.checkCtx(); err != nil {
			return false, err
		}
		rowLanes = rowLanes[:0]
		for _, l := range lanes {
			if b.active[l][i] {
				rowLanes = append(rowLanes, l)
			}
		}
		if len(rowLanes) == 0 {
			continue
		}
		if err := b.processRow(i, rowLanes, dirs, rowPipe.take(i)); err != nil {
			return false, err
		}
	}

	// Apply phase: per-lane Apply where contributions (or a dense lane)
	// demand it, plain carry-forward elsewhere, then ping-pong swap.
	applySpan := b.tr.Start(trace.KindApply, "apply-lanes", iterSpan.ID)
	activeNext := b.applyLanes(lanes)
	b.tr.End(applySpan)
	b.curr, b.next = b.next, b.curr
	if b.hint == KernelRankSum {
		b.scaledReady = true // applyLanes refreshed scaled from the new curr
	}
	for l, a := range activeNext {
		if a != nil {
			b.active[l] = a
		}
	}
	for _, l := range lanes {
		b.laneIters[l]++
	}
	b.iter++
	b.notifyProgress()

	if b.tr != nil {
		dur := b.tr.End(iterSpan)
		io := b.e.store.Disk().Stats().Snapshot().Sub(iterIO)
		stall := time.Duration(b.stallNS)
		compute := dur - stall
		if compute < 0 {
			compute = 0
		}
		b.tr.AddStep(trace.StepStats{
			Iteration:    b.iter - 1,
			Edges:        b.edges - edges0,
			BlocksHit:    b.iterHits.Load(),
			BlocksMiss:   b.iterMisses.Load(),
			BytesRead:    io.BytesRead,
			BytesWritten: io.BytesWritten,
			StallUS:      stall.Microseconds(),
			ComputeUS:    compute.Microseconds(),
			DurUS:        dur.Microseconds(),
		})
		b.iterSpanID.Store(b.runSpan.ID)
	}
	return true, nil
}

// finishAll retires every remaining lane (MaxIterations exhaustion).
func (b *BatchRun) finishAll() {
	for l := range b.ps {
		if !b.done[l] {
			b.done[l] = true
			b.endLaneSpan(l, "")
		}
	}
	b.finished = true
}

// dirsUsed lists the traversal flags the batch sweeps (0 = forward,
// 1 = reverse).
func (b *BatchRun) dirsUsed() []int {
	switch b.dir {
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
func (b *BatchRun) degOf(d int) []uint32 {
	if d == 1 {
		if b.ovIn != nil {
			return b.ovIn
		}
		return b.e.inDeg
	}
	if b.ovOut != nil {
		return b.ovOut
	}
	return b.e.outDeg
}

// primaryDeg is the degree array handed to lane GlobalAggregators.
func (b *BatchRun) primaryDeg() []uint32 {
	if b.dir == Reverse {
		return b.degOf(1)
	}
	return b.degOf(0)
}

// ovCell returns the overlay sub-shard for cell (i, j) of traversal flag
// d, or nil.
func (b *BatchRun) ovCell(d, i, j int) *storage.SubShard {
	if b.ov == nil {
		return nil
	}
	return b.ov.Cell(i, j, d == 1)
}

// cellHasEdges reports whether cell (i, j) of traversal flag d holds any
// edges to gather — base or overlay.
func (b *BatchRun) cellHasEdges(d, i, j int) bool {
	if b.subShardInfosFor(d)[i*b.e.store.Meta().P+j].Edges > 0 {
		return true
	}
	return b.ovCell(d, i, j) != nil
}

// subShardInfosFor returns the sub-shard index for a traversal flag.
func (b *BatchRun) subShardInfosFor(d int) []storage.SubShardInfo {
	m := b.e.store.Meta()
	if d == 1 {
		return m.TSubShards
	}
	return m.SubShards
}

// computeAggregates folds each participating lane's global aggregate
// (vertex-ascending, matching the scalar step) and publishes it via
// SetGlobal. Lanes reduce independently, so they parallelize.
func (b *BatchRun) computeAggregates(lanes []int) {
	var aggLanes []int
	for _, l := range lanes {
		if b.aggs[l] != nil {
			aggLanes = append(aggLanes, l)
		}
	}
	if len(aggLanes) == 0 {
		return
	}
	n := int(b.e.store.Meta().NumVertices)
	deg := b.primaryDeg()
	L := b.lcount
	parallelFor(b.threads, len(aggLanes), func(t int) {
		l := aggLanes[t]
		a := b.aggs[l]
		if la := b.laggs[l]; la != nil {
			a.SetGlobal(la.AggLane(b.curr, L, l, deg[:n]))
			return
		}
		val := a.AggZero()
		for v := 0; v < n; v++ {
			val = a.AggCombine(val, a.AggVertex(uint32(v), b.curr[v*L+l], deg[v]))
		}
		a.SetGlobal(val)
	})
}

// computeScaled fills scaled[d] with curr[v*L+l]/float64(deg[v]) for
// every traversal flag the batch sweeps — the KernelRankSum Gather value
// of every (vertex, lane) pair, computed once per iteration instead of
// once per edge. Each division uses exactly the operands a scalar
// Gather would, so hoisting preserves bit-identity. Zero-degree
// vertices produce Inf/NaN slots, but a zero-degree source has no
// surviving edges (base edges are tombstoned when overlay deletions
// empty a source), so those slots are never read.
func (b *BatchRun) computeScaled(dirs []int) {
	n := int(b.e.store.Meta().NumVertices)
	L := b.lcount
	for _, d := range dirs {
		sc := b.scaled[d]
		deg := b.degOf(d)
		bounds := chunkRanges(n, 1<<13)
		parallelFor(b.threads, len(bounds)-1, func(c int) {
			refreshScaled(sc, b.curr, deg, L, uint32(bounds[c]), uint32(bounds[c+1]))
		})
	}
}

// refreshScaled recomputes the hoisted rank-sum Gather values for
// vertices [v0, v1) from the attribute array attrs. The apply phase
// calls it per chunk right after writing the next iteration's
// attributes, while the chunk is still cache-resident. Zero-degree
// rows are skipped: such a source has no surviving edges, so its slots
// are never read and whatever they hold is immaterial.
func refreshScaled(scaled, attrs []float64, deg []uint32, L int, v0, v1 uint32) {
	for v := v0; v < v1; v++ {
		if deg[v] == 0 {
			continue
		}
		dd := float64(deg[v])
		base := int(v) * L
		as := attrs[base : base+L]
		sc := scaled[base : base+L]
		for x := range as {
			sc[x] = as[x] / dd
		}
	}
}

// zeroSlab resets s to the lanes' shared Zero. The literal-0 branch
// compiles to memclr.
func zeroSlab(s []float64, zero float64) {
	if math.Float64bits(zero) == 0 {
		for i := range s {
			s[i] = 0
		}
	} else {
		fill(s, zero)
	}
}

// scaledFor returns the hoisted rank-sum Gather values for a traversal
// flag, nil for batches without the KernelRankSum hint.
func (b *BatchRun) scaledFor(d int) []float64 {
	return b.scaled[d]
}

// rowPlans lists, in execution order, the rows this iteration's row
// phase will sweep (the union frontier over participating lanes) and the
// base-store blocks each needs. Overlay cells are in-memory and never
// planned.
func (b *BatchRun) rowPlans(dirs []int, lanes []int) []fetchPlan {
	m := b.e.store.Meta()
	P := m.P
	var plans []fetchPlan
	for i := 0; i < P; i++ {
		anyActive := false
		for _, l := range lanes {
			if b.active[l][i] {
				anyActive = true
				break
			}
		}
		if !anyActive {
			continue
		}
		var cells []cellID
		for _, d := range dirs {
			infos := b.subShardInfosFor(d)
			for j := 0; j < P; j++ {
				if infos[i*P+j].Edges > 0 {
					cells = append(cells, cellID{d, i, j, false})
				}
			}
		}
		plans = append(plans, fetchPlan{id: i, cells: cells})
	}
	return plans
}

// processRow gathers row i of the sub-shard grid into every lane in
// rowLanes. Task scheduling mirrors the scalar processRow: within one
// replica's row the distinct destination ranges are disjoint, so chunk
// tasks run lock-free; groups that can collide on a destination (forward
// vs transposed replica, base vs overlay cell) are separated by
// barriers, preserving the scalar per-destination fold order.
func (b *BatchRun) processRow(i int, rowLanes []int, dirs []int, blocks *fetchBatch) error {
	defer blocks.release()
	if err := b.waitBatch(blocks, "row-", i); err != nil {
		return err
	}
	if b.tr != nil {
		gsp := b.tr.Start(trace.KindGather, spanName("row-", i), b.iterSpanID.Load())
		defer b.tr.End(gsp)
	}
	m := b.e.store.Meta()
	P := m.P
	var resident [2][2][]func() // [traversal flag][0 = base, 1 = overlay]
	for _, d := range dirs {
		deg := b.degOf(d)
		sc := b.scaledFor(d)
		infos := b.subShardInfosFor(d)
		for j := 0; j < P; j++ {
			base := infos[i*P+j].Edges > 0
			ovc := b.ovCell(d, i, j)
			if !base && ovc == nil {
				continue
			}
			if base {
				ss, err := b.batchSubShard(blocks, cellID{d, i, j, false})
				if err != nil {
					return err
				}
				b.countEdges(rowLanes, int64(ss.NumEdges()))
				resident[d][0] = append(resident[d][0], b.gatherTasks(ss, deg, sc, cellTombsOf(b.ov, d, i, j, ss), rowLanes, j)...)
			}
			if ovc != nil {
				b.countEdges(rowLanes, int64(ovc.NumEdges()))
				resident[d][1] = append(resident[d][1], b.gatherTasks(ovc, deg, sc, nil, rowLanes, j)...)
			}
		}
	}
	for _, d := range dirs {
		for _, g := range resident[d] {
			if len(g) == 0 {
				continue
			}
			parallelFor(b.threads, len(g), func(t int) { g[t]() })
		}
	}
	return nil
}

// countEdges charges one visited cell's edge count to every
// participating lane — the same cell-granular accounting the scalar run
// uses, so per-lane EdgesTraversed matches a scalar run of that lane.
func (b *BatchRun) countEdges(rowLanes []int, n int64) {
	b.edges += n * int64(len(rowLanes))
	for _, l := range rowLanes {
		b.laneEdges[l] += n
	}
}

// gatherTasks builds the fine-grained (callback) or interval-locked
// (lock) tasks folding sub-shard ss into every lane's accumulator.
// scaled is the direction's hoisted rank-sum Gather array (nil unless
// the batch has the KernelRankSum hint); tombs is the cell's resolved
// tombstones (nil for overlay cells and cells without removals), walked
// per task as clean runs and single dirty destinations exactly like the
// scalar Run.gatherTasks.
func (b *BatchRun) gatherTasks(ss *storage.SubShard, deg []uint32, scaled []float64, tombs *cellTombs, rowLanes []int, j int) []func() {
	lanes := append([]int(nil), rowLanes...) // rowLanes is reused per row
	// contig: lanes is a run of consecutive lane ids, letting the
	// specialized kernels slice the SoA arrays directly instead of
	// indirecting through the lane list. This is the common shape for
	// dense programs (PPR lanes never deactivate).
	contig := true
	for x, l := range lanes {
		if l != lanes[0]+x {
			contig = false
			break
		}
	}
	// One task is one or more gatherCell calls (a dirty destination
	// splits its chunk), all sharing the task's per-destination buffer.
	task := func(k0, k1 int) {
		local := make([]float64, len(lanes))
		tombs.gather(k0, k1, func(del delPred, k0, k1 int) {
			b.gatherCell(ss, deg, scaled, del, lanes, contig, local, k0, k1)
		})
	}
	if b.e.cfg.Sync == Lock {
		lock := &b.locks[j]
		return []func(){func() {
			lock.Lock()
			task(0, ss.NumDsts())
			lock.Unlock()
		}}
	}
	bounds := chunkRanges(ss.NumDsts(), b.chunk)
	tasks := make([]func(), 0, len(bounds)-1)
	for c := 0; c < len(bounds)-1; c++ {
		k0, k1 := bounds[c], bounds[c+1]
		tasks = append(tasks, func() { task(k0, k1) })
	}
	return tasks
}

// applyLanes runs the apply phase for every participating lane and
// carries finished lanes' values forward, returning each participating
// lane's next-iteration activity (nil for lanes that did not
// participate). Interval touch detection matches the scalar
// applyResident: a lane's interval applies when the lane is dense or any
// active source interval has edges into it; untouched intervals copy.
func (b *BatchRun) applyLanes(lanes []int) [][]bool {
	m := b.e.store.Meta()
	P := m.P
	dirs := b.dirsUsed()
	L := b.lcount

	participating := make([]bool, L)
	for _, l := range lanes {
		participating[l] = true
	}

	// applies[j*L+l]: does lane l Apply over interval j (vs carrying its
	// values forward)?
	applies := make([]bool, P*L)
	for l := 0; l < L; l++ {
		appliesAll := participating[l] && b.dense[l]
		for j := 0; j < P; j++ {
			apply := appliesAll
			if participating[l] && !apply {
				for _, d := range dirs {
					for i := 0; i < P; i++ {
						if b.active[l][i] && b.cellHasEdges(d, i, j) {
							apply = true
							break
						}
					}
					if apply {
						break
					}
				}
			}
			applies[j*L+l] = apply
		}
	}

	// Tasks are vertex chunks that every lane sweeps in turn, sized so a
	// chunk's whole SoA block (all L lanes of curr and next) stays
	// cache-resident across the per-lane passes — one lane's walk is
	// L-strided, which over an unbounded range would miss on every
	// vertex.
	type task struct {
		j      int
		v0, v1 uint32
	}
	chunkV := (1 << 15) / L // ≈256KiB of curr+next per chunk
	if chunkV < 64 {
		chunkV = 64
	}
	// Rank-sum batches refresh the hoisted Gather values per chunk while
	// the freshly written attributes are still cache-resident, sparing
	// the next iteration its standalone computeScaled sweep.
	type scaledDir struct {
		sc  []float64
		deg []uint32
	}
	var scs []scaledDir
	if b.hint == KernelRankSum {
		for _, d := range dirs {
			scs = append(scs, scaledDir{b.scaled[d], b.degOf(d)})
		}
	}
	var tasks []task
	for j := 0; j < P; j++ {
		lo, hi := m.IntervalRange(j)
		if lo == hi {
			continue
		}
		bounds := chunkRanges(int(hi-lo), chunkV)
		for c := 0; c < len(bounds)-1; c++ {
			tasks = append(tasks, task{j, lo + uint32(bounds[c]), lo + uint32(bounds[c+1])})
		}
	}
	changed := make([]bool, len(tasks)*L)
	parallelFor(b.threads, len(tasks), func(t int) {
		tk := tasks[t]
		for l := 0; l < L; l++ {
			if !applies[tk.j*L+l] {
				copyLane(b.curr, b.next, L, l, tk.v0, tk.v1)
				continue
			}
			if la := b.lapply[l]; la != nil {
				changed[t*L+l] = la.ApplyLane(b.curr, b.next, L, l, tk.v0, tk.v1)
				continue
			}
			changed[t*L+l] = applyLane(b.ps[l], b.curr, b.next, L, l, tk.v0, tk.v1)
		}
		for _, s := range scs {
			refreshScaled(s.sc, b.next, s.deg, L, tk.v0, tk.v1)
		}
		// The outgoing attribute chunk becomes the next iteration's
		// accumulator after the ping-pong swap; reset it here while it is
		// cache-resident so the next step starts gathering directly.
		zeroSlab(b.curr[int(tk.v0)*L:int(tk.v1)*L], b.zero)
	})
	activeNext := make([][]bool, L)
	for _, l := range lanes {
		activeNext[l] = make([]bool, P)
	}
	for t := range tasks {
		for l := 0; l < L; l++ {
			if changed[t*L+l] && activeNext[l] != nil {
				activeNext[l][tasks[t].j] = true
			}
		}
	}
	return activeNext
}

// notifyProgress reports the completed fused iteration to the observer.
func (b *BatchRun) notifyProgress() {
	if b.progress == nil {
		return
	}
	seen := make([]bool, b.e.store.Meta().P)
	for l := range b.ps {
		if b.done[l] {
			continue
		}
		for k, a := range b.active[l] {
			if a {
				seen[k] = true
			}
		}
	}
	n := 0
	for _, a := range seen {
		if a {
			n++
		}
	}
	b.progress(Progress{
		Iteration:       b.iter,
		Edges:           b.edges,
		ActiveIntervals: n,
		Elapsed:         time.Since(b.started),
	})
}

// Finish assembles one Result per lane: final attributes plus the lane's
// own iteration and edge counters. Cancelled lanes yield nil. The IO
// snapshot, elapsed time, and trace are shared across the batch — they
// describe the fused run that served every lane. The run remains usable
// afterwards.
func (b *BatchRun) Finish() ([]*Result, error) {
	for l := range b.ps {
		b.endLaneSpan(l, "") // lanes still running (fixed-iteration drivers) close here
	}
	if b.tr != nil && !b.runEnded {
		b.runEnded = true
		b.tr.End(b.runSpan)
	}
	m := b.e.store.Meta()
	n := int(m.NumVertices)
	L := b.lcount
	io := b.e.store.Disk().Stats().Snapshot().Sub(b.startIO)
	elapsed := time.Since(b.started)
	out := make([]*Result, L)
	attrs := make([][]float64, L)
	for l := range b.ps {
		if b.cancelled[l] {
			continue
		}
		attrs[l] = make([]float64, n)
		out[l] = &Result{
			Attrs:             attrs[l],
			Iterations:        b.laneIters[l],
			Strategy:          SPU,
			ResidentIntervals: m.P,
			EdgesTraversed:    b.laneEdges[l],
			IO:                io,
			Elapsed:           elapsed,
			Trace:             b.tr,
		}
	}
	// Copy out in vertex chunks: within a chunk the SoA block stays
	// cache-resident while each lane's strided reads sweep it, and each
	// lane's Attrs writes run sequentially — against both a full
	// lane-major pass (strided reads miss on every vertex) and a
	// vertex-major pass (re-walks all L slice headers per vertex).
	const chunkV = 1 << 10 // ≈512KiB of SoA state per chunk at L=64
	for v0 := 0; v0 < n; v0 += chunkV {
		v1 := v0 + chunkV
		if v1 > n {
			v1 = n
		}
		for l, a := range attrs {
			if a == nil {
				continue
			}
			for v := v0; v < v1; v++ {
				a[v] = b.curr[v*L+l]
			}
		}
	}
	return out, nil
}
