package engine

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"nxgraph/internal/diskio"
	"nxgraph/internal/storage"
	"nxgraph/internal/trace"
)

// Step executes one iteration (Algorithm 1's repeat body) across every
// unfinished lane. It returns false when the computation has terminated:
// every lane converged or cancelled, or the MaxIterations budget
// exhausted.
func (r *Run) Step() (bool, error) {
	return r.step()
}

// StepContext is Step with cancellation of the whole run: ctx is
// consulted before the iteration and between sub-shard batches (each row
// of the row phase, each destination interval of the column phase). On
// cancellation it returns ctx.Err() without corrupting run state; the run
// may not be stepped further, but the engine and store remain reusable.
// Per-lane cancellation is CancelLane, observed at iteration boundaries.
func (r *Run) StepContext(ctx context.Context) (bool, error) {
	if ctx != nil && ctx != context.Background() {
		r.ctx = ctx
		defer func() { r.ctx = nil }()
	}
	return r.step()
}

func (r *Run) step() (bool, error) {
	if r.closed {
		return false, fmt.Errorf("engine: Step on closed run")
	}
	if r.finished {
		return false, nil
	}
	if err := r.checkCtx(); err != nil {
		return false, err
	}
	lanes := r.retireLanes()
	if len(lanes) == 0 {
		r.finished = true
		return false, nil
	}

	m := r.e.store.Meta()
	P, Q, L := m.P, r.q, len(r.lanes)
	dirs := r.dirsUsed()

	// Every parallel part of the step runs on one worker pool.
	pool := r.newGatherPool(P)
	defer pool.stop()

	// Open the iteration span and reset the per-iteration counters the
	// prefetch goroutines and batch waits accumulate into.
	var iterSpan trace.Span
	var iterIO diskio.StatsSnapshot
	var edges0 int64
	if r.tr != nil {
		iterSpan = r.tr.Start(trace.KindIteration, spanName("iter-", r.iter), r.runSpan.ID)
		r.iterSpanID.Store(iterSpan.ID)
		r.iterHits.Store(0)
		r.iterMisses.Store(0)
		r.stallNS = 0
		iterIO = r.e.store.Disk().Stats().Snapshot()
		edges0 = r.edges
	}

	// InitializeIteration: the resident accumulator must hold Zero. After
	// a completed step it already does (see accClean), so this sweep runs
	// on the first step and after an aborted one.
	if !r.accClean {
		bounds := chunkRanges(len(r.next), 1<<16)
		pool.run(len(bounds)-1, func(c int) {
			zeroSlab(r.next[bounds[c]:bounds[c+1]], r.zero)
		})
	}
	r.accClean = false

	plans := r.rowPlans(dirs, lanes)

	// Global aggregates over current attributes (resident part now,
	// on-disk intervals as the row phase streams them through memory).
	r.foldResidentAggregates(pool, lanes)

	// RankSum division hoist: the scaled view of the resident attributes
	// must be current before any gathering reads it.
	if r.useScaled && !r.scaledReady {
		for _, d := range dirs {
			sc, deg := r.scaled[d], r.degOf(d)
			bounds := chunkRanges(int(r.resEnd), 1<<13)
			pool.run(len(bounds)-1, func(c int) {
				refreshScaled(sc, r.curr, deg, L, uint32(bounds[c]), uint32(bounds[c+1]))
			})
		}
	}
	r.scaledReady = false

	// Row phase: one pass over the sub-shard grid; each decoded block is
	// gathered into every participating lane — SPU-like updates into
	// resident accumulators, ToHub for on-disk destinations (Algorithm 7
	// lines 1-16). Row i+1 is submitted to the pool while row i's tail
	// still runs (see processRow), and each row's blocks, prefetched
	// while the rows before it gather, stay pinned until its last task
	// finished.
	rowPipe := r.newPipeline(plans)
	defer rowPipe.drain()
	var resident [2]view
	for _, d := range dirs {
		resident[d] = r.srcView(d)
	}
	aggregates := slices.ContainsFunc(lanes, func(l int) bool { return r.lanes[l].agg != nil })
	for i := 0; i < P; i++ {
		if err := r.checkCtx(); err != nil {
			return false, err
		}
		rowLanes := r.activeLanes(lanes, i)
		src := resident
		if i >= Q { // streamed interval: every lane's attributes in one read
			if len(rowLanes) == 0 && !aggregates {
				continue
			}
			if i > Q {
				pool.drain() // an earlier streamed row may still read loadBuf
			}
			lo, hi := m.IntervalRange(i)
			buf := r.loadBuf[:int(hi-lo)*L]
			if err := r.attrs.ReadInterval(i, buf); err != nil {
				return false, err
			}
			for _, l := range lanes {
				if ln := &r.lanes[l]; ln.agg != nil {
					ln.aggVal = foldAggregate(ln.agg, ln.aggVal, buf, L, l, lo, r.primaryDeg())
				}
			}
			for _, d := range dirs {
				src[d] = view{buf, lo}
				if r.useScaled {
					sbuf := r.scaledBuf[d][:len(buf)]
					refreshScaled(sbuf, buf, r.degOf(d)[lo:hi], L, 0, hi-lo)
					src[d] = view{sbuf, lo}
				}
			}
		}
		if len(rowLanes) == 0 {
			continue
		}
		if err := r.processRow(pool, i, src, rowLanes, dirs, rowPipe.take(i)); err != nil {
			return false, err
		}
	}
	pool.drain()
	if err := r.takeErr(); err != nil {
		return false, err
	}
	for _, l := range lanes {
		if ln := &r.lanes[l]; ln.agg != nil {
			ln.agg.SetGlobal(ln.aggVal)
		}
	}

	activeNext := make([][]bool, L)
	for _, l := range lanes {
		activeNext[l] = make([]bool, P)
	}

	// Column phase: FromHub plus resident-source gathering for on-disk
	// destination intervals (Algorithm 7 lines 17-26), pipelined like the
	// row phase (the column-major reads are the seekiest of the step),
	// each column's folds chained on the pool (see processColumn).
	// The loop iterates the plans themselves, so the pipeline's
	// consume-in-plan-order contract holds by construction.
	colPlans := r.colPlans(dirs, lanes)
	colPipe := r.newPipeline(colPlans)
	defer colPipe.drain()
	for _, plan := range colPlans {
		if err := r.checkCtx(); err != nil {
			return false, err
		}
		if err := r.processColumn(pool, plan.id, dirs, lanes, activeNext, colPipe.take(plan.id)); err != nil {
			return false, err
		}
	}

	// Apply phase for resident intervals, then ping-pong swap.
	applySpan := r.tr.Start(trace.KindApply, "apply-resident", iterSpan.ID)
	r.applyResident(pool, lanes, dirs, activeNext)
	r.tr.End(applySpan)
	r.curr, r.next = r.next, r.curr
	r.accClean = true           // apply tasks re-zeroed what is now r.next
	r.scaledReady = r.useScaled // ... and refreshed scaled from the new curr
	for _, l := range lanes {
		r.lanes[l].active = activeNext[l]
		r.lanes[l].iters++
	}
	r.iter++
	r.notifyProgress()

	if r.tr != nil {
		dur := r.tr.End(iterSpan)
		io := r.e.store.Disk().Stats().Snapshot().Sub(iterIO)
		stall := time.Duration(r.stallNS)
		compute := max(dur-stall, 0)
		r.tr.AddStep(trace.StepStats{
			Iteration:    r.iter - 1,
			Edges:        r.edges - edges0,
			BlocksHit:    r.iterHits.Load(),
			BlocksMiss:   r.iterMisses.Load(),
			BytesRead:    io.BytesRead,
			BytesWritten: io.BytesWritten,
			StallUS:      stall.Microseconds(),
			ComputeUS:    compute.Microseconds(),
			DurUS:        dur.Microseconds(),
		})
		r.iterSpanID.Store(r.runSpan.ID)
	}
	return true, nil
}

// retireLanes folds lane-cancellation requests, retires lanes that
// converged (or all of them once the MaxIterations budget is spent), and
// returns the lanes that take part in this iteration.
func (r *Run) retireLanes() []int {
	limit := r.e.cfg.MaxIterations
	exhausted := limit > 0 && r.iter >= limit
	var lanes []int
	for l := range r.lanes {
		ln := &r.lanes[l]
		switch {
		case ln.done:
		case ln.cancelReq.Load():
			ln.done, ln.cancelled = true, true
			r.endLaneSpan(ln, "cancelled")
		case exhausted || !ln.hasWork():
			ln.done = true
			r.endLaneSpan(ln, "")
		default:
			lanes = append(lanes, l)
		}
	}
	return lanes
}

// subShardInfosFor returns the sub-shard index for a traversal flag.
func (r *Run) subShardInfosFor(d int) []storage.SubShardInfo {
	m := r.e.store.Meta()
	if d == 1 {
		return m.TSubShards
	}
	return m.SubShards
}

// countEdges charges one visited cell's edge count to every lane
// gathering it, so per-lane EdgesTraversed matches a run of that lane
// alone.
func (r *Run) countEdges(rowLanes []int, n int) {
	r.edges += int64(n * len(rowLanes))
	for _, l := range rowLanes {
		r.lanes[l].edges += int64(n)
	}
}

// processRow submits row i of the sub-shard matrix to the step's pool p,
// one unit per cell, for the lanes in rowLanes, with source attributes
// src (one view per traversal flag): destinations in resident intervals
// accumulate into r.next; destinations in on-disk intervals are gathered
// into hubs (ToHub). blocks is the row's prefetched batch; once waited
// for, the row's group owns it and releases it after the row's last task
// finished. Within one replica's row, distinct destination ranges never
// overlap (the §III-D invariant), so a cell's chunk tasks run
// lock-free; cells that can hit the same destination — the forward and
// transposed replicas, a base cell and its overlay cell, and the same
// column of consecutive rows — are units of one interval's chain, which
// fixes every destination's fold order whatever L, Threads or the
// schedule. Before returning, processRow waits until the row before
// this one finished, so at most two rows are in flight.
func (r *Run) processRow(p *gatherPool, i int, src [2]view, rowLanes, dirs []int, blocks *fetchBatch) error {
	if err := r.waitBatch(blocks, "row-", i, p); err != nil {
		blocks.release()
		return err
	}
	m := r.e.store.Meta()
	P, Q := m.P, r.q
	jmax := P
	if i < Q {
		jmax = Q // SS[i][j>=Q] with resident source is handled by the column phase
	}
	acc := view{r.next, 0}
	g := p.group(spanName("row-", i), blocks)
	for _, d := range dirs {
		infos := r.subShardInfosFor(d)
		for j := 0; j < jmax; j++ {
			base := infos[i*P+j].Edges > 0
			ovc := r.ovCell(d, i, j)
			if !base && ovc == nil {
				continue
			}
			var ss *storage.SubShard
			if base {
				var err error
				if ss, err = batchSubShard(blocks, cellID{d, i, j}); err != nil {
					return err
				}
				r.countEdges(rowLanes, ss.NumEdges())
			}
			if ovc != nil {
				r.countEdges(rowLanes, ovc.NumEdges())
			}
			if j < Q {
				if base {
					p.submit(g, i, j, r.gatherTasks(ss, d, cellTombsOf(r.ov, d, i, j, ss), src[d], acc, nil, nil, rowLanes))
				}
				if ovc != nil {
					p.submit(g, i, j, r.gatherTasks(ovc, d, nil, src[d], acc, nil, nil, rowLanes))
				}
				continue
			}
			if base {
				vals := make([]float64, ss.NumDsts()*len(r.lanes))
				p.submit(g, i, -1, r.gatherTasks(ss, d, cellTombsOf(r.ov, d, i, j, ss), src[d], view{}, vals, func() {
					if err := r.hubs[d].Write(i, j, ss.Dsts, vals); err != nil {
						r.setErr(err)
					}
				}, rowLanes))
			}
			if ovc != nil {
				// Overlay contributions to an on-disk destination
				// interval accumulate in memory (the hub file's regions
				// are sized from the base meta); the column phase folds
				// them alongside the disk hub.
				p.submit(g, i, -1, r.gatherTasks(ovc, d, nil, src[d], view{}, r.ovHubVals(d, i, j, ovc), nil, rowLanes))
			}
		}
	}
	p.retire(1)
	return r.takeErr()
}

// gatherTasks builds the fine-grained tasks, as one pool unit (submit
// sets its intervals), that fold sub-shard ss of traversal flag d into
// every lane in lanes: into the accumulator window acc, or — hub non-nil,
// the ToHub side — into per-destination partials hub (L lane-minor
// values per entry of ss.Dsts), with done (may be nil) run once the last
// chunk completes (the callback mechanism). src is the source window the
// kernels read (srcView, or a streamed interval).
//
// tombs is the cell's resolved tombstones (nil for overlay cells and base
// cells without pending removals): each task walks its destinations as
// clean runs of ss and single dirty destinations, each folded from its
// cell of surviving edges. Chunk boundaries balance edges, not
// destinations, so a hub destination does not serialize its whole
// chunk's worth of sparse neighbours behind it.
func (r *Run) gatherTasks(ss *storage.SubShard, d int, tombs *cellTombs, src, acc view, hub []float64, done func(), lanes []int) gatherUnit {
	deg := r.degOf(d)
	// contig: lanes is a run of consecutive lane ids, letting the lane
	// kernels slice the slabs directly instead of indirecting through the
	// lane list. This is the common shape for dense programs (PPR lanes
	// never deactivate).
	contig := lanes[len(lanes)-1]-lanes[0] == len(lanes)-1
	bounds := edgeChunkRanges(ss.Offsets, r.chunkCost)
	n := len(bounds) - 1
	var pending atomic.Int32
	pending.Store(int32(n))
	return gatherUnit{n: n, fn: func(c int) {
		// One task is one or more gatherCell calls: a dirty destination
		// splits its chunk.
		tombs.gather(ss, hub, len(r.lanes), bounds[c], bounds[c+1], func(ss *storage.SubShard, hub []float64, k0, k1 int) {
			r.gatherCell(ss, deg, src, acc, hub, lanes, contig, k0, k1)
		})
		if pending.Add(-1) == 0 && done != nil {
			done()
		}
	}}
}

// applies reports whether lane l runs Apply over interval j this
// iteration: the lane is dense, or an interval of its frontier has edges
// into j. Elsewhere Apply would see only Zero, so the lane's attributes
// carry forward.
func (r *Run) applies(l, j int, dirs []int) bool {
	ln := &r.lanes[l]
	if ln.dense {
		return true
	}
	for _, d := range dirs {
		for i, a := range ln.active {
			if a && r.cellHasEdges(d, i, j) {
				return true
			}
		}
	}
	return false
}

// activeLanes lists the lanes among lanes whose frontier holds interval i.
func (r *Run) activeLanes(lanes []int, i int) []int {
	var out []int
	for _, l := range lanes {
		if r.lanes[l].active[i] {
			out = append(out, l)
		}
	}
	return out
}

// processColumn runs the FromHub side for on-disk destination interval j
// for the participating lanes on the step's pool p. Every fold into the
// column's accumulator — a resident-source cell, a disk hub, an overlay
// cell, the overlay partials — is a unit chained on interval j, for the
// lanes whose frontier holds the source interval (the row phase wrote
// exactly those lanes' hub partials), submitted in the serial order: by
// replica, then ascending source interval, base before overlay. So no
// barrier separates the folds, each destination folds as a serial sweep
// would, and the step reads the next hub while the previous one folds,
// with at most two hubs live. The pool drains once, before apply, which
// records each lane's changes in activeNext; then every lane persists.
// blocks is the column's prefetched batch; processColumn owns it until
// its group does.
func (r *Run) processColumn(p *gatherPool, j int, dirs, lanes []int, activeNext [][]bool, blocks *fetchBatch) error {
	m := r.e.store.Meta()
	P, Q, L := m.P, r.q, len(r.lanes)
	lo, hi := m.IntervalRange(j)
	if err := r.waitBatch(blocks, "col-", j, p); err != nil || lo == hi {
		blocks.release()
		return err
	}
	acc := r.accBuf[:int(hi-lo)*L]
	fill(acc, r.zero)
	accV := view{acc, lo}
	g := p.group(spanName("col-", j), blocks)
	var hub *gatherUnit // the last disk hub submitted
	for _, d := range dirs {
		infos := r.subShardInfosFor(d)
		for i := 0; i < P; i++ {
			colLanes := r.activeLanes(lanes, i)
			if len(colLanes) == 0 {
				continue
			}
			base, ovc := infos[i*P+j].Edges > 0, r.ovCell(d, i, j)
			if i < Q {
				if base {
					ss, err := batchSubShard(blocks, cellID{d, i, j})
					if err != nil {
						return err
					}
					r.countEdges(colLanes, ss.NumEdges())
					p.submit(g, i, j, r.gatherTasks(ss, d, cellTombsOf(r.ov, d, i, j, ss), r.srcView(d), accV, nil, nil, colLanes))
				}
				if ovc != nil {
					r.countEdges(colLanes, ovc.NumEdges())
					p.submit(g, i, j, r.gatherTasks(ovc, d, nil, r.srcView(d), accV, nil, nil, colLanes))
				}
				continue
			}
			if base {
				dsts, vals, err := r.hubs[d].Read(i, j)
				if err != nil {
					return err
				}
				bounds := chunkRanges(len(dsts), r.chunk)
				prev := hub
				hub = p.submit(g, i, j, gatherUnit{n: len(bounds) - 1, fn: func(c int) {
					r.foldHub(dsts, vals, accV, colLanes, bounds[c], bounds[c+1])
				}})
				if prev != nil {
					p.await(prev)
				}
			}
			if ovc != nil {
				// The in-memory overlay partials this iteration's row
				// phase wrote for the same lanes.
				p.submit(g, i, j, gatherUnit{n: 1, fn: func(int) {
					r.foldHub(ovc.Dsts, r.ovHub[d][i*P+j], accV, colLanes, 0, ovc.NumDsts())
				}})
			}
		}
	}
	p.drain()
	old := r.oldBuf[:len(acc)]
	if err := r.attrs.ReadInterval(j, old); err != nil {
		return err
	}
	applies := make([]bool, L)
	for _, l := range lanes {
		applies[l] = r.applies(l, j, dirs)
	}
	bounds := chunkRanges(int(hi-lo), r.chunk)
	changed := make([]bool, (len(bounds)-1)*L)
	p.run(len(bounds)-1, func(c int) {
		for l := range r.lanes {
			if applies[l] {
				v0, v1 := lo+uint32(bounds[c]), lo+uint32(bounds[c+1])
				changed[c*L+l] = r.applyChunk(&r.lanes[l], old, acc, L, l-int(lo)*L, v0, v1)
			} else {
				copyLane(old, acc, L, l, uint32(bounds[c]), uint32(bounds[c+1]))
			}
		}
	})
	for x, ch := range changed {
		if ch {
			activeNext[x%L][j] = true
		}
	}
	return r.attrs.WriteInterval(j, acc)
}

// applyResident finalizes resident intervals for the participating
// lanes, recording each lane's next frontier in activeNext: Apply where
// the lane is dense or an active source interval has edges into the
// interval, plain carry-forward elsewhere (and for retired lanes). Tasks
// are vertex chunks that every lane sweeps in turn, sized so a chunk's
// whole block (all L lanes of curr and next) stays cache-resident across
// the per-lane passes — one lane's walk is L-strided, which over an
// unbounded range would miss on every vertex. Every task then refreshes
// the hoisted rank-sum view from the freshly written attributes and
// re-zeroes its slice of what is about to become the next iteration's
// accumulator (r.curr, pre-swap) while the cache lines are still hot, so
// step() needs no separate sweep for either.
func (r *Run) applyResident(p *gatherPool, lanes, dirs []int, activeNext [][]bool) {
	m := r.e.store.Meta()
	Q, L := r.q, len(r.lanes)
	// applies[j*L+l]: does lane l Apply over interval j?
	applies := make([]bool, Q*L)
	for _, l := range lanes {
		for j := 0; j < Q; j++ {
			applies[j*L+l] = r.applies(l, j, dirs)
		}
	}
	type task struct {
		j      int
		v0, v1 uint32
	}
	chunkV := min(r.chunk, max(64, (1<<15)/L)) // ≈256KiB of curr+next per chunk
	var tasks []task
	for j := 0; j < Q; j++ {
		lo, hi := m.IntervalRange(j)
		bounds := chunkRanges(int(hi-lo), chunkV)
		for c := 0; c < len(bounds)-1; c++ {
			tasks = append(tasks, task{j, lo + uint32(bounds[c]), lo + uint32(bounds[c+1])})
		}
	}
	changed := make([]bool, len(tasks)*L)
	p.run(len(tasks), func(t int) {
		tk := tasks[t]
		for l := 0; l < L; l++ {
			if applies[tk.j*L+l] {
				changed[t*L+l] = r.applyChunk(&r.lanes[l], r.curr, r.next, L, l, tk.v0, tk.v1)
			} else {
				copyLane(r.curr, r.next, L, l, tk.v0, tk.v1)
			}
		}
		if r.useScaled {
			for _, d := range dirs {
				refreshScaled(r.scaled[d], r.next, r.degOf(d), L, tk.v0, tk.v1)
			}
		}
		zeroSlab(r.curr[int(tk.v0)*L:int(tk.v1)*L], r.zero)
	})
	for t, tk := range tasks {
		for _, l := range lanes {
			if changed[t*L+l] {
				activeNext[l][tk.j] = true
			}
		}
	}
}

// applyChunk applies lane ln's vertices [v0, v1): old and acc hold the
// lane's attribute and accumulated contribution of vertex v at index
// int(v)*stride+off (lane l of a slab as stride L, off l, or of a window
// with base b as off l-b*L), and the new attribute replaces the
// contribution in acc. It uses the program's LaneApplier, when it has
// one, to skip per-vertex interface dispatch.
func (r *Run) applyChunk(ln *lane, old, acc []float64, stride, off int, v0, v1 uint32) bool {
	if ln.la != nil {
		return ln.la.ApplyLane(old, acc, stride, off, v0, v1)
	}
	return applyRange(ln.p, old, acc, stride, off, v0, v1)
}

// srcView is the resident source window the gather kernels of traversal
// flag d read: the per-iteration scaled slab under the RankSum division
// hoist, the raw attributes otherwise.
func (r *Run) srcView(d int) view {
	if r.useScaled {
		return view{r.scaled[d], 0}
	}
	return view{r.curr, 0}
}

// refreshScaled recomputes the hoisted rank-sum Gather values
// scaled[v*L+l] = attrs[v*L+l] / float64(deg[v]) for vertices [v0, v1) —
// with exactly the operands Gather would use, so the hoisted fold stays
// bit-identical. Zero-degree rows are skipped: a gathered edge from
// source s implies s's overlay-adjusted degree is at least 1 (tombstoned
// edges never reach a kernel), so those slots are never read and
// whatever they hold is immaterial.
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

// foldResidentAggregates starts every participating lane's global
// aggregate over the resident attributes. There is one rule at every
// width and strategy: a LaneAggregator answers in one call when the
// whole attribute array is resident; everything else is the serial
// ascending-vertex fold, resident vertices here and streamed intervals as
// the row phase reads them. step() publishes the value via SetGlobal
// after the row phase. Lanes reduce independently, so they parallelize.
func (r *Run) foldResidentAggregates(p *gatherPool, lanes []int) {
	var aggLanes []int
	for _, l := range lanes {
		if r.lanes[l].agg != nil {
			aggLanes = append(aggLanes, l)
		}
	}
	deg := r.primaryDeg()
	allResident := r.resEnd == r.e.store.Meta().NumVertices
	p.run(len(aggLanes), func(t int) {
		l := aggLanes[t]
		ln := &r.lanes[l]
		if ln.laggr != nil && allResident {
			ln.aggVal = ln.laggr.AggLane(r.curr, len(r.lanes), l, deg)
			return
		}
		ln.aggVal = foldAggregate(ln.agg, ln.agg.AggZero(), r.curr, len(r.lanes), l, 0, deg)
	})
}

// foldAggregate continues the serial global-aggregate fold from val over
// the vertices whose attributes sit in vals at stride/off, the first of
// them being vertex lo.
func foldAggregate(a GlobalAggregator, val float64, vals []float64, stride, off int, lo uint32, deg []uint32) float64 {
	for x, n := 0, len(vals)/stride; x < n; x++ {
		v := lo + uint32(x)
		val = a.AggCombine(val, a.AggVertex(v, vals[x*stride+off], deg[v]))
	}
	return val
}

// foldHub folds hub entries [k0, k1) — L lane-minor partials each — of
// the given lanes into the accumulator window: the FromHub kernel. The
// Sum a kernel hint pins folds as a builtin, anything else through the
// lane's Program.
func (r *Run) foldHub(dsts []uint32, vals []float64, acc view, lanes []int, k0, k1 int) {
	L, op := len(r.lanes), r.op
	ao := -int(acc.base) * L
	for k := k0; k < k1; k++ {
		db := int(dsts[k])*L + ao
		for _, l := range lanes {
			a, v := acc.vals[db+l], vals[k*L+l]
			switch op {
			case opSum:
				a += v
			case opMin, opHop, opDist:
				a = min(a, v)
			case opMax:
				a = max(a, v)
			default:
				a = r.lanes[l].p.Sum(a, v)
			}
			acc.vals[db+l] = a
		}
	}
}
