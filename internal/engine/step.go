package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"nxgraph/internal/diskio"
	"nxgraph/internal/storage"
	"nxgraph/internal/trace"
)

// Step executes one iteration (Algorithm 1's repeat body). It returns
// false when the computation has terminated: every interval inactive, or
// the MaxIterations budget exhausted.
func (r *Run) Step() (bool, error) {
	return r.step()
}

// StepContext is Step with cancellation: ctx is consulted before the
// iteration and between sub-shard batches (each row of the row phase, each
// destination interval of the column phase). On cancellation it returns
// ctx.Err() without corrupting run state; the run may not be stepped
// further, but the engine and store remain reusable.
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
	if max := r.e.cfg.MaxIterations; max > 0 && r.iter >= max {
		r.finished = true
		return false, nil
	}
	anyActive := false
	for _, a := range r.active {
		if a {
			anyActive = true
			break
		}
	}
	if !anyActive {
		r.finished = true
		return false, nil
	}

	m := r.e.store.Meta()
	P, Q := m.P, r.q
	dirs := r.dirsUsed()

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

	// InitializeIteration: the resident accumulators must hold Zero.
	// After a completed step this is already true — the apply phase
	// re-zeroes the outgoing attribute array while its cache lines are
	// hot (see applyResident) — so the sweep below only runs on the first
	// step and after an aborted one.
	if !r.nextZeroed {
		zero := r.p.Zero()
		bounds := chunkRanges(int(r.resEnd), 1<<16)
		parallelFor(r.threads, len(bounds)-1, func(c int) {
			fill(r.next[bounds[c]:bounds[c+1]], zero)
		})
	}
	r.nextZeroed = false

	// RankSum division hoist: refresh the per-iteration scaled view of
	// the resident attributes before any gathering reads it.
	if r.useScaled {
		r.refreshScaled(r.scaled, r.curr[:r.resEnd], 0, r.degOf(dirs[0]))
	}

	// Global aggregate over current attributes (resident part now,
	// on-disk intervals as the row phase streams them through memory).
	var aggVal float64
	if r.agg != nil {
		aggVal = r.agg.AggZero()
		deg := r.primaryDeg()
		switch {
		case r.laggr != nil && r.resEnd == m.NumVertices:
			// Every attribute is resident (SPU): one lane-aggregate call,
			// bit-identical to the serial fold by LaneAggregator's
			// contract and free to exploit program structure (PageRank's
			// skips every non-dangling vertex).
			aggVal = r.laggr.AggLane(r.curr, 1, 0, deg)
		case r.laggr != nil:
			// A LaneAggregator promises serial-fold bits and fused runs
			// rely on them, so partial-array strategies keep the exact
			// serial order: resident vertices now, streamed intervals as
			// the row phase flows them through memory.
			for v := uint32(0); v < r.resEnd; v++ {
				aggVal = r.agg.AggCombine(aggVal, r.agg.AggVertex(v, r.curr[v], deg[v]))
			}
		default:
			aggVal = r.aggRange(aggVal, r.curr[:r.resEnd], 0, deg)
		}
	}

	// Row phase: SPU-like updates into resident accumulators, ToHub for
	// on-disk destinations (Algorithm 7 lines 1-16). Each row's blocks
	// are pinned by the prefetch pipeline one row ahead, so row i's
	// gathering overlaps row i+1's reads.
	rowPipe := r.newPipeline(r.rowPlans(dirs))
	defer rowPipe.drain()
	for i := 0; i < P; i++ {
		if err := r.checkCtx(); err != nil {
			return false, err
		}
		srcActive := r.active[i]
		if i < Q {
			if !srcActive {
				continue
			}
			if err := r.processRow(i, r.srcView(), dirs, rowPipe.take(i)); err != nil {
				return false, err
			}
			continue
		}
		for _, d := range dirs {
			if r.hubRowValid[d] != nil {
				r.hubRowValid[d][i] = srcActive
			}
		}
		if !srcActive && r.agg == nil {
			continue
		}
		lo, hi := m.IntervalRange(i)
		buf := r.loadBuf[:hi-lo]
		if err := r.attrs.ReadInterval(i, buf); err != nil {
			return false, err
		}
		if r.agg != nil {
			deg := r.primaryDeg()
			if r.laggr != nil { // serial-fold bits, see the resident case
				for v := lo; v < hi; v++ {
					aggVal = r.agg.AggCombine(aggVal, r.agg.AggVertex(v, buf[v-lo], deg[v]))
				}
			} else {
				aggVal = r.aggRange(aggVal, buf, lo, deg)
			}
		}
		if !srcActive {
			continue
		}
		srcV := view{buf, lo}
		if r.useScaled {
			sbuf := r.scaledBuf[:hi-lo]
			r.refreshScaled(sbuf, buf, lo, r.degOf(dirs[0]))
			srcV = view{sbuf, lo}
		}
		if err := r.processRow(i, srcV, dirs, rowPipe.take(i)); err != nil {
			return false, err
		}
	}
	if r.agg != nil {
		r.agg.SetGlobal(aggVal)
	}

	activeNext := make([]bool, P)

	// Column phase: FromHub plus resident-source gathering for on-disk
	// destination intervals (Algorithm 7 lines 17-26), pipelined like the
	// row phase (the column-major reads are the seekiest of the step).
	// The loop iterates the plans themselves, so the pipeline's
	// consume-in-plan-order contract holds by construction.
	colPlans := r.colPlans(dirs)
	colPipe := r.newPipeline(colPlans)
	defer colPipe.drain()
	for _, plan := range colPlans {
		if err := r.checkCtx(); err != nil {
			return false, err
		}
		changed, err := r.processColumn(plan.id, dirs, plan.touched, colPipe.take(plan.id))
		if err != nil {
			return false, err
		}
		activeNext[plan.id] = changed
	}

	// Apply phase for resident intervals, then ping-pong swap.
	applySpan := r.tr.Start(trace.KindApply, "apply-resident", iterSpan.ID)
	if err := r.applyResident(activeNext); err != nil {
		return false, err
	}
	r.tr.End(applySpan)
	r.curr, r.next = r.next, r.curr
	r.nextZeroed = true // apply tasks re-zeroed what is now r.next
	copy(r.active, activeNext)
	r.iter++
	r.notifyProgress(activeNext)

	if r.tr != nil {
		dur := r.tr.End(iterSpan)
		io := r.e.store.Disk().Stats().Snapshot().Sub(iterIO)
		stall := time.Duration(r.stallNS)
		compute := dur - stall
		if compute < 0 {
			compute = 0
		}
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

// subShardInfosFor returns the sub-shard index for a traversal flag.
func (r *Run) subShardInfosFor(d int) []storage.SubShardInfo {
	m := r.e.store.Meta()
	if d == 1 {
		return m.TSubShards
	}
	return m.SubShards
}

// processRow executes row i of the sub-shard matrix with source attributes
// src: destinations in resident intervals accumulate into r.next;
// destinations in on-disk intervals are gathered into hubs (ToHub).
// blocks is the row's prefetched batch; processRow owns it — blocks stay
// pinned until every gather task has run, then the whole batch releases.
// Within one replica's row, distinct destination ranges never overlap, so
// callback mode runs each group lock-free; groups that can collide on a
// destination (forward vs transposed replica, base vs overlay) are
// separated by barriers — see the scheduling comment below.
func (r *Run) processRow(i int, src view, dirs []int, blocks *fetchBatch) error {
	defer blocks.release()
	if err := r.waitBatch(blocks, "row-", i); err != nil {
		return err
	}
	if r.tr != nil {
		gsp := r.tr.Start(trace.KindGather, spanName("row-", i), r.iterSpanID.Load())
		defer r.tr.End(gsp)
	}
	m := r.e.store.Meta()
	P, Q := m.P, r.q
	jmax := P
	if i < Q {
		jmax = Q // SS[i][j>=Q] with resident source is handled by the column phase
	}
	// Tasks are scheduled in conflict-free groups. Hub-side tasks
	// (j >= Q) write private per-cell value arrays and can run with
	// anything. Resident-destination gathers (j < Q) fold into the
	// shared r.next accumulator: within one replica's row the distinct
	// destination ranges are disjoint (the §III-D invariant), but the
	// forward and transposed replicas — and a cell's base sub-shard vs
	// its overlay cell — can hit the same destination vertex, so each
	// (replica, base|overlay) group gets its own barrier. Forward-only
	// runs without deltas still execute exactly one parallelFor.
	var free []func()           // hub-side: no shared accumulator
	var resident [2][2][]func() // [traversal flag][0 = base, 1 = overlay]
	for _, d := range dirs {
		deg := r.degOf(d)
		infos := r.subShardInfosFor(d)
		for j := 0; j < jmax; j++ {
			base := infos[i*P+j].Edges > 0
			ovc := r.ovCell(d, i, j)
			if !base && ovc == nil {
				continue
			}
			if r.e.cfg.Order == SrcSortedCoarse { // overlay rejected at NewRun
				flat, err := r.batchFlat(blocks, cellID{d, i, j, true})
				if err != nil {
					return err
				}
				r.edges += int64(len(flat.srcs))
				lock := &r.locks[j]
				acc := view{r.next, 0}
				p, dd := r.p, deg
				f := scalarFoldFor(r.hint, false, flat.ws != nil)
				free = append(free, func() { // interval lock serializes
					lock.Lock()
					if !gatherSrcSortedSpec(f, dd, r.mask, flat, src, acc) {
						gatherSrcSorted(p, dd, r.mask, flat, src, acc)
					}
					lock.Unlock()
				})
				continue
			}
			if j < Q {
				if base {
					ss, err := r.batchSubShard(blocks, cellID{d, i, j, false})
					if err != nil {
						return err
					}
					r.edges += int64(ss.NumEdges())
					resident[d][0] = append(resident[d][0], r.gatherTasks(ss, deg, cellTombsOf(r.ov, d, i, j, ss), src, view{r.next, 0}, j)...)
				}
				if ovc != nil {
					r.edges += int64(ovc.NumEdges())
					resident[d][1] = append(resident[d][1], r.gatherTasks(ovc, deg, nil, src, view{r.next, 0}, j)...)
				}
				continue
			}
			if base {
				ss, err := r.batchSubShard(blocks, cellID{d, i, j, false})
				if err != nil {
					return err
				}
				r.edges += int64(ss.NumEdges())
				vals := make([]float64, ss.NumDsts())
				free = append(free, r.hubTasks(ss, deg, cellTombsOf(r.ov, d, i, j, ss), src, vals, func() {
					if err := r.hubs[d].Write(i, j, ss.Dsts, vals); err != nil {
						r.setErr(err)
					}
				})...)
			}
			if ovc != nil {
				// Overlay contributions to an on-disk destination
				// interval accumulate in memory (the hub file's regions
				// are sized from the base meta); the column phase folds
				// them alongside the disk hub.
				r.edges += int64(ovc.NumEdges())
				free = append(free, r.hubTasks(ovc, deg, nil, src, r.ovHubVals(d, i, j, ovc), func() {})...)
			}
		}
	}
	first := true
	for _, d := range dirs {
		for _, g := range resident[d] {
			if first {
				g = append(g, free...) // fold free tasks into the first barrier
				free = nil
				first = false
			}
			if len(g) == 0 {
				continue
			}
			parallelFor(r.threads, len(g), func(t int) { g[t]() })
		}
	}
	parallelFor(r.threads, len(free), func(t int) { free[t]() }) // no resident groups ran
	return r.takeErr()
}

// gatherTasks builds the fine-grained (callback) or interval-locked (lock)
// tasks that fold sub-shard ss into a dense accumulator. tombs is the
// cell's resolved tombstones (nil for overlay cells and base cells
// without pending removals): each task walks its destinations as clean
// runs and single dirty destinations, so only the latter see a
// predicate. Cells whose Gather/Sum match the run's kernel hint go
// through the devirtualized fold loops; chunk boundaries balance edges,
// not destinations, so a hub destination does not serialize its whole
// chunk's worth of sparse neighbours behind it.
func (r *Run) gatherTasks(ss *storage.SubShard, deg []uint32, tombs *cellTombs, src, acc view, j int) []func() {
	p := r.p
	f := scalarFoldFor(r.hint, r.useScaled, ss.Weights != nil)
	kernel := func(del delPred, k0, k1 int) {
		if f != foldNone {
			gatherSpec(f, deg, r.mask, del, ss, src, acc, nil, k0, k1)
		} else {
			gatherCSR(p, deg, r.mask, del, ss, src, acc, k0, k1)
		}
	}
	if r.e.cfg.Sync == Lock {
		lock := &r.locks[j]
		return []func(){func() {
			lock.Lock()
			tombs.gather(0, ss.NumDsts(), kernel)
			lock.Unlock()
		}}
	}
	bounds := edgeChunkRanges(ss.Offsets, r.chunkCost)
	tasks := make([]func(), 0, len(bounds)-1)
	for c := 0; c < len(bounds)-1; c++ {
		k0, k1 := bounds[c], bounds[c+1]
		tasks = append(tasks, func() { tombs.gather(k0, k1, kernel) })
	}
	return tasks
}

// hubTasks builds the ToHub tasks for sub-shard ss — base SS[i][j] with
// its resolved tombstones, or an overlay cell with none: gather partials
// into vals (parallel to ss.Dsts), then run done once the last chunk
// completes (the callback mechanism).
func (r *Run) hubTasks(ss *storage.SubShard, deg []uint32, tombs *cellTombs, src view, vals []float64, done func()) []func() {
	p := r.p
	f := scalarFoldFor(r.hint, r.useScaled, ss.Weights != nil)
	kernel := func(del delPred, k0, k1 int) {
		if f != foldNone {
			gatherSpec(f, deg, r.mask, del, ss, src, view{}, vals, k0, k1)
		} else {
			gatherToHub(p, deg, r.mask, del, ss, src, vals, k0, k1)
		}
	}
	if r.e.cfg.Sync == Lock {
		return []func(){func() {
			tombs.gather(0, ss.NumDsts(), kernel)
			done()
		}}
	}
	bounds := edgeChunkRanges(ss.Offsets, r.chunkCost)
	var pending atomic.Int32
	pending.Store(int32(len(bounds) - 1))
	tasks := make([]func(), 0, len(bounds)-1)
	for c := 0; c < len(bounds)-1; c++ {
		k0, k1 := bounds[c], bounds[c+1]
		tasks = append(tasks, func() {
			tombs.gather(k0, k1, kernel)
			if pending.Add(-1) == 0 {
				done()
			}
		})
	}
	return tasks
}

// columnTouched reports whether any contribution can reach on-disk
// destination interval j this iteration.
func (r *Run) columnTouched(j int, dirs []int) bool {
	P, Q := r.e.store.Meta().P, r.q
	for _, d := range dirs {
		infos := r.subShardInfosFor(d)
		for i := 0; i < Q; i++ {
			if r.active[i] && r.cellHasEdges(d, i, j) {
				return true
			}
		}
		for i := Q; i < P; i++ {
			if r.hubRowValid[d][i] && (infos[i*P+j].Dsts > 0 || r.ovCell(d, i, j) != nil) {
				return true
			}
		}
	}
	return false
}

// processColumn runs the FromHub side for on-disk destination interval j:
// gather resident-source sub-shards, fold hubs, apply, and persist.
// blocks is the column's prefetched batch; processColumn owns it.
func (r *Run) processColumn(j int, dirs []int, touched bool, blocks *fetchBatch) (bool, error) {
	defer blocks.release()
	if err := r.waitBatch(blocks, "col-", j); err != nil {
		return false, err
	}
	if r.tr != nil {
		gsp := r.tr.Start(trace.KindGather, spanName("col-", j), r.iterSpanID.Load())
		defer r.tr.End(gsp)
	}
	m := r.e.store.Meta()
	P, Q := m.P, r.q
	lo, hi := m.IntervalRange(j)
	if lo == hi {
		return false, nil
	}
	acc := r.accBuf[:hi-lo]
	fill(acc, r.p.Zero())
	accV := view{acc, lo}
	if touched {
		for _, d := range dirs {
			deg := r.degOf(d)
			infos := r.subShardInfosFor(d)
			for i := 0; i < Q; i++ {
				if !r.active[i] {
					continue
				}
				if infos[i*P+j].Edges > 0 {
					ss, err := r.batchSubShard(blocks, cellID{d, i, j, false})
					if err != nil {
						return false, err
					}
					r.edges += int64(ss.NumEdges())
					tasks := r.gatherTasks(ss, deg, cellTombsOf(r.ov, d, i, j, ss), r.srcView(), accV, j)
					parallelFor(r.threads, len(tasks), func(t int) { tasks[t]() })
				}
				if ovc := r.ovCell(d, i, j); ovc != nil {
					r.edges += int64(ovc.NumEdges())
					tasks := r.gatherTasks(ovc, deg, nil, r.srcView(), accV, j)
					parallelFor(r.threads, len(tasks), func(t int) { tasks[t]() })
				}
			}
			for i := Q; i < P; i++ {
				if !r.hubRowValid[d][i] {
					continue
				}
				if infos[i*P+j].Dsts > 0 {
					dsts, vals, err := r.hubs[d].Read(i, j)
					if err != nil {
						return false, err
					}
					bounds := chunkRanges(len(dsts), r.chunk)
					parallelFor(r.threads, len(bounds)-1, func(c int) {
						r.foldHubRange(dsts, vals, accV, bounds[c], bounds[c+1])
					})
				}
				if ovc := r.ovCell(d, i, j); ovc != nil {
					// Fold the in-memory overlay partials written by this
					// iteration's row phase (hubRowValid guarantees the
					// row ran, so the array is populated).
					r.foldHubRange(ovc.Dsts, r.ovHub[d][i*P+j], accV, 0, ovc.NumDsts())
				}
			}
			if err := r.takeErr(); err != nil {
				return false, err
			}
		}
	}
	old := r.oldBuf[:hi-lo]
	if err := r.attrs.ReadInterval(j, old); err != nil {
		return false, err
	}
	oldV := view{old, lo}
	bounds := chunkRanges(int(hi-lo), r.chunk)
	changed := make([]bool, len(bounds)-1)
	parallelFor(r.threads, len(bounds)-1, func(c int) {
		v0, v1 := lo+uint32(bounds[c]), lo+uint32(bounds[c+1])
		changed[c] = r.applyChunk(oldV, accV, v0, v1)
	})
	anyChanged := false
	for _, c := range changed {
		if c {
			anyChanged = true
			break
		}
	}
	if err := r.attrs.WriteInterval(j, acc); err != nil {
		return false, err
	}
	return anyChanged, nil
}

// applyResident finalizes resident intervals: Apply where contributions
// (or a global aggregate) demand it, plain copy elsewhere. Every task —
// apply or copy — re-zeroes its slice of what is about to become the
// next iteration's accumulator (r.curr, pre-swap) while the cache lines
// are still hot, so step() never needs a separate zeroing sweep.
func (r *Run) applyResident(activeNext []bool) error {
	m := r.e.store.Meta()
	P, Q := m.P, r.q
	dirs := r.dirsUsed()
	type task struct {
		j      int
		v0, v1 uint32
		copy   bool
	}
	var tasks []task
	for j := 0; j < Q; j++ {
		lo, hi := m.IntervalRange(j)
		if lo == hi {
			continue
		}
		touched := r.dense
		if !touched {
			for _, d := range dirs {
				for i := 0; i < P; i++ {
					if r.active[i] && r.cellHasEdges(d, i, j) {
						touched = true
						break
					}
				}
				if touched {
					break
				}
			}
		}
		bounds := chunkRanges(int(hi-lo), r.chunk)
		for c := 0; c < len(bounds)-1; c++ {
			tasks = append(tasks, task{j, lo + uint32(bounds[c]), lo + uint32(bounds[c+1]), !touched})
		}
	}
	changed := make([]bool, len(tasks))
	zero := r.p.Zero()
	currV, nextV := view{r.curr, 0}, view{r.next, 0}
	parallelFor(r.threads, len(tasks), func(t int) {
		tk := tasks[t]
		if tk.copy {
			copy(r.next[tk.v0:tk.v1], r.curr[tk.v0:tk.v1])
		} else {
			changed[t] = r.applyChunk(currV, nextV, tk.v0, tk.v1)
		}
		fill(r.curr[tk.v0:tk.v1], zero)
	})
	for t, ch := range changed {
		if ch {
			activeNext[tasks[t].j] = true
		}
	}
	return nil
}

// srcView is the resident source-attribute window the gather kernels
// read: the per-iteration scaled array under the RankSum division hoist,
// the raw attributes otherwise.
func (r *Run) srcView() view {
	if r.useScaled {
		return view{r.scaled, 0}
	}
	return view{r.curr, 0}
}

// refreshScaled recomputes dst[i] = vals[i] / float64(deg[lo+i]) in
// parallel chunks — the RankSum division hoist, performed with exactly
// the operands Gather(vals[i], deg[lo+i], w) would use so the hoisted
// fold stays bit-identical. Zero-degree vertices yield Inf entries that
// are never read: a gathered edge from source s implies s's
// overlay-adjusted degree is at least 1 (tombstoned edges are filtered
// before the attribute read).
func (r *Run) refreshScaled(dst, vals []float64, lo uint32, deg []uint32) {
	bounds := chunkRanges(len(vals), 1<<15)
	parallelFor(r.threads, len(bounds)-1, func(c int) {
		for i := bounds[c]; i < bounds[c+1]; i++ {
			dst[i] = vals[i] / float64(deg[lo+uint32(i)])
		}
	})
}

// aggRange folds the global aggregate over the vertex range
// [lo, lo+len(vals)) whose attributes sit in vals, computing per-chunk
// partials in parallel and combining them with AggCombine in ascending
// chunk order. The fixed chunk size makes the result deterministic for
// any thread count, though the chunked combine is not the serial fold's
// float association — programs that need serial bits declare a
// LaneAggregator and never reach this path.
func (r *Run) aggRange(val float64, vals []float64, lo uint32, deg []uint32) float64 {
	bounds := chunkRanges(len(vals), 1<<15)
	parts := make([]float64, len(bounds)-1)
	parallelFor(r.threads, len(parts), func(c int) {
		pv := r.agg.AggZero()
		for i := bounds[c]; i < bounds[c+1]; i++ {
			v := lo + uint32(i)
			pv = r.agg.AggCombine(pv, r.agg.AggVertex(v, vals[i], deg[v]))
		}
		parts[c] = pv
	})
	for _, pv := range parts {
		val = r.agg.AggCombine(val, pv)
	}
	return val
}

// foldHubRange folds hub partials [k0, k1) into the accumulator through
// the devirtualized Sum loop when the kernel hint pins Sum's form, the
// generic per-entry path otherwise.
func (r *Run) foldHubRange(dsts []uint32, vals []float64, acc view, k0, k1 int) {
	if !foldHubSpec(sumFoldFor(r.hint), dsts, vals, acc, k0, k1) {
		foldHub(r.p, dsts, vals, acc, k0, k1)
	}
}

// applyChunk applies vertices [v0, v1), reading old attributes from old
// and folding into acc in place. With no mask installed it uses the
// program's LaneApplier (stride 1; both views share a base, so one
// offset indexes both arrays) to skip per-vertex interface dispatch.
func (r *Run) applyChunk(old, acc view, v0, v1 uint32) bool {
	if r.la != nil && r.mask == nil {
		return r.la.ApplyLane(old.vals, acc.vals, 1, -int(old.base), v0, v1)
	}
	return applyRange(r.p, r.mask, old, acc, acc, v0, v1)
}
