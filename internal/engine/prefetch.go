package engine

import (
	"fmt"
	"strconv"
	"sync"

	"nxgraph/internal/blockcache"
	"nxgraph/internal/storage"
	"nxgraph/internal/trace"
)

// This file is the engine's read path: every sub-shard consumed by a
// step goes through the shared block cache (pinned, decoded blocks —
// see internal/blockcache) and, within a step, through a double-buffered
// prefetch pipeline. While the row/column phase computes on batch k, one
// background goroutine pins batch k+1's blocks, so disk reads overlap
// gathering instead of serializing with it. Cache hits make the fetch a
// map lookup; misses decode once and publish for every run on the store.

// cellID names one block a phase needs: sub-shard (i, j) of traversal
// flag d (1 = transpose).
type cellID struct{ d, i, j int }

// spanNames interns span label strings across runs: block labels keyed
// by cellID, indexed labels (iter-3, row-0, ...) by nameKey. The label
// space is bounded — P² cells per store shape, small indices — so the
// map stays tiny while the traced read path stops allocating a fresh
// string per block acquisition.
var spanNames sync.Map

type nameKey struct {
	prefix string
	n      int
}

// spanName returns the interned prefix+itoa(n) label. Large indices
// (very long runs) skip interning so the map cannot grow without bound.
func spanName(prefix string, n int) string {
	if n >= 4096 {
		return prefix + strconv.Itoa(n)
	}
	k := nameKey{prefix, n}
	if v, ok := spanNames.Load(k); ok {
		return v.(string)
	}
	s := prefix + strconv.Itoa(n)
	spanNames.Store(k, s)
	return s
}

// name renders the cell for span labels: f/t for forward/transpose.
// Interned — this runs once per block acquisition on the traced read
// path.
func (c cellID) name() string {
	if v, ok := spanNames.Load(c); ok {
		return v.(string)
	}
	p := "f"
	if c.d == 1 {
		p = "t"
	}
	s := p + "[" + strconv.Itoa(c.i) + "," + strconv.Itoa(c.j) + "]"
	spanNames.Store(c, s)
	return s
}

// poisonSpare is nil outside this package's tests, which set it to
// overwrite an evicted block's arrays just before they are decoded into
// again: a *storage.SubShard kept past its handle's Release then reads
// garbage in every suite instead of another block's plausible edges.
var poisonSpare func(*storage.SubShard)

// loadBlock pins cell c's decoded block through the shared cache,
// reporting whether the pin went to disk and, if so, the decoded size.
// All read paths (traced or not) funnel through here. A miss reads the
// blob and decodes it into the arrays of a block the cache has evicted,
// when it has one the right size, so a cold scan stops paying for a
// fresh zeroed allocation per block; the rule that makes this safe is
// the one Handle already states — nothing may keep a *storage.SubShard
// past its handle's Release.
func (r *Run) loadBlock(c cellID) (h *blockcache.Handle, missed bool, decoded int64, err error) {
	key := blockcache.Key{Gen: r.e.cacheGen, I: c.i, J: c.j, Transpose: c.d == 1}
	m := r.e.store.Meta()
	info := r.subShardInfosFor(c.d)[c.i*m.P+c.j]
	want := 4 * (2*info.Dsts + 1 + info.Edges) // SubShard.MemBytes of the block about to be decoded
	if m.Weighted {
		want += 4 * info.Edges
	}
	h, err = r.e.cache.Get(key, want, func(spare any) (any, int64, error) {
		// The disk read and the decode: single-flighted per sub-shard; a
		// load that succeeds is exactly one Stats miss.
		missed = true
		blob, err := r.e.store.ReadSubShardRaw(c.i, c.j, c.d == 1)
		if err != nil {
			return nil, 0, err
		}
		into, _ := spare.(*storage.SubShard)
		if into != nil && poisonSpare != nil {
			poisonSpare(into)
		}
		ss, err := storage.DecodeSubShardAs(into, blob, m.Weighted, m.Version)
		if err != nil {
			return nil, 0, fmt.Errorf("decode %s: %w", c.name(), err)
		}
		decoded = want
		return ss, ss.MemBytes(), nil
	})
	return
}

// getBlock pins cell c's block with an individually recorded block-load
// span. It serves the step loop's batchSubShard fallbacks — rare,
// unplanned loads — so the trace counters it touches are atomics.
func (r *Run) getBlock(c cellID) (*blockcache.Handle, error) {
	var sp trace.Span
	if r.tr != nil {
		sp = r.tr.Start(trace.KindBlockLoad, c.name(), r.iterSpanID.Load())
	}
	h, missed, decoded, err := r.loadBlock(c)
	if r.tr != nil {
		if err == nil {
			if missed {
				sp.Tag = trace.TagMiss
				sp.Bytes = decoded
				r.iterMisses.Add(1)
			} else {
				sp.Tag = trace.TagHit
				r.iterHits.Add(1)
			}
		}
		r.tr.End(sp)
	}
	return h, err
}

// fetchTrace buffers one fetch goroutine's trace output. Misses keep
// individual spans — they carry decoded bytes and real disk latency —
// but hits coalesce into a single counted span per batch: a warm batch
// is nothing but hits, and materializing a ~0µs span per hit costs more
// in stores and ring churn than the information is worth.
type fetchTrace struct {
	spans    []trace.Span
	hits     int64
	misses   int64
	firstNS  int64 // Clock offset of the batch's first hit
	hitDurNS int64 // summed duration of the batch's hits
}

// getBlockBatched is the fetch goroutine's traced load: it samples the
// trace clock around loadBlock and folds the result into ft, deferring
// all recording and counter updates to flushFetchTrace.
func (r *Run) getBlockBatched(c cellID, ft *fetchTrace) (*blockcache.Handle, error) {
	began := r.tr.Clock()
	h, missed, decoded, err := r.loadBlock(c)
	if err != nil {
		return h, err
	}
	dur := r.tr.Clock() - began
	if missed {
		sp := r.tr.Make(trace.KindBlockLoad, c.name(), r.iterSpanID.Load(), began, dur)
		sp.Tag = trace.TagMiss
		sp.Bytes = decoded
		ft.spans = append(ft.spans, sp)
		ft.misses++
	} else {
		if ft.hits == 0 {
			ft.firstNS = began
		}
		ft.hits++
		ft.hitDurNS += dur
	}
	return h, nil
}

// flushFetchTrace records a batch's buffered spans — one coalesced hit
// span plus any miss spans — under a single trace lock, and settles the
// iteration's hit/miss counters with one atomic RMW each.
func (r *Run) flushFetchTrace(ft *fetchTrace) {
	if ft.hits > 0 {
		sp := r.tr.Make(trace.KindBlockLoad, "hits", r.iterSpanID.Load(), ft.firstNS, ft.hitDurNS)
		sp.Tag = trace.TagHit
		sp.Count = ft.hits
		ft.spans = append(ft.spans, sp)
	}
	r.tr.Record(ft.spans)
	if ft.hits != 0 {
		r.iterHits.Add(ft.hits)
	}
	if ft.misses != 0 {
		r.iterMisses.Add(ft.misses)
	}
}

// waitBatch blocks on a phase batch's prefetch, recording the blocked
// time as a fetch-batch span and charging it to the iteration's
// prefetch-stall total. Only the step loop calls it, so stallNS needs no
// synchronization.
func (r *Run) waitBatch(b *fetchBatch, phase string, id int) error {
	if r.tr == nil {
		return b.wait()
	}
	sp := r.tr.Start(trace.KindFetchBatch, spanName(phase, id), r.iterSpanID.Load())
	err := b.wait()
	r.stallNS += int64(r.tr.End(sp))
	return err
}

// fetchBatch holds the pinned blocks of one phase batch (a row of the
// row phase, a destination interval of the column phase). handles is
// populated by the fetch goroutine and must only be read after wait;
// extra collects fallback pins taken synchronously by the consumer so
// release returns everything at once.
type fetchBatch struct {
	handles map[cellID]*blockcache.Handle
	extra   []*blockcache.Handle
	err     error
	done    chan struct{}
}

// emptyBatch returns a completed batch with no blocks, for consumers
// whose batch was not planned (all their loads fall back to synchronous
// pins via batchSubShard).
func emptyBatch() *fetchBatch {
	b := &fetchBatch{done: make(chan struct{})}
	close(b.done)
	return b
}

// startFetch pins the given cells on a background goroutine. Cells are
// loaded in slice order — ascending j within a row, matching the
// physical row-major layout of shards.dat, so misses read sequentially.
func (r *Run) startFetch(cells []cellID) *fetchBatch {
	if len(cells) == 0 {
		return emptyBatch()
	}
	b := &fetchBatch{
		handles: make(map[cellID]*blockcache.Handle, len(cells)),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(b.done)
		var ft *fetchTrace
		if r.tr != nil {
			ft = &fetchTrace{}
			defer func() { r.flushFetchTrace(ft) }()
		}
		for _, c := range cells {
			var h *blockcache.Handle
			var err error
			if ft != nil {
				h, err = r.getBlockBatched(c, ft)
			} else {
				h, _, _, err = r.loadBlock(c)
			}
			if err != nil {
				b.err = err
				return
			}
			b.handles[c] = h
		}
	}()
	return b
}

// wait blocks until the fetch goroutine finished and reports its error.
// It must be called before reading handles.
func (b *fetchBatch) wait() error {
	<-b.done
	return b.err
}

// release unpins every block the batch holds (including fallback pins),
// waiting out an in-flight fetch first so no pin is orphaned.
func (b *fetchBatch) release() {
	if b == nil {
		return
	}
	<-b.done
	for _, h := range b.handles {
		h.Release()
	}
	for _, h := range b.extra {
		h.Release()
	}
	b.handles, b.extra = nil, nil
}

// batchSubShard returns cell c's pinned sub-shard from the batch,
// falling back to a synchronous load (recorded in the batch so release
// covers it) when the planner did not anticipate the cell. Callers must
// have wait()ed on the batch.
func (r *Run) batchSubShard(b *fetchBatch, c cellID) (*storage.SubShard, error) {
	h, ok := b.handles[c]
	if !ok {
		var err error
		if h, err = r.getBlock(c); err != nil {
			return nil, err
		}
		b.extra = append(b.extra, h)
	}
	return h.Value().(*storage.SubShard), nil
}

// fetchPlan is one batch of the pipeline: the blocks batch id (a row
// index in the row phase, a destination interval in the column phase)
// will consume. touched carries the column phase's columnTouched
// verdict so the step loop never re-derives it (the pipeline's
// take-order contract holds by construction when the loop iterates the
// plans themselves).
type fetchPlan struct {
	id      int
	touched bool
	cells   []cellID
}

// pipeline runs the double-buffered prefetch over a phase's planned
// batches: at any time the batch being computed on is pinned and the
// next one is loading.
type pipeline struct {
	r        *Run
	plans    []fetchPlan
	next     int
	inflight *fetchBatch
}

// newPipeline starts fetching the first planned batch.
func (r *Run) newPipeline(plans []fetchPlan) *pipeline {
	p := &pipeline{r: r, plans: plans}
	if len(plans) > 0 {
		p.inflight = r.startFetch(plans[0].cells)
	}
	return p
}

// take hands over the pinned batch for plan id — which must be consumed
// in plan order — and starts the following plan's fetch so its reads
// overlap the caller's compute. The caller owns the returned batch and
// must release it. An unplanned id gets an empty batch.
func (p *pipeline) take(id int) *fetchBatch {
	if p.next >= len(p.plans) || p.plans[p.next].id != id {
		return emptyBatch()
	}
	b := p.inflight
	p.next++
	if p.next < len(p.plans) {
		p.inflight = p.r.startFetch(p.plans[p.next].cells)
	} else {
		p.inflight = nil
	}
	return b
}

// drain releases the in-flight batch; it must run on every exit from the
// phase loop (early error returns included) so no pin outlives the step.
func (p *pipeline) drain() {
	if p.inflight != nil {
		p.inflight.release()
		p.inflight = nil
	}
}

// rowPlans lists, in execution order, the rows this iteration's row
// phase will sweep (the union frontier over the participating lanes) and
// the base-store blocks each needs. Overlay cells are in-memory and never
// planned.
func (r *Run) rowPlans(dirs, lanes []int) []fetchPlan {
	m := r.e.store.Meta()
	P, Q := m.P, r.q
	var plans []fetchPlan
	for i := 0; i < P; i++ {
		anyActive := false
		for _, l := range lanes {
			anyActive = anyActive || r.lanes[l].active[i]
		}
		if !anyActive {
			continue
		}
		jmax := P
		if i < Q {
			jmax = Q // SS[i][j>=Q] with resident source is handled by the column phase
		}
		var cells []cellID
		for _, d := range dirs {
			infos := r.subShardInfosFor(d)
			for j := 0; j < jmax; j++ {
				if infos[i*P+j].Edges > 0 {
					cells = append(cells, cellID{d, i, j})
				}
			}
		}
		plans = append(plans, fetchPlan{id: i, cells: cells})
	}
	return plans
}

// colPlans lists the destination intervals the column phase will visit
// and the resident-source blocks each folds. It must be computed after
// the row phase (columnTouched consults hubRowValid, which the row phase
// fills in).
func (r *Run) colPlans(dirs []int) []fetchPlan {
	m := r.e.store.Meta()
	P, Q := m.P, r.q
	var plans []fetchPlan
	for j := Q; j < P; j++ { // Q < P implies one lane
		touched := r.columnTouched(j, dirs)
		if !touched && !r.lanes[0].dense {
			continue
		}
		var cells []cellID
		if touched {
			for _, d := range dirs {
				infos := r.subShardInfosFor(d)
				for i := 0; i < Q; i++ {
					if r.lanes[0].active[i] && infos[i*P+j].Edges > 0 {
						cells = append(cells, cellID{d, i, j})
					}
				}
			}
		}
		plans = append(plans, fetchPlan{id: j, touched: touched, cells: cells})
	}
	return plans
}
