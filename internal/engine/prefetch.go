package engine

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"nxgraph/internal/blockcache"
	"nxgraph/internal/storage"
	"nxgraph/internal/trace"
)

// This file is the engine's read path: every sub-shard consumed by a
// step goes through the shared block cache (pinned, decoded blocks —
// see internal/blockcache) and, within a step, through a prefetch
// pipeline. A phase batch (a row, or a column's cells) starts loading on
// a background goroutine when the step takes the batch before it, so
// disk reads overlap the gathering of the rows in flight instead of
// serializing with it. A step that reaches a batch still loading claims
// its remaining cells from the same cursor and loads them itself rather
// than wait on one goroutine's decodes. Cache hits make a load a map
// lookup; misses decode once and publish for every run on the store.

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
//
// A block lists its destinations in count-class order
// (storage.ClassOrder): one in-edge, then two, three, four or more,
// ascending by id within each class, so the one-lane leaf folds each
// short class in a loop of its own and its branch on a run's length
// stops alternating. Every destination keeps its contiguous source run
// in edge order and appears once in the block, so each destination's
// fold, and the result, are those of id order (docs/adr/ADR-026).
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
		ss, err := storage.DecodeSubShardInto(into, blob, m.Weighted, storage.ClassOrder)
		if err != nil {
			return nil, 0, fmt.Errorf("decode %s: %w", c.name(), err)
		}
		decoded = want
		return ss, ss.MemBytes(), nil
	})
	return
}

// fetchTrace buffers one loader's trace output (a fetch goroutine, or a
// step loading cells of a batch it waits on). Misses keep
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

// getBlockBatched is a loader's traced load: it samples the
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

// waitBatch readies a phase batch for the step. A step that would block
// on it first loads the cells nobody has claimed yet itself, then waits
// out the loads still in flight. Traced, the whole wait is a fetch-batch
// span, and the part of it during which the step's pool p had no task
// pending is charged to the iteration's stall total: in the row phase a
// wait while the previous row still gathers is no stall, and a column's
// wait, which follows the previous column's drain and apply, is all
// stall. Only the step loop calls it, so stallNS needs no
// synchronization.
func (r *Run) waitBatch(b *fetchBatch, phase string, id int, p *gatherPool) error {
	t0 := r.tr.Clock()
	select {
	case <-b.done:
	default:
		r.fill(b)
	}
	err := b.wait()
	if r.tr != nil {
		t1 := r.tr.Clock()
		r.tr.Record([]trace.Span{r.tr.Make(trace.KindFetchBatch, spanName(phase, id), r.iterSpanID.Load(), t0, t1-t0)})
		r.stallNS += max(0, t1-max(t0, p.idleSince(t1)))
	}
	return err
}

// fetchBatch holds the pinned blocks of one phase batch (a row of the
// row phase, a destination interval of the column phase): handles[k]
// pins cells[k]. Cells are claimed through one cursor, by the batch's
// fetch goroutine and by a step that would otherwise block on the batch,
// so each is loaded once, by whoever claims it first. handles and err
// must only be read after wait.
type fetchBatch struct {
	cells   []cellID
	handles []*blockcache.Handle
	next    atomic.Int64 // claim cursor into cells
	// left counts the cells not yet settled (loaded, failed, or skipped
	// after a failure) plus one for the fetch goroutine's exit, which
	// comes after it recorded its trace; whoever settles the last closes
	// done.
	left   atomic.Int64
	failed atomic.Bool
	err    error // the first load error, written once before done closes
	done   chan struct{}
}

// emptyBatch returns a completed batch with no blocks: the batch of a
// plan with no cells, and of an id that was never planned (any block
// asked of it is then an error, see batchSubShard).
func emptyBatch() *fetchBatch {
	b := &fetchBatch{done: make(chan struct{})}
	close(b.done)
	return b
}

// startFetch pins the given cells on a background goroutine. Cells are
// claimed in slice order — ascending j within a row, matching the
// physical row-major layout of shards.dat, so misses read sequentially.
func (r *Run) startFetch(cells []cellID) *fetchBatch {
	if len(cells) == 0 {
		return emptyBatch()
	}
	b := &fetchBatch{
		cells:   cells,
		handles: make([]*blockcache.Handle, len(cells)),
		done:    make(chan struct{}),
	}
	b.left.Store(int64(len(cells)) + 1)
	go func() {
		r.fill(b)
		b.settle()
	}()
	return b
}

// fill claims and loads the batch's cells until none is left unclaimed;
// once a load has failed, the remaining claims settle without loading.
// Traced, the caller's loads are recorded before fill returns.
func (r *Run) fill(b *fetchBatch) {
	var ft *fetchTrace
	if r.tr != nil {
		ft = &fetchTrace{}
		defer r.flushFetchTrace(ft)
	}
	for {
		k := int(b.next.Add(1)) - 1
		if k >= len(b.cells) {
			return
		}
		if !b.failed.Load() {
			var h *blockcache.Handle
			var err error
			if ft != nil {
				h, err = r.getBlockBatched(b.cells[k], ft)
			} else {
				h, _, _, err = r.loadBlock(b.cells[k])
			}
			if err == nil {
				b.handles[k] = h
			} else if b.failed.CompareAndSwap(false, true) {
				b.err = err
			}
		}
		b.settle()
	}
}

// settle counts one cell (or the fetch goroutine's exit) done, closing
// done on the last.
func (b *fetchBatch) settle() {
	if b.left.Add(-1) == 0 {
		close(b.done)
	}
}

// wait blocks until every cell is settled and reports the first load
// error. It must be called before reading handles.
func (b *fetchBatch) wait() error {
	<-b.done
	return b.err
}

// release unpins every block the batch holds, waiting out the loads in
// flight first so no pin is orphaned.
func (b *fetchBatch) release() {
	if b == nil {
		return
	}
	<-b.done
	for _, h := range b.handles {
		if h != nil {
			h.Release()
		}
	}
	b.handles = nil
}

// batchSubShard returns cell c's pinned sub-shard from the batch. The
// planners (rowPlans, colPlans) list every cell the phases consume, so a
// cell missing from its batch is a planning bug, reported by name rather
// than papered over with a disk read. Callers must have wait()ed on the
// batch.
func batchSubShard(b *fetchBatch, c cellID) (*storage.SubShard, error) {
	k := slices.Index(b.cells, c)
	if k < 0 {
		return nil, fmt.Errorf("engine: %s was not planned", c.name())
	}
	return b.handles[k].Value().(*storage.SubShard), nil
}

// fetchPlan is one batch of the pipeline: the blocks batch id (a row
// index in the row phase, a destination interval in the column phase)
// will consume.
type fetchPlan struct {
	id    int
	cells []cellID
}

// pipeline runs the prefetch over a phase's planned batches: taking
// batch k starts batch k+1's fetch, so the next batch loads while the
// batches taken before it compute (one in the column phase, up to two
// rows in flight in the row phase).
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
// must release it. An unplanned id gets an empty batch, whose every
// block is an error.
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
		if len(r.activeLanes(lanes, i)) == 0 {
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

// colPlans lists the on-disk destination intervals the column phase will
// visit — those some participating lane applies over — and the
// resident-source blocks each folds.
func (r *Run) colPlans(dirs, lanes []int) []fetchPlan {
	m := r.e.store.Meta()
	P, Q := m.P, r.q
	var plans []fetchPlan
	for j := Q; j < P; j++ {
		if !slices.ContainsFunc(lanes, func(l int) bool { return r.applies(l, j, dirs) }) {
			continue
		}
		var cells []cellID
		for _, d := range dirs {
			infos := r.subShardInfosFor(d)
			for i := 0; i < Q; i++ {
				if infos[i*P+j].Edges > 0 && len(r.activeLanes(lanes, i)) > 0 {
					cells = append(cells, cellID{d, i, j})
				}
			}
		}
		plans = append(plans, fetchPlan{id: j, cells: cells})
	}
	return plans
}
