package engine

import (
	"sort"
	"sync"

	"nxgraph/internal/trace"
)

// chunkRanges splits [0, n) into ranges of at most size, returning the
// boundaries (len = number of chunks + 1). n = 0 has zero chunks, so the
// result is the canonical single boundary [0] — callers iterating
// len(bounds)-1 chunks schedule nothing instead of one empty chunk.
func chunkRanges(n, size int) []int {
	if size <= 0 {
		size = 1
	}
	bounds := []int{0}
	for b := 0; b < n; {
		b += size
		if b > n {
			b = n
		}
		bounds = append(bounds, b)
	}
	return bounds
}

// edgeChunkRanges splits the destinations of a CSR (offsets has one entry
// per destination plus a final edge count) into chunks of roughly equal
// work, returning destination-index boundaries like chunkRanges. The cost
// of destination k is 1 + its edge count, so a chunk closes at the first
// destination where accumulated edges + destinations reaches target —
// a hub destination with a million in-edges gets a chunk of its own while
// sparse destinations pack thousands to a chunk. Boundaries stay at
// destination granularity (a single destination's fold is one
// left-associative chain and cannot split), so chunking never affects
// results, only load balance.
func edgeChunkRanges(offsets []uint32, target int) []int {
	n := len(offsets) - 1
	if n <= 0 {
		return []int{0}
	}
	if target <= 0 {
		target = 1
	}
	cost := func(k int) int { return int(offsets[k]) + k } // prefix cost: edges so far + destinations so far
	bounds := make([]int, 1, 2+cost(n)/target)
	for k := 0; k < n; {
		want := cost(k) + target
		// First boundary past k whose prefix cost reaches want; cost is
		// strictly increasing in k, so binary search applies.
		nk := k + 1 + sort.Search(n-k-1, func(i int) bool { return cost(k+1+i) >= want })
		bounds = append(bounds, nk)
		k = nk
	}
	return bounds
}

// delayGather is nil outside this package's tests, which set it to hold
// up the gather tasks of chosen source intervals (row i in the row
// phase, source interval i in the column phase) so that later units
// become ready first: the fold-order suites then run under a hostile
// schedule.
var delayGather func(i int)

// gatherPool is a step's one worker pool: Threads workers that run every
// parallel part of the step — the vertex sweeps, the row phase, the
// column phase and apply. Work arrives in groups of units, each unit a
// set of tasks that write disjoint destinations (a cell's chunk tasks, a
// hub's fold, a sweep's chunks). A unit that folds into destination
// interval j — a resident interval in the row phase, the column's
// interval in the column phase — waits for j's previous unit, so j's
// units run as a chain in the order they were submitted: row by row, and
// within a row forward base, forward overlay, transposed base,
// transposed overlay; in a column, by replica, then ascending source
// interval, base before overlay. Every destination thus keeps the fold
// order of a serial sweep. Other units (hub-side cells, the sweeps) are
// ready at once. Ready tasks run first in, first out.
type gatherPool struct {
	r    *Run
	wg   sync.WaitGroup
	mu   sync.Mutex
	work sync.Cond // workers: a task is ready, or the pool stops
	done sync.Cond // the step: a unit finished

	ready   []poolTask
	head    int           // ready[head:] is the queue
	pending int           // tasks submitted and not yet finished
	idleAt  int64         // trace clock when pending last fell to 0
	stopped bool          // no further task starts
	tails   []*gatherUnit // per destination interval: the last unit submitted
	groups  []*poolGroup  // submitted groups not yet retired

	// The open gather span of the last named group (see endSpan).
	span      string
	spanStart int64
	spanOpen  bool
}

// poolGroup is units the step waits for together — a row, a column, or
// one call of run. Its blocks (nil for none) stay pinned until the group
// is retired.
type poolGroup struct {
	left   int // tasks not yet finished
	blocks *fetchBatch
}

// gatherUnit is n tasks, fn(0) … fn(n-1). j is the destination interval
// it chains on, or -1; i is its source interval, or -1 outside gather.
type gatherUnit struct {
	i, j int
	n    int
	fn   func(c int)
	left int         // tasks not yet finished
	next *gatherUnit // the interval's next unit, waiting on this one
	g    *poolGroup
}

type poolTask struct {
	u *gatherUnit
	c int
}

// newGatherPool starts the run's Threads workers over q destination
// intervals.
func (r *Run) newGatherPool(q int) *gatherPool {
	p := &gatherPool{r: r, tails: make([]*gatherUnit, q), idleAt: r.tr.Clock()}
	p.work.L, p.done.L = &p.mu, &p.mu
	p.wg.Add(r.threads)
	for t := 0; t < r.threads; t++ {
		go p.worker()
	}
	return p
}

func (p *gatherPool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for p.head == len(p.ready) && !p.stopped {
			p.work.Wait()
		}
		if p.stopped {
			return
		}
		t := p.ready[p.head]
		p.ready[p.head] = poolTask{}
		if p.head++; p.head == len(p.ready) {
			p.ready, p.head = p.ready[:0], 0
		}
		p.mu.Unlock()
		if delayGather != nil && t.u.i >= 0 {
			delayGather(t.u.i)
		}
		t.u.fn(t.c)
		p.mu.Lock()
		p.finish(t.u)
	}
}

// finish retires one task of u, readying the interval's next unit once u
// is done. p.mu is held.
func (p *gatherPool) finish(u *gatherUnit) {
	if u.left--; u.left == 0 {
		if u.next != nil {
			p.push(u.next)
			p.work.Broadcast()
		}
		p.done.Signal()
	}
	u.g.left--
	if p.pending--; p.pending == 0 {
		p.idleAt = p.r.tr.Clock()
	}
}

func (p *gatherPool) push(u *gatherUnit) {
	for c := range u.n {
		p.ready = append(p.ready, poolTask{u, c})
	}
}

// group opens a group that owns blocks from now on. A named group opens
// its gather span, closing the previous one.
func (p *gatherPool) group(span string, blocks *fetchBatch) *poolGroup {
	if span != "" {
		p.endSpan()
		if p.r.tr != nil {
			p.span, p.spanStart, p.spanOpen = span, p.r.tr.Clock(), true
		}
	}
	g := &poolGroup{blocks: blocks}
	p.groups = append(p.groups, g)
	return g
}

// submit hands unit u of group g, with source interval i, to the
// workers: behind interval j's previous unit unless that one is done, or
// at once for j = -1. A unit without tasks is dropped.
func (p *gatherPool) submit(g *poolGroup, i, j int, u gatherUnit) *gatherUnit {
	if u.n == 0 {
		return &u
	}
	u.i, u.j, u.g, u.left = i, j, g, u.n
	p.mu.Lock()
	defer p.mu.Unlock()
	g.left += u.n
	p.pending += u.n
	if j >= 0 {
		prev := p.tails[j]
		p.tails[j] = &u
		if prev != nil && prev.left > 0 {
			prev.next = &u
			return &u
		}
	}
	p.push(&u)
	p.work.Broadcast()
	return &u
}

// run runs fn(0) … fn(n-1) as independent tasks and waits for them all.
// The pool must be drained.
func (p *gatherPool) run(n int, fn func(c int)) {
	p.submit(p.group("", nil), -1, -1, gatherUnit{n: n, fn: fn})
	p.retire(0)
}

// await waits until unit u finished.
func (p *gatherPool) await(u *gatherUnit) {
	p.mu.Lock()
	for u.left > 0 {
		p.done.Wait()
	}
	p.mu.Unlock()
}

// retire waits until at most keep submitted groups are unfinished and
// releases the blocks of the groups before them.
func (p *gatherPool) retire(keep int) {
	p.mu.Lock()
	var retired []*poolGroup
	for len(p.groups) > keep {
		for p.groups[0].left > 0 {
			p.done.Wait()
		}
		retired = append(retired, p.groups[0])
		p.groups = p.groups[1:]
	}
	p.mu.Unlock()
	for _, g := range retired {
		g.blocks.release()
	}
}

// drain waits for every submitted task and closes the open gather span:
// the step's streamed-interval buffers and the column accumulator may
// then be reused. It forgets the chains' tails, whose closures may hold
// a hub region.
func (p *gatherPool) drain() {
	p.retire(0)
	clear(p.tails)
	p.endSpan()
}

// stop ends the workers — a task not yet started never runs — and
// releases every group's blocks. It is safe to call more than once and
// must run on every exit from the step.
func (p *gatherPool) stop() {
	p.mu.Lock()
	p.stopped = true
	p.ready, p.head = nil, 0
	p.work.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	for _, g := range p.groups {
		g.blocks.release()
	}
	p.groups = nil
	p.endSpan()
}

// idleSince returns the trace clock since which no task has been
// pending, or now while one is.
func (p *gatherPool) idleSince(now int64) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pending > 0 {
		return now
	}
	return min(p.idleAt, now)
}

// endSpan records the open gather span. It runs from the group's
// submission until the pool went idle or the next named group began,
// whichever came first, so one iteration's gather spans never overlap
// and a fetch-batch wait they do not cover is exactly the step's stall.
func (p *gatherPool) endSpan() {
	if !p.spanOpen {
		return
	}
	p.spanOpen = false
	tr := p.r.tr
	end := max(p.spanStart, p.idleSince(tr.Clock()))
	tr.Record([]trace.Span{tr.Make(trace.KindGather, p.span, p.r.iterSpanID.Load(), p.spanStart, end-p.spanStart)})
}
