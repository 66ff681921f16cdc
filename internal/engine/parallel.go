package engine

import (
	"sort"
	"sync"
	"sync/atomic"

	"nxgraph/internal/trace"
)

// parallelFor runs fn(i) for i in [0, n) on up to `threads` goroutines,
// pulling indices from a shared atomic counter (work stealing keeps skewed
// sub-shards from serializing the pool). It returns after every call has
// completed — the paper's "callback" completion signalling, the engine's
// only synchronization mechanism: tasks in one call write disjoint
// destinations, so no attribute data is ever locked.
func parallelFor(threads, n int, fn func(i int)) {
	if n == 0 {
		return
	}
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

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
// up the gather tasks of chosen rows so that later rows become ready
// first: the fold-order suites then run under a hostile schedule.
var delayGather func(row int)

// gatherPool runs one step's row phase on Threads workers. Work arrives
// a row at a time as units, each the chunk tasks of one cell. A unit
// that folds into a resident destination interval waits for the
// interval's previous unit, so the interval's units run as a chain in
// the order they were submitted — row by row, and within a row forward
// base, forward overlay, transposed base, transposed overlay: every
// destination keeps the fold order of a serial sweep. Hub-side units
// write private partials and are ready at once. Ready tasks run first
// in, first out.
type gatherPool struct {
	r       *Run
	wg      sync.WaitGroup
	mu      sync.Mutex
	work    sync.Cond // workers: a task is ready, or the pool stops
	rowDone sync.Cond // the step: a row finished

	ready   []poolTask
	head    int           // ready[head:] is the queue
	pending int           // tasks submitted and not yet finished
	idleAt  int64         // trace clock when pending last fell to 0
	stopped bool          // no further task starts
	tails   []*gatherUnit // per resident interval: the last unit submitted
	rows    []*poolRow    // submitted rows whose blocks are still pinned

	// The open gather span of the last row submitted (see endSpan).
	span      string
	spanStart int64
	spanOpen  bool
}

// poolRow is one submitted row: its blocks stay pinned until its last
// task finished.
type poolRow struct {
	i      int
	left   int // tasks not yet finished
	blocks *fetchBatch
}

// gatherUnit is the chunk tasks of one cell; j is the resident
// destination interval it chains on, or -1 on the hub side.
type gatherUnit struct {
	j     int
	tasks []func()
	left  int         // tasks not yet finished
	next  *gatherUnit // the interval's next unit, waiting on this one
	row   *poolRow
}

type poolTask struct {
	fn func()
	u  *gatherUnit
}

// newGatherPool starts the run's Threads workers over q resident
// destination intervals.
func (r *Run) newGatherPool(q int) *gatherPool {
	p := &gatherPool{r: r, tails: make([]*gatherUnit, q), idleAt: r.tr.Clock()}
	p.work.L, p.rowDone.L = &p.mu, &p.mu
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
		if delayGather != nil {
			delayGather(t.u.row.i)
		}
		t.fn()
		p.mu.Lock()
		p.finish(t.u)
	}
}

// finish retires one task of u, readying the interval's next unit once u
// is done. p.mu is held.
func (p *gatherPool) finish(u *gatherUnit) {
	if u.left--; u.left == 0 && u.next != nil {
		p.push(u.next)
		p.work.Broadcast()
	}
	if u.row.left--; u.row.left == 0 {
		p.rowDone.Signal()
	}
	if p.pending--; p.pending == 0 {
		p.idleAt = p.r.tr.Clock()
	}
}

func (p *gatherPool) push(u *gatherUnit) {
	for _, fn := range u.tasks {
		p.ready = append(p.ready, poolTask{fn, u})
	}
}

// submit hands row i's units to the workers, each behind its interval's
// previous unit unless that one is done; the row owns blocks from now
// on. Row i's gather span opens here, closing the previous row's.
func (p *gatherPool) submit(i int, blocks *fetchBatch, units []*gatherUnit) {
	p.endSpan()
	if p.r.tr != nil {
		p.span, p.spanStart, p.spanOpen = spanName("row-", i), p.r.tr.Clock(), true
	}
	row := &poolRow{i: i, blocks: blocks}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rows = append(p.rows, row)
	for _, u := range units {
		u.left, u.row = len(u.tasks), row
		row.left += u.left
		p.pending += u.left
		if u.j >= 0 {
			prev := p.tails[u.j]
			p.tails[u.j] = u
			if prev != nil && prev.left > 0 {
				prev.next = u
				continue
			}
		}
		p.push(u)
	}
	p.work.Broadcast()
}

// retire waits until at most keep submitted rows are unfinished and
// releases the blocks of the rows before them.
func (p *gatherPool) retire(keep int) {
	p.mu.Lock()
	var done []*poolRow
	for len(p.rows) > keep {
		for p.rows[0].left > 0 {
			p.rowDone.Wait()
		}
		done = append(done, p.rows[0])
		p.rows = p.rows[1:]
	}
	p.mu.Unlock()
	for _, row := range done {
		row.blocks.release()
	}
}

// drain waits for every submitted task and closes the open gather span:
// the step's streamed-interval buffers and the column phase may then be
// reused.
func (p *gatherPool) drain() {
	p.retire(0)
	p.endSpan()
}

// stop ends the workers — a task not yet started never runs — and
// releases every row's blocks. It is safe to call more than once and
// must run on every exit from the row phase.
func (p *gatherPool) stop() {
	p.mu.Lock()
	p.stopped = true
	p.ready, p.head = nil, 0
	p.work.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	for _, row := range p.rows {
		row.blocks.release()
	}
	p.rows = nil
	p.endSpan()
}

// idleSince returns the trace clock since which no task has been
// pending, or now while one is. A nil pool (the column phase) has always
// been idle.
func (p *gatherPool) idleSince(now int64) int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pending > 0 {
		return now
	}
	return min(p.idleAt, now)
}

// endSpan records the open row's gather span. It runs from the row's
// submission until the pool went idle or the next row began, whichever
// came first, so one iteration's gather spans never overlap and a
// fetch-batch wait they do not cover is exactly the step's stall.
func (p *gatherPool) endSpan() {
	if !p.spanOpen {
		return
	}
	p.spanOpen = false
	tr := p.r.tr
	end := max(p.spanStart, p.idleSince(tr.Clock()))
	tr.Record([]trace.Span{tr.Make(trace.KindGather, p.span, p.r.iterSpanID.Load(), p.spanStart, end-p.spanStart)})
}
