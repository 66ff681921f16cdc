package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	nxgraph "nxgraph"
	"nxgraph/internal/metrics"
	"nxgraph/internal/trace"
)

// ErrQueueFull is returned by submit when the pending-job queue is at
// capacity; HTTP maps it to 503.
var ErrQueueFull = errors.New("server: job queue full")

// errShutdown is returned by submit after shutdown began; HTTP maps it
// to 503 (a server condition, not a client error).
var errShutdown = errors.New("server: shutting down")

// errGraphClosing is returned by submit while the target graph is being
// closed; HTTP maps it to 409.
var errGraphClosing = errors.New("server: graph is closing")

// scheduler owns the bounded worker pool and the job table. Jobs enter
// through submit (which consults the result cache first), wait in a
// bounded pending list, and execute on one of workers goroutines. The
// pending list (not a channel) lets cancellation remove a queued job
// immediately, freeing its capacity slot instead of leaving a corpse
// that still counts against the bound. Per graph, execution serializes
// on the graphEntry's runMu; the pool bound caps total engine
// concurrency across graphs.
type scheduler struct {
	cache *resultCache
	stats *metrics.ServerStats
	log   *slog.Logger

	mu            sync.Mutex
	cond          *sync.Cond // signalled on pending growth and on stop
	pending       []*Job     // waiting jobs, oldest first
	queueCap      int
	stopped       bool
	jobs          map[string]*Job
	seq           int64
	retain        int
	retainBytes   int64 // byte bound on retained terminal results
	terminal      []terminalRef
	terminalBytes int64

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup
}

func newScheduler(workers, queueCap, retainJobs int, retainBytes int64, cache *resultCache, stats *metrics.ServerStats, log *slog.Logger) *scheduler {
	if workers <= 0 {
		workers = 2
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	if retainJobs <= 0 {
		retainJobs = 1000
	}
	if retainBytes <= 0 {
		retainBytes = 256 << 20
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &scheduler{
		cache:       cache,
		stats:       stats,
		log:         log,
		queueCap:    queueCap,
		jobs:        make(map[string]*Job),
		retain:      retainJobs,
		retainBytes: retainBytes,
		baseCtx:     ctx,
		cancelAll:   cancel,
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// submit validates, registers and enqueues a job for entry. A cache hit
// completes the job immediately without queueing.
func (s *scheduler) submit(entry *graphEntry, algo string, params Params) (*Job, error) {
	params = params.withDefaults(algo)
	if err := validateAlgo(algo, params, entry.live()); err != nil {
		return nil, err
	}
	if entry.draining.Load() {
		return nil, errGraphClosing
	}
	j := &Job{
		Graph:     entry.name,
		Algo:      algo,
		Params:    params,
		submitted: time.Now(),
		done:      make(chan struct{}),
		entry:     entry,
	}

	// The sequence id is allocated inside the same critical section as
	// the accept checks: rejections must not consume an id, because
	// existed() relies on "every id at or below seq was registered" to
	// tell pruned jobs (410) apart from never-created ones (404).
	delta := entry.deltaCount()
	j.deltaAtSubmit = delta
	key := cacheKey(entry.uid, delta, algo, params)
	if res, ok := s.cache.get(key); ok {
		j.state = Done
		j.result = res
		j.cacheHit = true
		j.started = j.submitted
		j.finished = j.submitted
		close(j.done)
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			return nil, errShutdown
		}
		s.seq++
		j.ID = fmt.Sprintf("j-%08d", s.seq)
		s.jobs[j.ID] = j
		s.mu.Unlock()
		s.retire(j, res)
		s.stats.JobsSubmitted.Add(1)
		s.stats.CacheHits.Add(1)
		s.stats.JobsCompleted.Add(1)
		return j, nil
	}
	j.state = Pending
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil, errShutdown
	}
	if len(s.pending) >= s.queueCap {
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.seq++
	j.ID = fmt.Sprintf("j-%08d", s.seq)
	s.jobs[j.ID] = j
	s.pending = append(s.pending, j)
	s.stats.QueueDepth.Store(int64(len(s.pending)))
	s.mu.Unlock()
	s.cond.Signal()
	// Counters move only for accepted jobs, so submitted ==
	// completed + failed + cancelled + pending + running holds.
	// CacheMisses is counted at execution time (when the engine
	// actually runs), so a queued duplicate later served by the
	// execute-time cache check registers as a hit, not a miss.
	s.stats.JobsSubmitted.Add(1)
	return j, nil
}

// submitCompact registers and enqueues a compaction job for entry. At
// most one compaction per graph is live at a time: if one is already
// pending or running, it is returned with created == false instead of
// queueing a duplicate, making POST .../compact idempotent.
func (s *scheduler) submitCompact(entry *graphEntry) (j *Job, created bool, err error) {
	if entry.draining.Load() {
		return nil, false, errGraphClosing
	}
	entry.compactMu.Lock()
	defer entry.compactMu.Unlock()
	if cur := entry.compactJob; cur != nil {
		if st := cur.State(); st == Pending || st == Running {
			return cur, false, nil
		}
	}
	j = &Job{
		Graph:     entry.name,
		Algo:      "compact",
		kind:      jobCompact,
		state:     Pending,
		submitted: time.Now(),
		done:      make(chan struct{}),
		entry:     entry,
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil, false, errShutdown
	}
	if len(s.pending) >= s.queueCap {
		s.mu.Unlock()
		return nil, false, ErrQueueFull
	}
	s.seq++
	j.ID = fmt.Sprintf("j-%08d", s.seq)
	s.jobs[j.ID] = j
	s.pending = append(s.pending, j)
	s.stats.QueueDepth.Store(int64(len(s.pending)))
	s.mu.Unlock()
	s.cond.Signal()
	s.stats.JobsSubmitted.Add(1)
	entry.compactJob = j
	return j, true, nil
}

// terminalRef tracks one retained terminal job for pruning.
type terminalRef struct {
	id    string
	bytes int64 // result footprint pinned by the retained job
}

// retire records a terminal job and prunes the oldest terminal jobs
// beyond the retention caps — a count bound and a byte bound on the
// pinned results — so the job table cannot grow without bound (nor pin
// multi-GB result arrays) in a long-running server. res is the result
// the job retains (nil for cancelled/failed jobs). Cache-hit jobs
// account at full size even though they initially share the owner's
// array: the cache can evict (and the owner be pruned) while this job
// still pins it, so under-counting shared results would let the byte
// bound be defeated. The newest terminal job is never pruned, so a
// result always survives long enough to be fetched at least once.
// Callers may hold j.mu — retire must not take it, which is why res is
// passed explicitly.
func (s *scheduler) retire(j *Job, res *Result) {
	var bytes int64
	if res != nil {
		bytes = res.sizeBytes()
	}
	s.mu.Lock()
	s.terminal = append(s.terminal, terminalRef{j.ID, bytes})
	s.terminalBytes += bytes
	for len(s.terminal) > 1 &&
		(len(s.terminal) > s.retain || s.terminalBytes > s.retainBytes) {
		old := s.terminal[0]
		s.terminal = s.terminal[1:]
		s.terminalBytes -= old.bytes
		delete(s.jobs, old.id)
	}
	s.mu.Unlock()
}

// removePending drops j from the pending list if still queued, freeing
// its capacity slot. Caller must ensure j cannot re-enter the list.
func (s *scheduler) removePending(j *Job) {
	s.mu.Lock()
	for i, p := range s.pending {
		if p == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	s.stats.QueueDepth.Store(int64(len(s.pending)))
	s.mu.Unlock()
}

// get returns the job with the given id.
func (s *scheduler) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// existed reports whether id names a job that was once registered but
// has since been pruned from the retention window. Ids are sequential
// ("j-%08d") and registration is immediate, so any canonically-formed
// id at or below the current sequence that is absent from the table was
// pruned. Non-canonical spellings ("j-5", trailing garbage) are not
// job ids at all and report false.
func (s *scheduler) existed(id string) bool {
	digits, ok := strings.CutPrefix(id, "j-")
	if !ok || len(digits) < 8 {
		return false
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	// Round-tripping through the id formatter rejects every
	// non-canonical spelling (extra zero-padding, trailing garbage is
	// already a ParseInt error) at any digit width.
	if err != nil || n <= 0 || fmt.Sprintf("j-%08d", n) != id {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return n <= s.seq
}

// list returns a snapshot of every known job, newest first.
func (s *scheduler) list() []Snapshot {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	// Ids are zero-padded sequence numbers; compare length before
	// bytes so ordering survives ids wider than the 8-digit padding.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ID, out[j].ID
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		return a > b
	})
	return out
}

// cancelGraph cancels every live job belonging to exactly this
// registration (pointer identity, so a name rebound to a new entry is
// untouched by a stale close).
func (s *scheduler) cancelGraph(e *graphEntry) {
	s.mu.Lock()
	var victims []*Job
	for _, j := range s.jobs {
		if j.entry == e {
			victims = append(victims, j)
		}
	}
	s.mu.Unlock()
	for _, j := range victims {
		s.cancelJob(j)
	}
}

// cancelJob requests cancellation: a pending job terminates immediately,
// a running job has its context cancelled and terminates at the engine's
// next cancellation point. Terminal jobs are left untouched (returns
// false).
func (s *scheduler) cancelJob(j *Job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case Pending:
		j.state = Cancelled
		j.err = context.Canceled
		j.finished = time.Now()
		close(j.done)
		s.removePending(j)
		s.retire(j, nil)
		s.stats.JobsCancelled.Add(1)
		return true
	case Running:
		if !j.cancelReq {
			j.cancelReq = true
			if j.cancel != nil {
				j.cancel()
			}
		}
		return true
	default:
		return false
	}
}

// worker drains the pending list, executing one claim at a time. It
// takes the oldest job whose graph is not already running (claimed via
// the entry's busy flag) so one graph's backlog never idles a pool slot
// that another graph's job could use. After claiming a fusable job it
// also claims every compatible queued job (up to the maxBatch fairness
// cap) and runs them all as the lanes of one engine run.
func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *Job
		for {
			for i, p := range s.pending {
				// Compactions don't occupy the graph's run slot: the
				// rebuild only reads the base store, so queries keep
				// running while it proceeds (one live compaction per
				// graph is enforced at submission).
				if p.kind == jobCompact || p.entry.busy.CompareAndSwap(false, true) {
					j = p
					s.pending = append(s.pending[:i], s.pending[i+1:]...)
					break
				}
			}
			if j != nil {
				break
			}
			if s.stopped && len(s.pending) == 0 {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
		}
		extra := s.claimCompatibleLocked(j)
		s.stats.QueueDepth.Store(int64(len(s.pending)))
		s.mu.Unlock()
		if j.kind == jobCompact {
			s.executeCompact(j)
		} else {
			s.run(append([]*Job{j}, extra...))
		}
	}
}

// run takes a claimed batch of algorithm jobs — the worker's pick plus
// the compatible jobs it claimed, so a job that ran alone is a batch of
// one — to terminal states. The worker holds the entry's busy claim for
// the whole batch; it is released here under s.mu — a worker that saw
// busy=true does so while holding the lock, so the release (and its
// broadcast) cannot slip between that observation and the worker's
// cond.Wait (the classic lost-wakeup window).
func (s *scheduler) run(batch []*Job) {
	e := batch[0].entry
	defer func() {
		s.mu.Lock()
		e.busy.Store(false)
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	// Jobs cancelled while queued are already terminal and drop out.
	start := time.Now()
	var live []*Job
	for _, j := range batch {
		if s.begin(j, start, nil) {
			live = append(live, j)
		}
	}
	if len(live) == 0 {
		return
	}

	// Serialize engine runs per graph; fail fast if the graph was
	// closed while the jobs waited. The cache inserts happen inside the
	// same critical section: graph closure takes runMu before its
	// post-close cache invalidation, so an in-flight result keyed by
	// this registration's uid is always inserted before the uid's
	// entries are purged — nothing lingers after close. (Stale serving
	// to a rebound name is impossible regardless: the new registration
	// has a fresh uid.)
	e.runMu.Lock()
	res := make([]*Result, len(live))
	hit := make([]bool, len(live))
	var lanes []*Job // the jobs the engine runs, in lane order
	var runErr error
	if e.closed || e.draining.Load() {
		// draining catches a job that raced past both submit's check
		// and the close sweep — it must not start a run the close
		// would then wait out.
		runErr = fmt.Errorf("server: graph %q closed", e.name)
	} else {
		// Per-job execution-time cache check: an identical job that
		// queued ahead may have produced a result already. The key is
		// rebuilt with the delta count current now, read once — the
		// lanes share one overlay snapshot including at least these
		// ops, so an inserted result can never be served to a job that
		// acked more.
		delta := e.deltaCount()
		var keys []string
		var slots []int
		for i, j := range live {
			key := cacheKey(e.uid, delta, j.Algo, j.Params)
			if cached, ok := s.cache.get(key); ok {
				res[i], hit[i] = cached, true
				continue
			}
			lanes, keys, slots = append(lanes, j), append(keys, key), append(slots, i)
		}
		s.stats.CacheHits.Add(int64(len(live) - len(lanes)))
		s.stats.CacheMisses.Add(int64(len(lanes)))
		if len(lanes) > 0 {
			var out []*Result
			out, runErr = s.engineRun(ctx, cancel, lanes)
			for k, r := range out {
				res[slots[k]] = r
				if r != nil {
					s.cache.put(keys[k], r)
				}
			}
		}
	}
	e.runMu.Unlock()

	now := time.Now()
	elapsed := now.Sub(start)
	completed, traced := 0, false
	for i, j := range live {
		err := runErr
		switch {
		case hit[i]:
			err = nil
		case err == nil && res[i] == nil: // lane cancelled mid-run
			err = context.Canceled
		}
		if s.finish(j, now, res[i], err, hit[i]) == Done && !hit[i] {
			completed++
			s.stats.EdgesTraversed.Add(res[i].EdgesTraversed)
			if !traced {
				// Lanes share one trace; fold it into the histograms
				// once per engine run, not once per lane.
				s.stats.JobDuration.Observe(elapsed.Seconds())
				s.observeTrace(res[i].Trace)
				traced = true
			}
		}
		s.logJob(j, res[i], err)
	}
	if width := len(lanes); width >= 2 {
		s.stats.FusedRuns.Add(1)
		s.stats.FusedJobs.Add(int64(width))
		s.stats.BatchWidth.Observe(float64(width))
		s.log.Info("fused run finished",
			"graph", e.name, "algo", lanes[0].Algo,
			"width", width, "cache_hits", len(live)-width, "completed", completed,
			"duration_ms", elapsed.Milliseconds(),
		)
	}
}

// engineRun runs jobs — one algorithm, parameters differing at most in
// the root — as the lanes of one engine run over their graph, returning
// one result per job (nil for a lane cancelled mid-run). Each job's
// cancel is wired to its own lane. Caller holds the graph's runMu.
func (s *scheduler) engineRun(ctx context.Context, cancel context.CancelFunc, jobs []*Job) ([]*Result, error) {
	width := len(jobs)
	lc := &laneCanceller{width: width, cancelAll: cancel}
	for lane, j := range jobs {
		j.mu.Lock()
		if width >= 2 {
			j.fusedWidth = width
		}
		if j.cancelReq {
			// Cancelled between the Running transition and lane
			// binding — forward the request now.
			lc.cancelLane(lane)
		} else {
			j.cancel = func() { lc.cancelLane(lane) }
		}
		j.mu.Unlock()
	}
	progress := func(p nxgraph.Progress) {
		for _, j := range jobs {
			j.setProgress(p)
		}
	}
	lead := jobs[0]
	g := lead.entry.live()
	if run, ok := laneAlgos[lead.Algo]; ok {
		roots := make([]uint32, width)
		for i, j := range jobs {
			roots[i] = j.Params.Root
		}
		return run(ctx, g, roots, lead.Params, progress, lc.bind)
	}
	res, err := algos[lead.Algo](ctx, g, lead.Params, progress)
	return []*Result{res}, err
}

// begin moves j from Pending to Running, reporting false (and leaving j
// alone) when it was cancelled while queued. cancel, when non-nil,
// becomes the job's cancellation hook for the run.
func (s *scheduler) begin(j *Job, now time.Time, cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Pending {
		return false
	}
	j.state = Running
	j.started = now
	j.cancel = cancel
	s.stats.QueueWait.Observe(now.Sub(j.submitted).Seconds())
	s.stats.JobsStarted.Add(1)
	s.stats.RunningJobs.Add(1)
	return true
}

// finish moves a Running job to its terminal state — Done with res when
// err is nil, Cancelled when err is a cancellation, Failed otherwise —
// retires it and returns the state.
func (s *scheduler) finish(j *Job, now time.Time, res *Result, err error, cacheHit bool) State {
	j.mu.Lock()
	j.cancel = nil
	j.finished = now
	switch {
	case err == nil:
		j.state, j.result, j.cacheHit = Done, res, cacheHit
		s.stats.JobsCompleted.Add(1)
	case errors.Is(err, context.Canceled):
		j.state, j.err, res = Cancelled, context.Canceled, nil
		s.stats.JobsCancelled.Add(1)
	default:
		j.state, j.err, res = Failed, err, nil
		s.stats.JobsFailed.Add(1)
	}
	state := j.state
	close(j.done)
	j.mu.Unlock()
	s.stats.RunningJobs.Add(-1)
	s.retire(j, res)
	return state
}

// logJob emits a finished algorithm job's log line.
func (s *scheduler) logJob(j *Job, res *Result, err error) {
	j.mu.Lock()
	attrs := []any{
		"job", j.ID, "graph", j.Graph, "algo", j.Algo,
		"state", string(j.state), "cache_hit", j.cacheHit,
		"duration_ms", j.finished.Sub(j.started).Milliseconds(),
	}
	j.mu.Unlock()
	if err != nil && !errors.Is(err, context.Canceled) {
		s.log.Error("job finished", append(attrs, "error", err.Error())...)
		return
	}
	if res != nil {
		attrs = append(attrs, "iterations", res.Iterations, "edges", res.EdgesTraversed)
	}
	s.log.Info("job finished", attrs...)
}

// observeTrace folds one engine run's trace into the iteration-time and
// block-load histograms. Cache hits skip it — their trace belongs to
// the run that was already observed when it executed.
func (s *scheduler) observeTrace(tr *trace.Trace) {
	if tr == nil {
		return
	}
	for _, st := range tr.Steps() {
		s.stats.IterationDuration.Observe(float64(st.DurUS) / 1e6)
	}
	for _, sp := range tr.Spans() {
		if sp.Kind == trace.KindBlockLoad {
			s.stats.BlockLoad.Observe(float64(sp.DurUS) / 1e6)
		}
	}
}

// shutdown cancels all work and waits for the workers to drain.
func (s *scheduler) shutdown() {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		s.cancelJob(j) // empties the pending list, cancels running ctxs
	}
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.cancelAll()
	s.wg.Wait()
}
