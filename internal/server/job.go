// Package server implements nxserve, the concurrent graph-serving
// subsystem on top of the nxgraph library: a registry of opened DSSS
// stores, an asynchronous job scheduler with a bounded worker pool and
// cooperative cancellation, a size-bounded LRU result cache, and an
// HTTP/JSON API exposing all of it (see Server for the routes).
//
// Architecture. Requests become Jobs that move through the states
// pending → running → done|failed|cancelled. Workers pull pending jobs
// from a bounded queue; per graph, execution is serialized (one engine
// run at a time per store, under the lock that the compaction swap and
// graph close also take) while distinct graphs run in parallel up to
// the worker-pool size. Completed results land in the LRU keyed by
// (graph, algorithm, canonical params), so a repeated identical request
// is answered without touching the engine. Cancellation propagates
// through context.Context into the engine's iteration loop, which checks
// it at sub-shard-batch boundaries.
package server

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	nxgraph "nxgraph"
	"nxgraph/internal/trace"
)

// State is a job lifecycle state.
type State string

// Job states.
const (
	Pending   State = "pending"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Params carries algorithm parameters. The zero value of every field
// means "use the algorithm's default". Fields an algorithm does not
// consume are ignored entirely — they are validated but excluded from
// the cache key (see cacheKey), so a stray value cannot fragment the
// cache.
type Params struct {
	// Damping is the PageRank/PPR damping factor (default 0.85).
	Damping float64 `json:"damping,omitempty"`
	// Iters is the iteration count for pagerank, ppr and hits
	// (default 20 for pagerank/ppr, 10 for hits).
	Iters int `json:"iters,omitempty"`
	// Eps switches pagerank to run-until-convergence with this
	// tolerance. Iters then caps the iteration count, defaulting to a
	// 1000-iteration safety cap — a served job must not be able to
	// occupy a worker forever on an unreachable tolerance.
	Eps float64 `json:"eps,omitempty"`
	// Root is the source vertex for bfs, sssp and ppr.
	Root uint32 `json:"root,omitempty"`
}

// withDefaults resolves zero fields to the algorithm's defaults so that
// equivalent submissions share one cache key.
func (p Params) withDefaults(algo string) Params {
	switch algo {
	case "pagerank":
		if p.Damping == 0 {
			p.Damping = 0.85
		}
		if p.Iters == 0 {
			if p.Eps > 0 {
				p.Iters = 1000 // safety cap for convergence mode
			} else {
				p.Iters = 20
			}
		}
	case "ppr":
		if p.Damping == 0 {
			p.Damping = 0.85
		}
		if p.Iters == 0 {
			p.Iters = 20
		}
	case "hits":
		if p.Iters == 0 {
			p.Iters = 10
		}
	}
	return p
}

// cacheKey canonicalizes (graph registration uid, delta state, algo,
// params) into the LRU key. The uid — unique per open, not the reusable
// name — guarantees a rebound name never hits a previous store's
// results. delta is the count of ingestion ops acked when the key is
// built: results computed against different delta states never alias,
// so a job can never be answered from a cache entry missing edges that
// were acknowledged before it was submitted. (The count is monotone per
// log; compaction resets it but also purges the uid's entries under the
// graph's run lock, so stale keys cannot survive the swap.) Only the
// fields the algorithm actually consumes are included, so e.g. a stray
// Damping on a BFS submission does not fragment the cache.
func cacheKey(graphUID string, delta int, algo string, p Params) string {
	var b strings.Builder
	b.WriteString(graphUID)
	if delta != 0 {
		fmt.Fprintf(&b, "@%d", delta)
	}
	b.WriteByte('|')
	b.WriteString(algo)
	switch algo {
	case "pagerank":
		fmt.Fprintf(&b, "|d=%s|i=%d|e=%s",
			strconv.FormatFloat(p.Damping, 'g', -1, 64), p.Iters,
			strconv.FormatFloat(p.Eps, 'g', -1, 64))
	case "ppr":
		fmt.Fprintf(&b, "|d=%s|i=%d|r=%d",
			strconv.FormatFloat(p.Damping, 'g', -1, 64), p.Iters, p.Root)
	case "bfs", "sssp":
		fmt.Fprintf(&b, "|r=%d", p.Root)
	case "hits":
		fmt.Fprintf(&b, "|i=%d", p.Iters)
	}
	return b.String()
}

// Result is the outcome of one algorithm execution, shaped for caching
// and HTTP retrieval. Values is the primary per-vertex array (ranks,
// distances, labels, core numbers, authority scores); Aux carries
// secondary arrays (the hub scores of HITS). Unreachable vertices in
// bfs/sssp results are encoded as -1 so the arrays stay JSON-safe.
type Result struct {
	Algo string `json:"algo"`
	// ValueLabel names what Values holds ("rank", "distance", ...).
	ValueLabel string               `json:"value_label"`
	Values     []float64            `json:"-"`
	Aux        map[string][]float64 `json:"-"`
	// Ascending marks algorithms whose interesting extremes are small
	// values (distances); top-K retrieval sorts accordingly.
	Ascending bool `json:"-"`
	// Stats carries algorithm-specific scalars (num_components,
	// max_core, rounds, ...).
	Stats          map[string]float64 `json:"stats,omitempty"`
	Iterations     int                `json:"iterations"`
	EdgesTraversed int64              `json:"edges_traversed"`
	Strategy       string             `json:"strategy,omitempty"`
	ElapsedMS      int64              `json:"elapsed_ms"`
	// Trace is the producing run's span timeline, served by
	// GET /v1/jobs/{id}/trace (nil for algorithms that compose multiple
	// runs and for compaction jobs). A cached Result keeps the trace of
	// the run that produced it.
	Trace *trace.Trace `json:"-"`
}

// sizeBytes approximates the result's memory footprint for the LRU
// budget.
func (r *Result) sizeBytes() int64 {
	n := int64(len(r.Values)) * 8
	for _, a := range r.Aux {
		n += int64(len(a)) * 8
	}
	return n + 256
}

// JobProgress is the latest per-iteration progress of a running job.
type JobProgress struct {
	Iteration       int   `json:"iteration"`
	Edges           int64 `json:"edges"`
	ActiveIntervals int   `json:"active_intervals,omitempty"`
}

// jobKind distinguishes algorithm executions from maintenance jobs.
type jobKind int

const (
	// jobAlgo runs an algorithm over the graph (serialized per graph).
	jobAlgo jobKind = iota
	// jobCompact folds the graph's delta log into a rebuilt store. It
	// does not claim the graph's run slot while rebuilding — the
	// graph's queries keep executing — and takes runMu only for the
	// final store swap. It does occupy a worker-pool slot for the
	// rebuild's duration, so pool sizing must budget for background
	// compactions alongside query load.
	jobCompact
)

// Job is one asynchronous algorithm execution.
type Job struct {
	ID     string `json:"id"`
	Graph  string `json:"graph"`
	Algo   string `json:"algo"`
	Params Params `json:"params"`

	kind jobKind
	// deltaAtSubmit is the delta-op count acknowledged when the job was
	// accepted; fused batches only combine jobs that agree on it, so a
	// shared overlay snapshot never serves a lane missing edges its
	// submitter had already acked.
	deltaAtSubmit int

	mu        sync.Mutex
	state     State
	err       error
	result    *Result
	progress  JobProgress
	cacheHit  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    func() // non-nil while running
	cancelReq bool
	// fusedWidth is the lane count of the fused engine run this job
	// executed in (0 when it ran alone).
	fusedWidth int
	done       chan struct{}

	entry *graphEntry
}

// Snapshot is the JSON view of a job's current state.
type Snapshot struct {
	ID       string `json:"id"`
	Graph    string `json:"graph"`
	Algo     string `json:"algo"`
	Params   Params `json:"params"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	// FusedWidth is the lane count of the fused engine run that executed
	// this job, omitted for jobs that ran alone.
	FusedWidth  int          `json:"fused_width,omitempty"`
	Error       string       `json:"error,omitempty"`
	Progress    *JobProgress `json:"progress,omitempty"`
	SubmittedAt time.Time    `json:"submitted_at"`
	StartedAt   *time.Time   `json:"started_at,omitempty"`
	FinishedAt  *time.Time   `json:"finished_at,omitempty"`
}

// Snapshot returns a consistent copy of the job's externally visible
// state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:          j.ID,
		Graph:       j.Graph,
		Algo:        j.Algo,
		Params:      j.Params,
		State:       j.state,
		CacheHit:    j.cacheHit,
		FusedWidth:  j.fusedWidth,
		SubmittedAt: j.submitted,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if j.state == Running || j.progress.Iteration > 0 {
		p := j.progress
		s.Progress = &p
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
	}
	return s
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the job's result, or nil while it has none.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// setProgress records per-iteration progress (the engine calls this
// synchronously from the job's worker via a ProgressFunc).
func (j *Job) setProgress(p nxgraph.Progress) {
	j.mu.Lock()
	j.progress = JobProgress{
		Iteration:       p.Iteration,
		Edges:           p.Edges,
		ActiveIntervals: p.ActiveIntervals,
	}
	j.mu.Unlock()
}
