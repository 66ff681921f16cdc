package server

import (
	"context"
	"sync"

	nxgraph "nxgraph"
)

// Fused execution: a worker that claims a pending job scans the rest of
// the queue for compatible jobs — same graph registration, same
// algorithm, same parameters except the query root, and the same delta
// state acknowledged at submission — and runs them as lanes of one
// engine batch run. Every decoded sub-shard block is gathered once and
// applied to all lanes, so a fused batch of b queries costs roughly one
// graph traversal instead of b. Per-lane results are bit-identical to
// sequential runs and fan out into the result cache under each job's own
// key; cancellation stays per-job (a cancelled job's lane stops at the
// next iteration boundary while its siblings run on). A job that finds
// no compatible company runs through the same path as a one-lane run;
// only an engine run of width >= 2 counts as fused (fused_width, the
// nxserve_fused_* metrics, the "fused run finished" log line).

// fuseCompatible reports whether pending job q can join a fused batch
// led by j. Mixed algorithms never fuse, and neither do jobs that acked
// different delta states: the batch shares one overlay snapshot, so
// lanes must agree on the edge set their cache keys promise.
func fuseCompatible(j, q *Job) bool {
	if q.kind != jobAlgo || q.entry != j.entry || q.Algo != j.Algo {
		return false
	}
	if q.deltaAtSubmit != j.deltaAtSubmit {
		return false
	}
	if j.Algo == "ppr" {
		return q.Params.Damping == j.Params.Damping && q.Params.Iters == j.Params.Iters
	}
	return true
}

// maxBatch caps how many compatible queued jobs one worker fuses into a
// single engine run — the fairness bound on how long a fused batch can
// occupy a graph's run slot, and the benchmark's burst width.
const maxBatch = 16

// claimCompatibleLocked removes up to maxBatch-1 jobs compatible with j
// from the pending list and returns them, oldest first. Caller holds
// s.mu and has already claimed j's graph slot; the claimed jobs share
// j's entry, so the one claim covers them all.
func (s *scheduler) claimCompatibleLocked(j *Job) []*Job {
	if _, ok := laneAlgos[j.Algo]; j.kind != jobAlgo || !ok {
		return nil
	}
	var extra []*Job
	kept := s.pending[:0]
	for _, p := range s.pending {
		if len(extra)+1 < maxBatch && fuseCompatible(j, p) {
			extra = append(extra, p)
		} else {
			kept = append(kept, p)
		}
	}
	// Clear the vacated tail so claimed jobs aren't pinned by the
	// backing array.
	for i := len(kept); i < len(s.pending); i++ {
		s.pending[i] = nil
	}
	s.pending = kept
	return extra
}

// laneCanceller routes per-job cancellation into an engine run.
// Requests arriving before the engine binds its BatchControl (or, for a
// whole-graph algorithm, never binds one) are buffered and replayed at
// bind time; once every lane has been cancelled the whole run's context
// is cancelled so the engine stops instead of iterating a fully-dead
// batch. At width 1 cancelling the only lane therefore cancels the run.
type laneCanceller struct {
	mu        sync.Mutex
	ctrl      nxgraph.BatchControl
	buffered  []int
	cancelled int
	width     int
	cancelAll context.CancelFunc
}

// cancelLane cancels lane l (called at most once per lane — the job's
// cancelReq flag dedupes).
func (lc *laneCanceller) cancelLane(l int) {
	lc.mu.Lock()
	if lc.ctrl != nil {
		lc.ctrl.CancelLane(l)
	} else {
		lc.buffered = append(lc.buffered, l)
	}
	lc.cancelled++
	all := lc.cancelled >= lc.width
	lc.mu.Unlock()
	if all {
		lc.cancelAll()
	}
}

// bind wires the engine's control surface and replays buffered requests.
func (lc *laneCanceller) bind(ctrl nxgraph.BatchControl) {
	lc.mu.Lock()
	lc.ctrl = ctrl
	for _, l := range lc.buffered {
		ctrl.CancelLane(l)
	}
	lc.buffered = nil
	lc.mu.Unlock()
}
