package server

import (
	"errors"
	"math"
	"net/http"

	"nxgraph/internal/dynamic"
	"nxgraph/internal/wal"
)

// maxIngestOps bounds the ops in one ingest batch: the body cap bounds
// bytes, this bounds the work one ack commits the server to (a WAL
// record, a delta-log append, an overlay compile). The largest batch
// anything in this repository sends is 128 ops; 1 MiB of realistic edge
// JSON holds about 35 000.
const maxIngestOps = 1 << 16

// edgeSpec is one edge in an ingestion batch, in the graph's original
// index space (the ids of the raw input the store was built from —
// stable across compactions).
type edgeSpec struct {
	Src uint64 `json:"src"`
	Dst uint64 `json:"dst"`
	// Weight applies to insertions on weighted stores; 0 defaults to 1.
	Weight float32 `json:"weight,omitempty"`
}

// handleIngest is POST /v1/graphs/{name}/edges: append a batch of edge
// insertions/removals to the graph's delta log. Removals apply before
// insertions within one batch, so {"remove":[e],"add":[e]} re-adds the
// edge. The 202 is a durability *and* visibility guarantee: the batch
// has been appended to the graph's write-ahead log and fsynced per the
// -fsync policy before the response is written (replay-on-open
// restores it after a crash), and every job submitted afterwards
// observes the deltas (engine runs snapshot the log at execution
// start). Insertions referencing brand-new vertices are accepted but
// deferred to the next compaction — the engine's dense id space cannot
// address them.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.get(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "graph %q not open", r.PathValue("name"))
		return
	}
	if e.draining.Load() {
		writeErr(w, http.StatusConflict, "%v", errGraphClosing)
		return
	}
	var req struct {
		Add    []edgeSpec `json:"add"`
		Remove []edgeSpec `json:"remove"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	switch n := len(req.Add) + len(req.Remove); {
	case n == 0:
		writeErr(w, http.StatusBadRequest, "batch has no add or remove entries")
		return
	case n > maxIngestOps:
		writeErr(w, http.StatusRequestEntityTooLarge, "batch has %d ops, more than the %d-op bound", n, maxIngestOps)
		return
	}
	ops := make([]dynamic.Op, 0, len(req.Add)+len(req.Remove))
	for _, re := range req.Remove {
		ops = append(ops, dynamic.Op{Remove: true, Src: re.Src, Dst: re.Dst})
	}
	for _, ad := range req.Add {
		// Reject malformed weights before anything is logged: NaN
		// poisons every rank it touches, infinities overflow degree
		// normalization, and negative weights have no meaning for the
		// served algorithms. (0 is the documented "default to 1".)
		w64 := float64(ad.Weight)
		if math.IsNaN(w64) || math.IsInf(w64, 0) || ad.Weight < 0 {
			writeErr(w, http.StatusBadRequest,
				"edge %d->%d: weight %v must be a finite non-negative number", ad.Src, ad.Dst, ad.Weight)
			return
		}
		wt := ad.Weight
		if wt == 0 {
			wt = 1
		}
		ops = append(ops, dynamic.Op{Src: ad.Src, Dst: ad.Dst, Weight: wt})
	}
	pending, deferred, err := e.appendDurable(ops)
	switch {
	case errors.Is(err, errGraphClosing), errors.Is(err, wal.ErrClosed):
		writeErr(w, http.StatusConflict, "%v", errGraphClosing)
		return
	case errors.Is(err, wal.ErrFailed):
		// The log is poisoned (disk full, I/O error): nothing further
		// can be made durable until the operator restarts the process,
		// which truncates the torn tail and resumes.
		writeErr(w, http.StatusServiceUnavailable, "ingestion unavailable: %v", err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.stats.EdgesIngested.Add(int64(len(req.Add)))
	s.stats.EdgesRemoved.Add(int64(len(req.Remove)))
	s.stats.IngestBatch.Observe(float64(len(ops)))
	// No cache purge here: the delta-versioned keys already make every
	// pre-batch entry unreachable (the pending count only grows between
	// compactions), and size-based LRU eviction reclaims the memory —
	// walking the shared cache on the ingest hot path would serialize
	// against every concurrent get/put for no correctness gain.

	resp := map[string]any{
		"graph":          e.name,
		"added":          len(req.Add),
		"removed":        len(req.Remove),
		"pending_deltas": pending,
	}
	if deferred > 0 {
		resp["deferred"] = deferred
	}
	if thr := s.deltaThreshold(); thr > 0 && pending >= thr {
		if j, _, err := s.sched.submitCompact(e); err == nil {
			resp["compaction_job"] = j.ID
		}
		// A full queue or shutdown just skips the trigger; the next
		// ingest (or a manual POST .../compact) retries.
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// handleCompact is POST /v1/graphs/{name}/compact: schedule background
// compaction of the graph's pending deltas. Idempotent — if a
// compaction is already pending or running its job is returned with
// 200 instead of queueing another.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.get(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "graph %q not open", r.PathValue("name"))
		return
	}
	j, created, err := s.sched.submitCompact(e)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, errShutdown):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, errGraphClosing):
		writeErr(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	writeJSON(w, status, j.Snapshot())
}

// deltaThreshold resolves the configured auto-compaction threshold.
func (s *Server) deltaThreshold() int {
	if s.cfg.DeltaThreshold < 0 {
		return 0 // disabled
	}
	if s.cfg.DeltaThreshold == 0 {
		return 8192
	}
	return s.cfg.DeltaThreshold
}
