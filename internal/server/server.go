package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	nxgraph "nxgraph"
	"nxgraph/internal/blockcache"
	"nxgraph/internal/metrics"
	"nxgraph/internal/wal"
)

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrent engine executions (default 2).
	Workers int
	// QueueCap bounds the pending-job queue; submissions beyond it get
	// 503 (default 64).
	QueueCap int
	// CacheBytes bounds the result cache: 0 means the 256 MiB default,
	// negative disables caching entirely.
	CacheBytes int64
	// RetainJobs bounds how many terminal jobs stay queryable before
	// the oldest are pruned from the job table (default 1000).
	RetainJobs int
	// RetainBytes additionally bounds the result bytes pinned by
	// retained terminal jobs (default 256 MiB).
	RetainBytes int64
	// MaxBatch caps how many compatible queued jobs (same graph,
	// algorithm, parameters and delta state, differing only in root) one
	// worker fuses into a single engine run — the fairness bound on how
	// long a fused batch can occupy a graph's run slot (default 16; 1
	// disables coalescing).
	MaxBatch int
	// DeltaThreshold is the pending-delta count that triggers automatic
	// background compaction of a graph's delta log (default 8192;
	// negative disables auto-compaction — manual POST .../compact still
	// works).
	DeltaThreshold int
	// BlockCacheBytes bounds the process-wide sub-shard block cache
	// shared by every registered graph: 0 means the 256 MiB default,
	// negative disables caching (blocks live only while pinned by a
	// running iteration).
	BlockCacheBytes int64
	// GraphOptions is applied when opening graphs via the API.
	GraphOptions nxgraph.Options
	// WALSync selects the ingestion write-ahead log's fsync policy:
	// wal.SyncBatch (default — group commit, one fsync per coalesced
	// batch of concurrent appends), wal.SyncAlways, or wal.SyncOff.
	WALSync wal.SyncPolicy
	// WALSegmentBytes rolls WAL segment files at this size (default
	// 64 MiB).
	WALSegmentBytes int64
	// DisableWAL turns ingestion durability off: edge batches are acked
	// on visibility alone, as before the WAL existed, and a crash loses
	// everything since the last compaction. For embedders and
	// benchmarks; nxserve always runs with the WAL on (-fsync=off keeps
	// the log but skips fsyncs).
	DisableWAL bool
	// Logger receives the server's structured logs; nil selects
	// slog.Default().
	Logger *slog.Logger
	// Version labels the build in the nxserve_build_info metric.
	Version string
}

// Server is the nxserve HTTP service: a graph registry, a job scheduler
// and a result cache behind a JSON API.
//
//	GET    /v1/graphs                 list opened graphs
//	POST   /v1/graphs                 open a store {"name": ..., "dir": ...}
//	GET    /v1/graphs/{name}          graph info
//	DELETE /v1/graphs/{name}          close a graph (cancels its jobs)
//	POST   /v1/graphs/{name}/jobs     submit {"algo": ..., "params": {...}}
//	POST   /v1/graphs/{name}/edges    ingest edges {"add": [...], "remove": [...]}
//	POST   /v1/graphs/{name}/compact  fold pending deltas into a rebuilt store
//	GET    /v1/jobs                   list jobs, newest first
//	GET    /v1/jobs/{id}              job status + progress
//	GET    /v1/jobs/{id}/result       result; ?top=K for the K extreme vertices
//	POST   /v1/jobs/{id}/cancel       request cancellation
//	GET    /v1/jobs/{id}/trace        run trace (span timeline + per-iteration stats)
//	GET    /metrics                   Prometheus text metrics
//	GET    /healthz                   liveness probe
//	GET    /readyz                    readiness probe (503 once shutdown began)
//	GET    /debug/pprof/...           Go runtime profiles
type Server struct {
	cfg    Config
	reg    *registry
	sched  *scheduler
	cache  *resultCache
	blocks *blockcache.Cache // shared sub-shard block cache
	stats  *metrics.ServerStats
	log    *slog.Logger
	mux    *http.ServeMux
	ready  atomic.Bool   // true between New and Close; drives /readyz
	reqSeq atomic.Uint64 // request-id generator for the access log
}

// New creates a Server with started workers. Call Close to shut it down.
func New(cfg Config) *Server {
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 256 << 20
	}
	blockBudget := cfg.BlockCacheBytes
	switch {
	case blockBudget == 0:
		blockBudget = 256 << 20
	case blockBudget < 0:
		blockBudget = 0 // pins only: caching disabled
	}
	// A negative budget flows through to the cache, where every result
	// exceeds it and nothing is stored — caching disabled.
	stats := metrics.NewServerStats()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	cache := newResultCache(cfg.CacheBytes, stats)
	blocks := blockcache.New(blockBudget)
	walStats := &wal.Stats{}
	walCfg := walConfig{
		disabled: cfg.DisableWAL,
		policy:   cfg.WALSync,
		segment:  cfg.WALSegmentBytes,
		stats:    walStats,
		observe:  func(d time.Duration) { stats.WALFsync.Observe(d.Seconds()) },
	}
	s := &Server{
		cfg:    cfg,
		reg:    newRegistry(stats, blocks, walCfg, logger),
		sched:  newScheduler(cfg.Workers, cfg.QueueCap, cfg.RetainJobs, cfg.MaxBatch, cfg.RetainBytes, cache, stats, logger),
		cache:  cache,
		blocks: blocks,
		stats:  stats,
		log:    logger,
		mux:    http.NewServeMux(),
	}
	declareMetrics(stats.Registry, blocks, walStats, cfg.Version)
	s.ready.Store(true)
	s.routes()
	return s
}

// declareMetrics declares the /metrics families whose values the block
// cache and the WAL own, and the build info. The block-cache families
// read one Stats snapshot per scrape: Stats takes the lock the engine's
// Get takes, so it must not run once per family.
func declareMetrics(r *metrics.Registry, blocks *blockcache.Cache, walSt *wal.Stats, version string) {
	var bc blockcache.Stats
	r.OnScrape(func() { bc = blocks.Stats() })
	r.CounterFunc("nxserve_blockcache_hits_total", "Sub-shard reads served from the shared block cache.", func() int64 { return bc.Hits })
	r.CounterFunc("nxserve_blockcache_misses_total", "Sub-shard reads that decoded from disk.", func() int64 { return bc.Misses })
	r.CounterFunc("nxserve_blockcache_evictions_total", "Blocks dropped to fit the cache budget, admitted or not.", func() int64 { return bc.Evictions })
	r.CounterFunc("nxserve_blockcache_invalidations_total", "Blocks dropped by store-generation invalidation.", func() int64 { return bc.Invalidations })
	r.GaugeFunc("nxserve_blockcache_blocks", "Decoded sub-shard blocks resident.", func() int64 { return bc.Blocks })
	r.GaugeFunc("nxserve_blockcache_resident_bytes", "Decoded bytes held by the block cache.", func() int64 { return bc.ResidentBytes })
	r.GaugeFunc("nxserve_blockcache_pinned_bytes", "Resident bytes pinned by running iterations.", func() int64 { return bc.PinnedBytes })
	r.CounterFunc("nxserve_wal_appends_total", "Batches durably appended to write-ahead logs and acked to their appenders.", walSt.Appends.Load)
	r.CounterFunc("nxserve_wal_fsyncs_total", "Write-ahead-log fsyncs (group commit coalesces batches per fsync).", walSt.Fsyncs.Load)
	r.CounterFunc("nxserve_wal_replayed_batches_total", "Batches replayed from write-ahead logs on graph open.", walSt.ReplayedBatches.Load)
	r.CounterFunc("nxserve_wal_torn_tails_total", "Torn write-ahead-log tails truncated on graph open.", walSt.TornTails.Load)
	r.BuildInfo("nxserve_build_info", "Build metadata (constant 1; inspect the labels).", version)
}

// BlockCacheStats returns the shared block cache counters.
func (s *Server) BlockCacheStats() blockcache.Stats { return s.blocks.Stats() }

// Stats exposes the server's metric counters.
func (s *Server) Stats() *metrics.ServerStats { return s.stats }

// OpenGraph opens the store at dir under name (the programmatic
// equivalent of POST /v1/graphs, used by cmd/nxserve preloading).
func (s *Server) OpenGraph(name, dir string, opt nxgraph.Options) error {
	_, err := s.reg.open(name, dir, opt)
	return err
}

// Close cancels all jobs, stops the workers and closes every graph.
func (s *Server) Close() {
	s.ready.Store(false) // readiness drops first so probes drain traffic
	s.sched.shutdown()
	s.reg.closeAll()
}

// Handler returns the root HTTP handler: the API routes behind the
// request-id/access-log/latency middleware.
func (s *Server) Handler() http.Handler { return s.middleware(s.mux) }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	s.mux.HandleFunc("POST /v1/graphs", s.handleOpenGraph)
	s.mux.HandleFunc("GET /v1/graphs/{name}", s.handleGetGraph)
	s.mux.HandleFunc("DELETE /v1/graphs/{name}", s.handleCloseGraph)
	s.mux.HandleFunc("POST /v1/graphs/{name}/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/graphs/{name}/edges", s.handleIngest)
	s.mux.HandleFunc("POST /v1/graphs/{name}/compact", s.handleCompact)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	// pprof must be mounted explicitly: the server runs on its own mux,
	// so the net/http/pprof DefaultServeMux registrations never apply.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeJSONCompact skips pretty-printing — used for bulk payloads
// (full per-vertex arrays) where indentation would add one line per
// value on the serving path.
func writeJSONCompact(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds every request body. The largest one anything in
// this repository sends is benchmark/'s serve-mixed ingest batch (128
// edges in under 4 KiB); 1 MiB holds an ingest batch of some 30 000
// edges.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// On failure it writes the error response — 413 for a body over the
// bound, 400 for one that is not valid JSON for v — and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
	default:
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.list()})
}

func (s *Server) handleOpenGraph(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
		Dir  string `json:"dir"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" || req.Dir == "" {
		writeErr(w, http.StatusBadRequest, "name and dir are required")
		return
	}
	e, err := s.reg.open(req.Name, req.Dir, s.cfg.GraphOptions)
	if err != nil {
		status := http.StatusBadRequest // e.g. store dir missing or corrupt
		if errors.Is(err, errAlreadyOpen) {
			status = http.StatusConflict
		}
		writeErr(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, e.info())
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.get(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "graph %q not open", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, e.info())
}

func (s *Server) handleCloseGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.reg.get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "server: graph %q not open", name)
		return
	}
	// Refuse new submissions first, then cancel this registration's
	// live jobs so close doesn't wait a full run (scoped by entry, not
	// name, against concurrent rebinds).
	e.draining.Store(true)
	s.sched.cancelGraph(e)
	err := s.reg.closeEntry(e)
	if errors.Is(err, errNotOpen) {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	// Any other error is an I/O failure closing an already-deregistered
	// store: the graph is gone either way, so still drop its cache
	// entries (correctness against a reused name is carried by the
	// per-open uid in the cache key; this just frees memory).
	s.cache.invalidateGraph(e.uid)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.get(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "graph %q not open", r.PathValue("name"))
		return
	}
	var req struct {
		Algo   string `json:"algo"`
		Params Params `json:"params"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	j, err := s.sched.submit(e, req.Algo, req.Params)
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
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.sched.list()})
}

// lookupJob resolves a job id, writing 404 for unknown ids and 410 for
// jobs pruned from the retention window (so "expired" is
// distinguishable from "never existed").
func (s *Server) lookupJob(w http.ResponseWriter, id string) (*Job, bool) {
	j, ok := s.sched.get(id)
	if ok {
		return j, true
	}
	if s.sched.existed(id) {
		writeErr(w, http.StatusGone, "job %s expired from the retention window", id)
	} else {
		writeErr(w, http.StatusNotFound, "job %q not found", id)
	}
	return nil, false
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// vertexValue is one entry of a top-K result.
type vertexValue struct {
	Vertex uint32  `json:"vertex"`
	Value  float64 `json:"value"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	snap := j.Snapshot()
	if snap.State != Done {
		writeErr(w, http.StatusConflict, "job %s is %s, result available only for done jobs",
			snap.ID, snap.State)
		return
	}
	res := j.Result()
	resp := map[string]any{
		"job":          snap.ID,
		"algo":         res.Algo,
		"value_label":  res.ValueLabel,
		"cache_hit":    snap.CacheHit,
		"iterations":   res.Iterations,
		"elapsed_ms":   res.ElapsedMS,
		"num_vertices": len(res.Values),
	}
	if res.Strategy != "" {
		resp["strategy"] = res.Strategy
	}
	if res.EdgesTraversed > 0 {
		resp["edges_traversed"] = res.EdgesTraversed
	}
	if len(res.Stats) > 0 {
		resp["stats"] = res.Stats
	}
	if topStr := r.URL.Query().Get("top"); topStr != "" {
		k, err := strconv.Atoi(topStr)
		if err != nil || k <= 0 {
			writeErr(w, http.StatusBadRequest, "top must be a positive integer")
			return
		}
		if k > len(res.Values) { // also caps the heap allocation
			k = len(res.Values)
		}
		resp["top"] = topK(res, k)
	} else {
		resp["values"] = res.Values
		for name, a := range res.Aux {
			resp[name] = a
		}
	}
	// Result bodies can carry per-vertex arrays (or a top list capped
	// only by the vertex count) — always encode compactly here.
	writeJSONCompact(w, http.StatusOK, resp)
}

// topK returns the K most extreme vertices of res: largest values, or
// smallest non-negative ones for distance-like (Ascending) results where
// -1 marks unreachable. Selection runs in one pass with a size-K heap
// (O(n log k)), not a full sort — the result endpoint sits on the
// serving path and n is the whole vertex set.
func topK(res *Result, k int) []vertexValue {
	// better reports whether a outranks b in the final ordering.
	better := func(a, b vertexValue) bool {
		if a.Value != b.Value {
			if res.Ascending {
				return a.Value < b.Value
			}
			return a.Value > b.Value
		}
		return a.Vertex < b.Vertex
	}
	// heap is a min-heap under "better": the root is the weakest of
	// the current best K, the first to be displaced.
	heap := make([]vertexValue, 0, k)
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			worst := i
			if l < len(heap) && better(heap[worst], heap[l]) {
				worst = l
			}
			if r < len(heap) && better(heap[worst], heap[r]) {
				worst = r
			}
			if worst == i {
				return
			}
			heap[i], heap[worst] = heap[worst], heap[i]
			i = worst
		}
	}
	for v, x := range res.Values {
		if res.Ascending && x < 0 {
			continue
		}
		cand := vertexValue{uint32(v), x}
		if len(heap) < k {
			heap = append(heap, cand)
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if !better(heap[p], heap[i]) {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
		} else if better(cand, heap[0]) {
			heap[0] = cand
			siftDown(0)
		}
	}
	sort.Slice(heap, func(i, j int) bool { return better(heap[i], heap[j]) })
	return heap
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	s.sched.cancelJob(j)
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// handleTrace serves a completed job's run trace: the span timeline
// (run → iterations → block loads tagged hit/miss) plus the
// per-iteration stage stats. Jobs whose algorithm carries no engine
// trace (multi-phase compositions, compactions) return an empty
// timeline rather than an error; cache-hit jobs share the trace of the
// run that produced the cached result.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	snap := j.Snapshot()
	if snap.State != Done {
		writeErr(w, http.StatusConflict, "job %s is %s, trace available only for done jobs",
			snap.ID, snap.State)
		return
	}
	res := j.Result()
	resp := map[string]any{
		"job":       snap.ID,
		"algo":      res.Algo,
		"cache_hit": snap.CacheHit,
		"timeline":  res.Trace.Snapshot(), // nil-safe: empty timeline
	}
	// Span timelines run to thousands of entries — compact encoding.
	writeJSONCompact(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("shutting down\n"))
		return
	}
	w.Write([]byte("ready\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.stats.WritePrometheus(w)
}
