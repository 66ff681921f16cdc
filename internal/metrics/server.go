package metrics

// ServerStats is the serving subsystem's metrics: the counters, gauges
// and histograms the scheduler, caches, registry and HTTP layer update,
// declared on the embedded Registry that renders /metrics. Each field's
// documentation is its help string in NewServerStats. Families whose
// values live elsewhere (block cache, WAL) are declared on the same
// Registry by their owner.
type ServerStats struct {
	*Registry

	JobsSubmitted, JobsStarted, JobsCompleted, JobsFailed, JobsCancelled *Counter
	CacheHits, CacheMisses, EdgesTraversed, FusedRuns, FusedJobs         *Counter
	EdgesIngested, EdgesRemoved                                          *Counter
	CompactionsStarted, CompactionsCompleted, CompactionsFailed          *Counter

	QueueDepth, RunningJobs, CacheEntries, CacheBytes, GraphsOpen, DeltaPending *Gauge

	JobDuration, IterationDuration, BlockLoad, QueueWait *Histogram
	IngestBatch, HTTPRequest, BatchWidth, WALFsync       *Histogram
	WALCommitWait, CompactionRebuild, CompactionSwap     *Histogram
}

// NewServerStats declares the serving families on a new Registry.
func NewServerStats() *ServerStats {
	r := &Registry{}
	return &ServerStats{
		Registry: r,

		JobsSubmitted:        r.Counter("nxserve_jobs_submitted_total", "Jobs accepted, including cache hits."),
		JobsStarted:          r.Counter("nxserve_jobs_started_total", "Jobs a worker began executing."),
		JobsCompleted:        r.Counter("nxserve_jobs_completed_total", "Jobs finished successfully."),
		JobsFailed:           r.Counter("nxserve_jobs_failed_total", "Jobs that ended with an error."),
		JobsCancelled:        r.Counter("nxserve_jobs_cancelled_total", "Jobs cancelled while pending or running."),
		CacheHits:            r.Counter("nxserve_cache_hits_total", "Submissions answered from the result cache."),
		CacheMisses:          r.Counter("nxserve_cache_misses_total", "Submissions that ran the engine."),
		QueueDepth:           r.Gauge("nxserve_queue_depth", "Jobs waiting for a worker."),
		RunningJobs:          r.Gauge("nxserve_running_jobs", "Jobs currently executing."),
		CacheEntries:         r.Gauge("nxserve_cache_entries", "Results held by the LRU cache."),
		CacheBytes:           r.Gauge("nxserve_cache_bytes", "Approximate bytes held by the LRU cache."),
		GraphsOpen:           r.Gauge("nxserve_graphs_open", "Graphs in the registry."),
		EdgesTraversed:       r.Counter("nxserve_edges_traversed_total", "Engine edge traversals across all jobs."),
		FusedRuns:            r.Counter("nxserve_fused_runs_total", "Fused engine runs: runs of two or more lanes (one per coalesced query batch)."),
		FusedJobs:            r.Counter("nxserve_fused_jobs_total", "Jobs executed as lanes of a fused run (width >= 2)."),
		EdgesIngested:        r.Counter("nxserve_edges_ingested_total", "Edge insertions accepted into delta logs."),
		EdgesRemoved:         r.Counter("nxserve_edges_removed_total", "Edge removals accepted into delta logs."),
		DeltaPending:         r.Gauge("nxserve_delta_pending", "Uncompacted delta ops across all graphs."),
		CompactionsStarted:   r.Counter("nxserve_compactions_started_total", "Background compactions begun."),
		CompactionsCompleted: r.Counter("nxserve_compactions_completed_total", "Compactions that swapped in a new store."),
		CompactionsFailed:    r.Counter("nxserve_compactions_failed_total", "Compactions that ended in error."),

		JobDuration:       r.Histogram("nxserve_job_duration_seconds", "End-to-end engine execution time per completed job.", DurationBuckets),
		QueueWait:         r.Histogram("nxserve_queue_wait_seconds", "Time from a job's submission to a worker starting it.", DurationBuckets),
		IterationDuration: r.Histogram("nxserve_iteration_duration_seconds", "Per-iteration wall time of engine runs.", DurationBuckets),
		BlockLoad:         r.Histogram("nxserve_block_load_seconds", "Sub-shard block acquisition time (cache hits and misses).", DurationBuckets),
		IngestBatch:       r.Histogram("nxserve_ingest_batch_edges", "Edge operations per accepted ingest batch.", SizeBuckets),
		HTTPRequest:       r.Histogram("nxserve_http_request_seconds", "HTTP request handling latency.", DurationBuckets),
		BatchWidth:        r.Histogram("nxserve_fused_batch_width", "Lane count of fused engine runs (width >= 2).", SizeBuckets),
		WALFsync:          r.Histogram("nxserve_wal_fsync_seconds", "Write-ahead-log fsync latency per group-commit flush.", FsyncBuckets),
		WALCommitWait:     r.Histogram("nxserve_wal_commit_wait_seconds", "Time an ingest batch waits in the write-ahead log until its group commit is durable and visible.", DurationBuckets),
		CompactionRebuild: r.Histogram("nxserve_compaction_rebuild_seconds", "Compaction time from the delta checkpoint until the rebuilt store's MANIFEST is written; queries keep running.", DurationBuckets),
		CompactionSwap:    r.Histogram("nxserve_compaction_swap_seconds", "Time a compaction holds the graph's run lock to swap stores; queries wait.", DurationBuckets),
	}
}
