package metrics

import (
	"fmt"
	"io"
	"sync/atomic"

	"nxgraph/internal/blockcache"
)

// ServerStats aggregates the serving subsystem's operational counters.
// All fields are updated atomically by the scheduler, cache and registry;
// WritePrometheus renders them in Prometheus text exposition format for
// the /metrics endpoint.
type ServerStats struct {
	// JobsSubmitted counts every accepted job, including cache hits.
	JobsSubmitted atomic.Int64
	// JobsStarted counts jobs a worker began executing.
	JobsStarted atomic.Int64
	// JobsCompleted counts jobs that finished successfully.
	JobsCompleted atomic.Int64
	// JobsFailed counts jobs that ended with a non-cancellation error.
	JobsFailed atomic.Int64
	// JobsCancelled counts jobs cancelled while pending or running.
	JobsCancelled atomic.Int64
	// CacheHits counts submissions answered from the result cache.
	CacheHits atomic.Int64
	// CacheMisses counts submissions that had to run the engine.
	CacheMisses atomic.Int64
	// QueueDepth is the number of jobs waiting for a worker (gauge).
	QueueDepth atomic.Int64
	// RunningJobs is the number of jobs currently executing (gauge).
	RunningJobs atomic.Int64
	// CacheEntries is the number of cached results (gauge).
	CacheEntries atomic.Int64
	// CacheBytes is the approximate memory held by the cache (gauge).
	CacheBytes atomic.Int64
	// GraphsOpen is the number of graphs in the registry (gauge).
	GraphsOpen atomic.Int64
	// EdgesTraversed accumulates engine edge traversals across all jobs.
	EdgesTraversed atomic.Int64
	// FusedRuns counts fused engine runs: runs of width >= 2 (a job
	// that runs alone is a width-1 run and does not count).
	FusedRuns atomic.Int64
	// FusedJobs counts jobs executed as lanes of a fused run.
	FusedJobs atomic.Int64
	// EdgesIngested counts edge insertions accepted into delta logs.
	EdgesIngested atomic.Int64
	// EdgesRemoved counts edge removals accepted into delta logs.
	EdgesRemoved atomic.Int64
	// DeltaPending is the total uncompacted delta ops across all graphs
	// (gauge).
	DeltaPending atomic.Int64
	// CompactionsStarted counts background compactions begun.
	CompactionsStarted atomic.Int64
	// CompactionsCompleted counts compactions that swapped in a new store.
	CompactionsCompleted atomic.Int64
	// CompactionsFailed counts compactions that ended in error.
	CompactionsFailed atomic.Int64
}

// promMetric describes one exported metric for WritePrometheus.
type promMetric struct {
	name  string
	help  string
	typ   string // "counter" or "gauge"
	value func(*ServerStats) int64
}

var serverMetrics = []promMetric{
	{"nxserve_jobs_submitted_total", "Jobs accepted, including cache hits.", "counter",
		func(s *ServerStats) int64 { return s.JobsSubmitted.Load() }},
	{"nxserve_jobs_started_total", "Jobs a worker began executing.", "counter",
		func(s *ServerStats) int64 { return s.JobsStarted.Load() }},
	{"nxserve_jobs_completed_total", "Jobs finished successfully.", "counter",
		func(s *ServerStats) int64 { return s.JobsCompleted.Load() }},
	{"nxserve_jobs_failed_total", "Jobs that ended with an error.", "counter",
		func(s *ServerStats) int64 { return s.JobsFailed.Load() }},
	{"nxserve_jobs_cancelled_total", "Jobs cancelled while pending or running.", "counter",
		func(s *ServerStats) int64 { return s.JobsCancelled.Load() }},
	{"nxserve_cache_hits_total", "Submissions answered from the result cache.", "counter",
		func(s *ServerStats) int64 { return s.CacheHits.Load() }},
	{"nxserve_cache_misses_total", "Submissions that ran the engine.", "counter",
		func(s *ServerStats) int64 { return s.CacheMisses.Load() }},
	{"nxserve_queue_depth", "Jobs waiting for a worker.", "gauge",
		func(s *ServerStats) int64 { return s.QueueDepth.Load() }},
	{"nxserve_running_jobs", "Jobs currently executing.", "gauge",
		func(s *ServerStats) int64 { return s.RunningJobs.Load() }},
	{"nxserve_cache_entries", "Results held by the LRU cache.", "gauge",
		func(s *ServerStats) int64 { return s.CacheEntries.Load() }},
	{"nxserve_cache_bytes", "Approximate bytes held by the LRU cache.", "gauge",
		func(s *ServerStats) int64 { return s.CacheBytes.Load() }},
	{"nxserve_graphs_open", "Graphs in the registry.", "gauge",
		func(s *ServerStats) int64 { return s.GraphsOpen.Load() }},
	{"nxserve_edges_traversed_total", "Engine edge traversals across all jobs.", "counter",
		func(s *ServerStats) int64 { return s.EdgesTraversed.Load() }},
	{"nxserve_fused_runs_total", "Fused engine runs: runs of two or more lanes (one per coalesced query batch).", "counter",
		func(s *ServerStats) int64 { return s.FusedRuns.Load() }},
	{"nxserve_fused_jobs_total", "Jobs executed as lanes of a fused run (width >= 2).", "counter",
		func(s *ServerStats) int64 { return s.FusedJobs.Load() }},
	{"nxserve_edges_ingested_total", "Edge insertions accepted into delta logs.", "counter",
		func(s *ServerStats) int64 { return s.EdgesIngested.Load() }},
	{"nxserve_edges_removed_total", "Edge removals accepted into delta logs.", "counter",
		func(s *ServerStats) int64 { return s.EdgesRemoved.Load() }},
	{"nxserve_delta_pending", "Uncompacted delta ops across all graphs.", "gauge",
		func(s *ServerStats) int64 { return s.DeltaPending.Load() }},
	{"nxserve_compactions_started_total", "Background compactions begun.", "counter",
		func(s *ServerStats) int64 { return s.CompactionsStarted.Load() }},
	{"nxserve_compactions_completed_total", "Compactions that swapped in a new store.", "counter",
		func(s *ServerStats) int64 { return s.CompactionsCompleted.Load() }},
	{"nxserve_compactions_failed_total", "Compactions that ended in error.", "counter",
		func(s *ServerStats) int64 { return s.CompactionsFailed.Load() }},
}

// WritePrometheus renders every counter and gauge in Prometheus text
// exposition format (version 0.0.4).
func (s *ServerStats) WritePrometheus(w io.Writer) error {
	for _, m := range serverMetrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			m.name, m.help, m.name, m.typ, m.name, m.value(s)); err != nil {
			return err
		}
	}
	return nil
}

var blockCacheMetrics = []struct {
	name string
	help string
	typ  string
	val  func(blockcache.Stats) int64
}{
	{"nxserve_blockcache_hits_total", "Sub-shard reads served from the shared block cache.", "counter",
		func(s blockcache.Stats) int64 { return s.Hits }},
	{"nxserve_blockcache_misses_total", "Sub-shard reads that decoded from disk.", "counter",
		func(s blockcache.Stats) int64 { return s.Misses }},
	{"nxserve_blockcache_evictions_total", "Blocks dropped to fit the cache budget, admitted or not.", "counter",
		func(s blockcache.Stats) int64 { return s.Evictions }},
	{"nxserve_blockcache_invalidations_total", "Blocks dropped by store-generation invalidation.", "counter",
		func(s blockcache.Stats) int64 { return s.Invalidations }},
	{"nxserve_blockcache_blocks", "Decoded sub-shard blocks resident.", "gauge",
		func(s blockcache.Stats) int64 { return s.Blocks }},
	{"nxserve_blockcache_resident_bytes", "Decoded bytes held by the block cache.", "gauge",
		func(s blockcache.Stats) int64 { return s.ResidentBytes }},
	{"nxserve_blockcache_pinned_bytes", "Resident bytes pinned by running iterations.", "gauge",
		func(s blockcache.Stats) int64 { return s.PinnedBytes }},
	{"nxserve_blockcache_l2_hits_total", "Sub-shard reads decoded from the encoded-blob tier instead of disk.", "counter",
		func(s blockcache.Stats) int64 { return s.L2Hits }},
	{"nxserve_blockcache_l2_evictions_total", "Encoded blobs dropped to fit the L2 budget, admitted or not.", "counter",
		func(s blockcache.Stats) int64 { return s.L2Evictions }},
	{"nxserve_blockcache_l2_blocks", "Encoded sub-shard blobs resident.", "gauge",
		func(s blockcache.Stats) int64 { return s.L2Blocks }},
	{"nxserve_blockcache_l2_resident_bytes", "Encoded bytes held by the L2 tier.", "gauge",
		func(s blockcache.Stats) int64 { return s.L2ResidentBytes }},
	{"nxserve_blockcache_l2_pinned_bytes", "Encoded bytes pinned by in-flight decodes.", "gauge",
		func(s blockcache.Stats) int64 { return s.L2PinnedBytes }},
}

// WriteBlockCachePrometheus renders a block cache snapshot in
// Prometheus text exposition format.
func WriteBlockCachePrometheus(w io.Writer, s blockcache.Stats) error {
	for _, m := range blockCacheMetrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			m.name, m.help, m.name, m.typ, m.name, m.val(s)); err != nil {
			return err
		}
	}
	return nil
}

var walMetrics = []struct {
	name string
	help string
}{
	{"nxserve_wal_appends_total", "Batches durably appended to write-ahead logs and acked to their appenders."},
	{"nxserve_wal_fsyncs_total", "Write-ahead-log fsyncs (group commit coalesces batches per fsync)."},
	{"nxserve_wal_replayed_batches_total", "Batches replayed from write-ahead logs on graph open."},
	{"nxserve_wal_torn_tails_total", "Torn write-ahead-log tails truncated on graph open."},
}

// WriteWALPrometheus renders a write-ahead-log counter snapshot in
// Prometheus text exposition format. Plain-int arguments keep metrics
// free of a wal dependency.
func WriteWALPrometheus(w io.Writer, appends, fsyncs, replayed, tornTails int64) error {
	vals := []int64{appends, fsyncs, replayed, tornTails}
	for i, m := range walMetrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			m.name, m.help, m.name, m.name, vals[i]); err != nil {
			return err
		}
	}
	return nil
}
