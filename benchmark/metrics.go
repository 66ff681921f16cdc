package main

// metricDecl names one metric the benchmark emits. BENCHMARK.json at the
// repository root carries the same names, units and directions (plus the
// end-to-end regression bounds); benchmark_test.go holds the two lists
// against each other.
type metricDecl struct {
	Name, Unit, Better string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, so each is defined for the library path (one
// request = one PageRank+WCC+BFS round) and the HTTP path (one request
// = one query, POST sent to result body read).
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"edges_per_s", "Medges/s", "higher"},
	{"requests_per_s", "1/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_mean", "ms", "lower"},
	{"store_bytes_per_edge", "B/edge", "lower"},
	{"live_heap_mb", "MiB", "lower"},
}

// The per-layer metrics are the ledger: probes timed around one module's
// exported functions, and rows derived from the traced pass. A
// time-valued metric is one every workload can measure; what only one
// path exercises is a share, a ratio or a count, which reads 0 where the
// layer did no work.

// commonLayer rows are measured by every workload.
var commonLayer = []metricDecl{
	// Set-up, timed around nxgraph.Generate and nxgraph.Build.
	{"gen.generate_s", "s", "lower"},
	{"preprocess.build_edges_per_s", "Medges/s", "higher"},
	{"preprocess.written_bytes_per_edge", "B/edge", "lower"},

	// Probes over all P² cells of the workload's store, both replicas.
	{"storage.read_raw_ns_per_edge", "ns/edge", "lower"},
	{"storage.decode_ns_per_edge", "ns/edge", "lower"},
	{"storage.encode_ns_per_edge", "ns/edge", "lower"},
	{"storage.encoded_bytes_per_edge", "B/edge", "lower"},
	{"storage.decoded_bytes_per_edge", "B/edge", "lower"},

	// Traced pass: the engine's own StepStats and the cache counters.
	{"diskio.read_bytes_per_edge", "B/edge", "lower"},
	{"diskio.written_bytes_per_edge", "B/edge", "lower"},
	{"blockcache.l1_hit_ratio", "ratio", "higher"},
	{"blockcache.l2_hit_ratio", "ratio", "higher"},
	{"blockcache.evictions_per_medge", "1/Medge", "lower"},
	{"blockcache.l2_evictions_per_medge", "1/Medge", "lower"},
	{"engine.compute_ns_per_edge", "ns/edge", "lower"},
	{"engine.stall_ns_per_edge", "ns/edge", "lower"},
	{"engine.stall_share", "ratio", "lower"},

	// Traced pass: span self times (duration minus child coverage). Run,
	// iteration, stall, gather and apply are the blocking path; block
	// loads run beside it on prefetch goroutines.
	{"engine.run_self_ns_per_edge", "ns/edge", "lower"},
	{"engine.overlay_share", "ratio", "lower"},
	{"engine.iteration_self_ns_per_edge", "ns/edge", "lower"},
	{"engine.gather_self_ns_per_edge", "ns/edge", "lower"},
	{"engine.apply_self_ns_per_edge", "ns/edge", "lower"},
	{"engine.block_load_busy_ns_per_edge", "ns/edge", "lower"},

	// Probe: 16 solo queries against one fused batch of the same roots.
	{"engine.fused16_ppr_speedup", "ratio", "higher"},
	{"engine.fused16_bfs_speedup", "ratio", "higher"},

	// Probes on a scratch log and on the workload's store.
	{"wal.append_us_p50", "us", "lower"},
	{"wal.append_us_p50_x2", "us", "lower"},
	{"wal.bytes_per_op", "B/op", "lower"},
	{"dynamic.overlay_build_ms_p50", "ms", "lower"},

	// The ledger's own rows.
	{"trace.overhead_pct", "%", "lower"},
	{"ledger.caller_ms_p50", "ms", "lower"},
	{"ledger.caller_ms_p90", "ms", "lower"},
	{"ledger.unaccounted_share", "ratio", "lower"},
	{"ledger.block_load_explained_share", "ratio", "higher"},
}

// batchOnlyLayer rows exist on the library path: each program's share
// of a round and its iteration count (exact for a seed).
var batchOnlyLayer = []metricDecl{
	{"algorithms.pagerank_share", "ratio", "lower"},
	{"algorithms.wcc_share", "ratio", "lower"},
	{"algorithms.bfs_share", "ratio", "lower"},
	{"algorithms.pagerank_iters", "count", "lower"},
	{"algorithms.wcc_iters", "count", "lower"},
	{"algorithms.bfs_iters", "count", "lower"},
}

// serveOnlyLayer rows exist on the HTTP path.
var serveOnlyLayer = []metricDecl{
	// The five spans that tile a query's latency, as shares of it.
	{"server.submit_share", "ratio", "lower"},
	{"server.queue_wait_share", "ratio", "lower"},
	{"server.run_share", "ratio", "lower"},
	{"server.poll_lag_share", "ratio", "lower"},
	{"server.result_fetch_share", "ratio", "lower"},
	// Scheduler and result cache.
	{"server.fused_width_mean", "count", "higher"},
	{"server.fused_runs", "count", "higher"},
	{"server.result_cache_hit_ratio", "ratio", "higher"},
	// Other query kinds against the ppr query the end-to-end latency is.
	{"server.cache_hit_latency_ratio", "ratio", "lower"},
	{"server.bfs_latency_ratio", "ratio", "lower"},
	{"server.pagerank_latency_ratio", "ratio", "lower"},
	{"server.result_full_bytes", "B", "lower"},
	// serve-mixed: ingest beside queries. Ack latency is a share of the
	// 67 ms send interval, timed from each batch's scheduled send.
	{"server.ingest_ack_p50_share", "ratio", "lower"},
	{"server.ingest_ack_p95_share", "ratio", "lower"},
	{"server.compactions", "count", "lower"},
	{"server.compaction_busy_share", "ratio", "lower"},
	{"wal.fsyncs_per_append", "ratio", "lower"},
	{"dynamic.pending_at_run_mean", "count", "lower"},
}

var perLayer = append(append(append([]metricDecl(nil), commonLayer...), batchOnlyLayer...), serveOnlyLayer...)
