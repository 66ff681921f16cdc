// nxserve serves graph algorithms over preprocessed DSSS stores through
// an HTTP/JSON API: an async job scheduler with a bounded worker pool,
// cooperative cancellation, an LRU result cache, online edge ingestion
// with delta-overlay serving and background compaction, Prometheus
// metrics, per-job run traces, and structured logging.
//
// Usage:
//
//	nxserve -listen :8080 -graph social=/data/social -graph web=/data/web
//	nxserve -listen :8080 -workers 4 -cache 512MiB -cache-mb 1024 -delta-threshold 16384
//	nxserve -listen :8080 -fsync always -wal-segment 16MiB
//	nxserve -listen :8080 -log-format json -log-level debug
//
// Graphs can also be opened — and mutated — at runtime:
//
//	curl -X POST localhost:8080/v1/graphs -d '{"name":"g","dir":"/data/g"}'
//	curl -X POST localhost:8080/v1/graphs/g/jobs -d '{"algo":"pagerank","params":{"iters":20}}'
//	curl -X POST localhost:8080/v1/graphs/g/edges -d '{"add":[{"src":1,"dst":2}]}'
//	curl -X POST localhost:8080/v1/graphs/g/compact
//	curl localhost:8080/v1/jobs/j-00000001
//	curl 'localhost:8080/v1/jobs/j-00000001/result?top=10'
//	curl localhost:8080/v1/jobs/j-00000001/trace
//	curl -X POST localhost:8080/v1/jobs/j-00000001/cancel
//	curl localhost:8080/metrics
//	curl localhost:8080/healthz
//	curl localhost:8080/debug/pprof/
//
// On SIGINT/SIGTERM the server shuts down gracefully: readiness drops,
// the listener stops accepting, in-flight HTTP requests get a grace
// period to finish, then the scheduler cancels remaining jobs, drains
// its workers and closes every graph. A second signal forces immediate
// exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	nxgraph "nxgraph"
	"nxgraph/internal/metrics"
	"nxgraph/internal/server"
	"nxgraph/internal/wal"
)

// How long one connection may take to send a request, and stay open
// between requests. Request bodies are small (the server caps them at
// 1 MiB), so a client slower than this is stuck or hostile. There is no
// write timeout: /debug/pprof/profile streams for as long as it is asked
// to, and a slow client may take a while to read a full result array.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// graphFlags collects repeated -graph name=dir arguments.
type graphFlags []struct{ name, dir string }

func (g *graphFlags) String() string { return fmt.Sprintf("%d graphs", len(*g)) }

func (g *graphFlags) Set(s string) error {
	name, dir, ok := strings.Cut(s, "=")
	if !ok || name == "" || dir == "" {
		return fmt.Errorf("want name=dir, got %q", s)
	}
	*g = append(*g, struct{ name, dir string }{name, dir})
	return nil
}

// newLogger builds the process logger from the -log-format and
// -log-level flags.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// buildVersion labels nxserve_build_info from the module build info
// stamped by the go tool (VCS revision when built from a checkout).
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "-dirty"
			}
		}
	}
	if rev == "" {
		return bi.Main.Version
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + modified
}

func main() {
	var graphs graphFlags
	var (
		listen    = flag.String("listen", ":8080", "address to serve on")
		workers   = flag.Int("workers", 2, "concurrent engine executions")
		queueCap  = flag.Int("queue", 64, "pending-job queue capacity")
		maxBatch  = flag.Int("max-batch", 0, "max compatible queued jobs fused into one engine run (0 = default 16, 1 disables)")
		cache     = flag.String("cache", "256MiB", "result cache budget (0 disables caching)")
		cacheMB   = flag.Int("cache-mb", 256, "shared decoded sub-shard block cache budget in MiB, 0 disables (distinct from -cache, the result cache)")
		mem       = flag.String("mem", "0", "per-graph engine memory budget (0 = unlimited)")
		threads   = flag.Int("threads", 0, "engine worker threads per run (0 = GOMAXPROCS)")
		deltaThr  = flag.Int("delta-threshold", 0, "pending deltas that trigger auto-compaction (0 = default 8192, negative disables)")
		fsync     = flag.String("fsync", "batch", "WAL durability policy: off (no fsync), batch (one fsync per group commit) or always (one fsync per batch)")
		walSeg    = flag.String("wal-segment", "64MiB", "WAL segment roll size")
		noWAL     = flag.Bool("no-wal", false, "disable the write-ahead log entirely: ingest acks mean visibility only, crashes lose uncompacted deltas")
		graceSecs = flag.Int("grace", 10, "seconds to drain in-flight HTTP requests on shutdown")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	)
	flag.Var(&graphs, "graph", "preload a store: name=dir (repeatable)")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nxserve:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	cacheBytes, err := metrics.ParseBytes(*cache)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nxserve:", err)
		os.Exit(2)
	}
	if cacheBytes == 0 {
		cacheBytes = -1 // flag 0 means "no caching", not "default"
	}
	budget, err := metrics.ParseBytes(*mem)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nxserve:", err)
		os.Exit(2)
	}

	syncPolicy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nxserve:", err)
		os.Exit(2)
	}
	segBytes, err := metrics.ParseBytes(*walSeg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nxserve:", err)
		os.Exit(2)
	}

	blockBytes := int64(-1) // <= 0 on the flag disables the block cache
	if *cacheMB > 0 {
		blockBytes = int64(*cacheMB) << 20
	}
	srv := server.New(server.Config{
		Workers:         *workers,
		QueueCap:        *queueCap,
		MaxBatch:        *maxBatch,
		CacheBytes:      cacheBytes,
		BlockCacheBytes: blockBytes,
		DeltaThreshold:  *deltaThr,
		WALSync:         syncPolicy,
		WALSegmentBytes: segBytes,
		DisableWAL:      *noWAL,
		GraphOptions:    nxgraph.Options{Threads: *threads, MemoryBudget: budget},
		Logger:          logger,
		Version:         buildVersion(),
	})
	for _, g := range graphs {
		if err := srv.OpenGraph(g.name, g.dir, nxgraph.Options{Threads: *threads, MemoryBudget: budget}); err != nil {
			srv.Close()
			fmt.Fprintln(os.Stderr, "nxserve:", err)
			os.Exit(1)
		}
	}

	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() {
		logger.Info("nxserve listening",
			"addr", *listen,
			"workers", *workers,
			"result_cache", *cache,
			"block_cache_mb", *cacheMB,
			"fsync", syncPolicy.String(),
			"version", buildVersion(),
		)
		serveErr <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		// Listener died (bad address, port in use, ...): release graphs
		// and report, instead of exiting past the cleanup.
		srv.Close()
		logger.Error("nxserve exiting", "error", err.Error())
		os.Exit(1)
	case s := <-sig:
		logger.Info("shutdown signal received", "signal", s.String(), "grace_s", *graceSecs)
	}

	// Force exit on a second signal while draining.
	go func() {
		s := <-sig
		logger.Warn("second signal, exiting immediately", "signal", s.String())
		os.Exit(1)
	}()

	// Phase 1: stop accepting and drain in-flight HTTP requests.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*graceSecs)*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("http drain incomplete", "error", err.Error())
	}
	// Phase 2: cancel remaining jobs, drain scheduler workers, close
	// graphs. Cancellation propagates into the engine at sub-shard-batch
	// boundaries, so this returns promptly even mid-iteration.
	srv.Close()
	logger.Info("shutdown complete")
}
