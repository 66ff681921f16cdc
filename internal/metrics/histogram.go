package metrics

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Histogram is a fixed-bucket Prometheus histogram: lock-free Observe
// (one atomic add per bucket plus a CAS loop for the sum), rendered in
// text exposition format with cumulative buckets, a terminal +Inf
// bucket, _sum and _count. Buckets are chosen at construction and never
// change, so scrapes are consistent without coordination.
type Histogram struct {
	name   string
	help   string
	bounds []float64
	// counts[i] counts observations <= bounds[i], non-cumulatively;
	// counts[len(bounds)] is the +Inf overflow bucket. Rendering
	// accumulates, so Observe touches exactly one slot.
	counts  []atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram creates a histogram over the given ascending, finite
// upper bounds. It panics on an invalid bucket layout — histograms are
// package-level wiring, not runtime input.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic("metrics: histogram bounds must be finite (+Inf is implicit)")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// WritePrometheus renders the histogram in text exposition format.
func (h *Histogram) WritePrometheus(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name); err != nil {
		return err
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n",
			h.name, strconv.FormatFloat(b, 'g', -1, 64), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	sum := math.Float64frombits(h.sumBits.Load())
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		h.name, cum, h.name, strconv.FormatFloat(sum, 'g', -1, 64), h.name, cum)
	return err
}

// DurationBuckets is the default bucket layout for latency histograms,
// in seconds: 1ms to 10s, roughly trebling.
var DurationBuckets = []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10}

// SizeBuckets is the default bucket layout for count-valued histograms
// (batch sizes): decades from 1 to 1e6.
var SizeBuckets = []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6}

// FsyncBuckets is the bucket layout for fsync latency, in seconds.
// Fsyncs on healthy local disks land well under a millisecond, so the
// layout starts two decades below DurationBuckets.
var FsyncBuckets = []float64{0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1}

// ServerHistograms bundles the serving layer's latency and size
// distributions for the /metrics endpoint.
type ServerHistograms struct {
	// JobDuration is end-to-end engine execution time per completed job.
	JobDuration *Histogram
	// IterationDuration is per-iteration wall time from run traces.
	IterationDuration *Histogram
	// BlockLoad is per-block acquisition time from run traces (hits and
	// misses pooled; the trace endpoint separates them).
	BlockLoad *Histogram
	// IngestBatch is the ops-per-batch distribution of /ingest requests.
	IngestBatch *Histogram
	// HTTPRequest is HTTP handler latency across all routes.
	HTTPRequest *Histogram
	// BatchWidth is the lane count distribution of fused engine runs
	// (width >= 2).
	BatchWidth *Histogram
	// WALFsync is write-ahead-log fsync latency (one observation per
	// group-commit flush, not per appended batch).
	WALFsync *Histogram
}

// NewServerHistograms creates the standard nxserve histogram set.
func NewServerHistograms() *ServerHistograms {
	return &ServerHistograms{
		JobDuration:       NewHistogram("nxserve_job_duration_seconds", "End-to-end engine execution time per completed job.", DurationBuckets),
		IterationDuration: NewHistogram("nxserve_iteration_duration_seconds", "Per-iteration wall time of engine runs.", DurationBuckets),
		BlockLoad:         NewHistogram("nxserve_block_load_seconds", "Sub-shard block acquisition time (cache hits and misses).", DurationBuckets),
		IngestBatch:       NewHistogram("nxserve_ingest_batch_edges", "Edge operations per accepted ingest batch.", SizeBuckets),
		HTTPRequest:       NewHistogram("nxserve_http_request_seconds", "HTTP request handling latency.", DurationBuckets),
		BatchWidth:        NewHistogram("nxserve_fused_batch_width", "Lane count of fused engine runs (width >= 2).", SizeBuckets),
		WALFsync:          NewHistogram("nxserve_wal_fsync_seconds", "Write-ahead-log fsync latency per group-commit flush.", FsyncBuckets),
	}
}

// WritePrometheus renders every histogram in the set.
func (s *ServerHistograms) WritePrometheus(w io.Writer) error {
	for _, h := range []*Histogram{s.JobDuration, s.IterationDuration, s.BlockLoad, s.IngestBatch, s.HTTPRequest, s.BatchWidth, s.WALFsync} {
		if err := h.WritePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WriteBuildInfo renders the nxserve_build_info gauge: constant 1 with
// the build's version and Go runtime as labels, the conventional shape
// for deployment inventory queries.
func WriteBuildInfo(w io.Writer, version string) error {
	if version == "" {
		version = "dev"
	}
	_, err := fmt.Fprintf(w,
		"# HELP nxserve_build_info Build metadata (constant 1; inspect the labels).\n"+
			"# TYPE nxserve_build_info gauge\n"+
			"nxserve_build_info{version=\"%s\",go_version=\"%s\"} 1\n",
		escapeLabel(version), escapeLabel(runtime.Version()))
	return err
}
