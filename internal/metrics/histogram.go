package metrics

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
)

// Histogram is a fixed-bucket Prometheus histogram: lock-free Observe
// (one atomic add per bucket plus a CAS loop for the sum), rendered in
// text exposition format with cumulative buckets, a terminal +Inf
// bucket, _sum and _count. Buckets are chosen at declaration and never
// change, so scrapes are consistent without coordination.
type Histogram struct {
	name   string
	bounds []float64
	// counts[i] counts observations <= bounds[i], non-cumulatively;
	// counts[len(bounds)] is the +Inf overflow bucket. Rendering
	// accumulates, so Observe touches exactly one slot.
	counts  []atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

func newHistogram(name string, bounds []float64) *Histogram {
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
	return &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
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

// writeSamples appends the bucket, _sum and _count lines.
func (h *Histogram) writeSamples(b *bytes.Buffer) {
	var cum int64
	for i, le := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=\"%s\"} %d\n", h.name, strconv.FormatFloat(le, 'g', -1, 64), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	sum := math.Float64frombits(h.sumBits.Load())
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		h.name, cum, h.name, strconv.FormatFloat(sum, 'g', -1, 64), h.name, cum)
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
