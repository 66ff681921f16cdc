package wal

import (
	"sync/atomic"
	"testing"

	"nxgraph/internal/dynamic"
)

// BenchmarkWALAppendGroupCommit measures contended durable appends: 8
// goroutines appending 16-op batches concurrently, under each fsync
// policy. The batch-vs-off gap is the price of group-committed
// durability (the acceptance bound is <= 10% on warm hardware with a
// real disk); fsyncs/append shows what coalescing saves.
func BenchmarkWALAppendGroupCommit(b *testing.B) {
	ops := make([]dynamic.Op, 16)
	for i := range ops {
		ops[i] = dynamic.Op{Src: uint64(i), Dst: uint64(i + 1), Weight: 1}
	}
	for _, policy := range []SyncPolicy{SyncOff, SyncBatch} {
		b.Run(policy.String(), func(b *testing.B) {
			stats := &Stats{}
			l, err := Open(b.TempDir(), Options{Policy: policy, Stats: stats})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			var failed atomic.Bool
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := l.Append(ops); err != nil {
						failed.Store(true)
						return
					}
				}
			})
			b.StopTimer()
			if failed.Load() {
				b.Fatal("append failed during benchmark")
			}
			if n := stats.Appends.Load(); n > 0 {
				b.ReportMetric(float64(stats.Fsyncs.Load())/float64(n), "fsyncs/append")
			}
		})
	}
}
