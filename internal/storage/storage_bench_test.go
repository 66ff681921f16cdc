package storage

import (
	"math/rand"
	"testing"
)

// benchSubShard builds a canonical-order fixture (sources sorted within
// each destination — the order the sharder emits and the v2 gap encoding
// requires).
func benchSubShard(b *testing.B, weighted bool) *SubShard {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	ss := &SubShard{Offsets: []uint32{0}}
	for d := uint32(0); d < 4096; d++ {
		ss.Dsts = append(ss.Dsts, d*3)
		cnt := 1 + rng.Intn(16)
		src := uint32(0)
		for s := 0; s < cnt; s++ {
			src += rng.Uint32() % (100000 / 16)
			ss.Srcs = append(ss.Srcs, src)
			if weighted {
				ss.Weights = append(ss.Weights, rng.Float32())
			}
		}
		ss.Offsets = append(ss.Offsets, uint32(len(ss.Srcs)))
	}
	return ss
}

func BenchmarkDecodeSubShard(b *testing.B) {
	ss := benchSubShard(b, false)
	blob := EncodeSubShard(ss, false)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSubShard(blob, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSubShardWeighted(b *testing.B) {
	ss := benchSubShard(b, true)
	blob := EncodeSubShard(ss, true)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSubShard(blob, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeSubShardV2(b *testing.B) {
	ss := benchSubShard(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob := EncodeSubShardV2(ss, false)
		b.SetBytes(int64(len(blob)))
	}
}

// BenchmarkSubShardDecodeV2 measures the varint decode that runs on
// every block-cache miss on a v2 store; ns/op here is the
// price paid for the ~3x byte reduction BenchmarkDecodeSubShard's
// fixed-width layout avoids. fixture is the synthetic sub-shard
// (8.5 sources per destination, small ids); rmatcell is cell (4, 1) of
// the benchmark's own graph shape (5.2 sources per destination, first
// sources split between two and three bytes), what a cold round decodes;
// rmatcell-ref is the pre-issue-17 decoder on the same blob, and
// recycled is the engine's miss path: decoding into a sub-shard the
// block cache evicted, no allocation.
func BenchmarkSubShardDecodeV2(b *testing.B) {
	run := func(name string, ss *SubShard, decode func(blob []byte) (*SubShard, error)) {
		b.Run(name, func(b *testing.B) {
			blob := EncodeSubShardV2(ss, false)
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := decode(blob); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ss.NumEdges()), "ns/edge")
		})
	}
	fresh := func(blob []byte) (*SubShard, error) { return DecodeSubShardV2(blob, false) }
	ref := func(blob []byte) (*SubShard, error) { return decodeSubShardV2Ref(blob, false) }
	spare := &SubShard{}
	recycled := func(blob []byte) (ss *SubShard, err error) {
		spare, err = decodeSubShardV2(spare, blob, false)
		return spare, err
	}
	run("fixture", benchSubShard(b, false), fresh)
	cell := rmatCell(b, 4, 1)
	run("rmatcell", cell, fresh)
	run("rmatcell-ref", cell, ref)
	run("recycled", cell, recycled)
}

func BenchmarkSubShardDecodeV2Weighted(b *testing.B) {
	ss := benchSubShard(b, true)
	blob := EncodeSubShardV2(ss, true)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSubShardV2(blob, true); err != nil {
			b.Fatal(err)
		}
	}
}
