package storage

import (
	"math/rand"
	"testing"

	"nxgraph/internal/graph"
)

// benchSubShard builds a synthetic fixture through BuildSubShards: 4096
// destinations of one to sixteen sources each, in the order the sharder
// emits and the encoding requires.
func benchSubShard(b *testing.B, weighted bool) *SubShard {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	var edges []graph.Edge
	for d := uint32(0); d < 4096; d++ {
		cnt := 1 + rng.Intn(16)
		src := uint32(0)
		for s := 0; s < cnt; s++ {
			src += rng.Uint32() % (100000 / 16)
			edges = append(edges, graph.Edge{Src: src, Dst: d * 3, Weight: rng.Float32()})
		}
	}
	var ss *SubShard
	if err := BuildSubShards(edges, 1<<20, 1, weighted, func(_ int, c *SubShard) error {
		ss = c
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	return ss
}

func BenchmarkEncodeSubShard(b *testing.B) {
	ss := benchSubShard(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob := EncodeSubShard(ss, false)
		b.SetBytes(int64(len(blob)))
	}
}

// BenchmarkSubShardDecode measures the varint decode that runs on every
// block-cache miss; ns/op here is the price paid for the ~3x byte
// reduction against a fixed-width layout (see CompressionRatio). fixture
// is the synthetic sub-shard (8.5 sources per destination, small ids);
// rmatcell is cell (4, 1) of the benchmark's own graph shape (5.2
// sources per destination, first sources split between two and three
// bytes), what a cold round decodes; rmatcell-ref is the value-at-a-time
// reference decoder on the same blob, and recycled is the engine's miss
// path: decoding into a sub-shard the block cache evicted, no
// allocation.
func BenchmarkSubShardDecode(b *testing.B) {
	run := func(name string, ss *SubShard, decode func(blob []byte) (*SubShard, error)) {
		b.Run(name, func(b *testing.B) {
			blob := EncodeSubShard(ss, false)
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
	fresh := func(blob []byte) (*SubShard, error) { return DecodeSubShard(blob, false) }
	ref := func(blob []byte) (*SubShard, error) { return decodeSubShardRef(blob, false) }
	spare := &SubShard{}
	recycled := func(blob []byte) (ss *SubShard, err error) {
		spare, err = decodeSubShard(spare, blob, false)
		return spare, err
	}
	run("fixture", benchSubShard(b, false), fresh)
	cell := rmatCell(b, 4, 1)
	run("rmatcell", cell, fresh)
	run("rmatcell-ref", cell, ref)
	run("recycled", cell, recycled)
}

func BenchmarkSubShardDecodeWeighted(b *testing.B) {
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
