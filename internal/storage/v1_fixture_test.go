package storage_test

import (
	"encoding/binary"
	"math"
	"os"
	"strings"
	"testing"

	"nxgraph/internal/storage"
	"nxgraph/internal/testutil"
)

// The tests in this file read the format-v1 store checked in under
// testdata/v1, which an older build wrote (its README has the commands).
// A format frozen on disk is tested against bytes a writer of that format
// produced, not against an encoder that could drift in lockstep with the
// decoder.

// TestV1StoreStillReadable opens the fixture through the version-sniffing
// read path and gets back every edge of the input it was built from,
// weights included, in both replicas.
func TestV1StoreStillReadable(t *testing.T) {
	st, g := testutil.V1Store(t)
	m := st.Meta()
	if m.Version != storage.FormatV1 || !m.Weighted || !m.HasTranspose || m.NumEdges != g.NumEdges() {
		t.Fatalf("meta: version %d weighted %v transpose %v edges %d, want v1 with both and %d edges",
			m.Version, m.Weighted, m.HasTranspose, m.NumEdges, g.NumEdges())
	}
	if err := storage.Verify(st); err != nil {
		t.Fatal(err)
	}
	type edge struct {
		src, dst uint32
		w        uint32
	}
	missing := map[edge]int{}
	for _, e := range testutil.Compact(g).Edges {
		missing[edge{e.Src, e.Dst, math.Float32bits(e.Weight)}]++
	}
	err := st.ForEachEdge(func(src, dst uint32, w float32) error {
		missing[edge{src, dst, math.Float32bits(w)}]--
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for e, n := range missing {
		if n != 0 {
			t.Fatalf("edge %d->%d (weight bits %#x): %d more in the input than in the store", e.src, e.dst, e.w, n)
		}
	}
}

// TestCompressionRatio checks the accounting helper on both formats: the
// v1 fixture's fixed-width size is its encoded size, and the same graph
// built in v2 has that fixed-width size and compresses below it.
func TestCompressionRatio(t *testing.T) {
	v1, g := testutil.V1Store(t)
	enc, fixed := v1.CompressionRatio()
	if enc != fixed {
		t.Fatalf("v1 store: encoded %d != fixed-width %d", enc, fixed)
	}
	v2, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4, Weighted: true, Transpose: true})
	enc2, fixed2 := v2.CompressionRatio()
	if fixed2 != fixed || enc2 >= fixed2 || enc2 <= 0 {
		t.Fatalf("v2 store: encoded %d, fixed-width %d (v1: %d) — expected the same graph, compressed", enc2, fixed2, fixed)
	}
}

// TestOpenRejectsMixedShardVersion corrupts the shard header version so
// it disagrees with meta.json.
func TestOpenRejectsMixedShardVersion(t *testing.T) {
	st, _ := testutil.V1Store(t)
	st.Close()
	disk := st.Disk()
	path := disk.Path("dsss/" + storage.ShardsFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[4] = 2 // header says v2, meta says v1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = storage.Open(disk, "dsss")
	if err == nil {
		t.Fatal("mixed-version store accepted")
	}
	if !strings.Contains(err.Error(), storage.ShardsFile) || !strings.Contains(err.Error(), "meta.json says 1") {
		t.Fatalf("unhelpful mixed-version error: %v", err)
	}
}

// TestVerifyCatchesCorruption moves a source id of the fixture out of its
// source interval: the blob still decodes, and Verify must reject it.
func TestVerifyCatchesCorruption(t *testing.T) {
	st, _ := testutil.V1Store(t)
	st.Close()
	m := st.Meta()
	info := m.SubShardAt(0, 0)
	if info.Edges == 0 {
		t.Fatal("fixture SS[0][0] is empty")
	}
	path := st.Disk().Path("dsss/" + storage.ShardsFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A v1 blob is uint32 dstCount, edgeCount, dsts, counts, then sources.
	binary.LittleEndian.PutUint32(raw[info.Offset+8+8*info.Dsts:], m.NumVertices-1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.Open(st.Disk(), "dsss")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := storage.Verify(st2); err == nil {
		t.Fatal("verify accepted a corrupted sub-shard")
	}
}
