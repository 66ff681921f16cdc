package storage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// canonicalSubShard builds a random sub-shard in canonical order:
// destinations strictly ascending, sources non-descending within each
// destination (duplicates model parallel edges). This is the order the
// v2 gap encoding requires.
func canonicalSubShard(rng *rand.Rand, weighted bool) *SubShard {
	nd := rng.Intn(24)
	ss := &SubShard{Offsets: []uint32{0}}
	dsts := rng.Perm(1 << 20)[:nd]
	for i := 1; i < len(dsts); i++ {
		for j := i; j > 0 && dsts[j] < dsts[j-1]; j-- {
			dsts[j], dsts[j-1] = dsts[j-1], dsts[j]
		}
	}
	for _, d := range dsts {
		ss.Dsts = append(ss.Dsts, uint32(d))
		cnt := 1 + rng.Intn(7)
		src := uint32(rng.Intn(1 << 24))
		for c := 0; c < cnt; c++ {
			if c > 0 && rng.Intn(4) > 0 {
				src += uint32(rng.Intn(1 << 12))
			} // else: repeat the source — a parallel edge, gap 0
			ss.Srcs = append(ss.Srcs, src)
			if weighted {
				ss.Weights = append(ss.Weights, rng.Float32())
			}
		}
		ss.Offsets = append(ss.Offsets, uint32(len(ss.Srcs)))
	}
	return ss
}

func sameSubShard(t *testing.T, got, want *SubShard, weighted bool) {
	t.Helper()
	if got.NumDsts() != want.NumDsts() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("counts: got %d/%d, want %d/%d",
			got.NumDsts(), got.NumEdges(), want.NumDsts(), want.NumEdges())
	}
	for k := range want.Dsts {
		if got.Dsts[k] != want.Dsts[k] || got.Offsets[k+1] != want.Offsets[k+1] {
			t.Fatalf("dst %d: got (%d,%d), want (%d,%d)",
				k, got.Dsts[k], got.Offsets[k+1], want.Dsts[k], want.Offsets[k+1])
		}
	}
	for i := range want.Srcs {
		if got.Srcs[i] != want.Srcs[i] {
			t.Fatalf("src %d: got %d, want %d", i, got.Srcs[i], want.Srcs[i])
		}
		if weighted && got.Weights[i] != want.Weights[i] {
			t.Fatalf("weight %d: got %v, want %v", i, got.Weights[i], want.Weights[i])
		}
	}
	if !weighted && got.Weights != nil {
		t.Fatal("unweighted decode materialized weights")
	}
}

func TestEncodeDecodeV2RoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		for iter := 0; iter < 200; iter++ {
			ss := canonicalSubShard(rng, weighted)
			blob := EncodeSubShardV2(ss, weighted)
			got, err := DecodeSubShardV2(blob, weighted)
			if err != nil {
				t.Fatalf("weighted=%v iter=%d: %v", weighted, iter, err)
			}
			sameSubShard(t, got, ss, weighted)
		}
	}
}

// TestV2MatchesV1 decodes the same sub-shard through both codecs and
// checks both the equivalence and that v2 actually compresses.
func TestV2MatchesV1(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var v1Bytes, v2Bytes int
	for iter := 0; iter < 50; iter++ {
		ss := canonicalSubShard(rng, false)
		if ss.NumEdges() == 0 {
			continue
		}
		b1 := EncodeSubShard(ss, false)
		b2 := EncodeSubShardV2(ss, false)
		v1Bytes += len(b1)
		v2Bytes += len(b2)
		d1, err1 := DecodeSubShardAs(nil, b1, false, FormatV1)
		d2, err2 := DecodeSubShardAs(nil, b2, false, FormatV2)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		sameSubShard(t, d2, d1, false)
	}
	// The fixture's gaps are deliberately large (up to 2^12); real
	// interval-partitioned stores compress harder (the soak benchmark
	// asserts >= 2x there), so only sanity-check 1.5x here.
	if v2Bytes*3 > v1Bytes*2 {
		t.Fatalf("v2 encoding is %d bytes vs %d for v1 — expected at least 1.5x compression",
			v2Bytes, v1Bytes)
	}
}

// TestV2RoundTripFromEdges drives the full construction path: raw edge
// arrays -> NewSubShardFromEdges (sorts to canonical order) -> v2 encode
// -> decode must reproduce the built sub-shard bit for bit.
func TestV2RoundTripFromEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, weighted := range []bool{false, true} {
		for iter := 0; iter < 50; iter++ {
			n := 1 + rng.Intn(200)
			srcs := make([]uint32, n)
			dsts := make([]uint32, n)
			var ws []float32
			if weighted {
				ws = make([]float32, n)
			}
			for i := range srcs {
				srcs[i] = uint32(rng.Intn(64)) // few distinct ids: parallel edges likely
				dsts[i] = uint32(rng.Intn(64))
				if weighted {
					ws[i] = rng.Float32()
				}
			}
			ss := NewSubShardFromEdges(srcs, dsts, ws)
			blob := EncodeSubShardV2(ss, weighted)
			got, err := DecodeSubShardV2(blob, weighted)
			if err != nil {
				t.Fatalf("weighted=%v iter=%d: %v", weighted, iter, err)
			}
			sameSubShard(t, got, ss, weighted)
		}
	}
}

func TestDecodeV2RejectsCorruptBlobs(t *testing.T) {
	ss := canonicalSubShard(rand.New(rand.NewSource(3)), false)
	for ss.NumEdges() < 4 {
		ss = canonicalSubShard(rand.New(rand.NewSource(4)), false)
	}
	blob := EncodeSubShardV2(ss, false)
	if _, err := DecodeSubShardV2(nil, false); err == nil {
		t.Fatal("empty blob should fail")
	}
	if _, err := DecodeSubShardV2(blob[:len(blob)/2], false); err == nil {
		t.Fatal("truncated blob should fail")
	}
	if _, err := DecodeSubShardV2(append(append([]byte{}, blob...), 0), false); err == nil {
		t.Fatal("trailing garbage should fail")
	}
	// A huge declared dst count must be rejected before allocation.
	if _, err := DecodeSubShardV2([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0x01, 0x01}, false); err == nil {
		t.Fatal("hostile dst count should fail")
	}
}

// TestEmptyAndSingleEdgeV2 covers the degenerate shapes explicitly (the
// fuzz corpus seeds the same cases).
func TestEmptyAndSingleEdgeV2(t *testing.T) {
	empty := &SubShard{Offsets: []uint32{0}}
	got, err := DecodeSubShardV2(EncodeSubShardV2(empty, false), false)
	if err != nil || got.NumDsts() != 0 || got.NumEdges() != 0 {
		t.Fatalf("empty: %+v, %v", got, err)
	}
	one := &SubShard{Dsts: []uint32{4294967295}, Offsets: []uint32{0, 1}, Srcs: []uint32{4294967295}}
	got, err = DecodeSubShardV2(EncodeSubShardV2(one, false), false)
	if err != nil || got.Dsts[0] != 4294967295 || got.Srcs[0] != 4294967295 {
		t.Fatalf("max-id single edge: %+v, %v", got, err)
	}
}

// setMaxSupportedVersion simulates a build capped at an older format.
func setMaxSupportedVersion(t *testing.T, v int) {
	t.Helper()
	old := maxSupportedVersion
	maxSupportedVersion = v
	t.Cleanup(func() { maxSupportedVersion = old })
}

// TestOpenRejectsNewerVersionCleanly opens a v2 store with a build
// capped at v1: the error must name the path, the found and supported
// versions, and the remedy — and no shard byte may be read.
func TestOpenRejectsNewerVersionCleanly(t *testing.T) {
	disk, st := buildTinyStore(t, false) // default format = v2
	st.Close()
	disk.ResetStats()

	setMaxSupportedVersion(t, FormatV1)
	_, err := Open(disk, "st")
	if err == nil {
		t.Fatal("v1-capped build opened a v2 store")
	}
	msg := err.Error()
	for _, want := range []string{disk.Path("st"), "version 2", "v1..v1", "newer build", "rebuild it from its edge list"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not mention %q", msg, want)
		}
	}
	if got := disk.Stats().Snapshot().BytesRead; got != 0 {
		t.Fatalf("rejected open still read %d bytes from the store", got)
	}
}

// TestDecodeIntoRecycled covers the contract the engine's miss path
// relies on: a decode handed a sub-shard nobody references re-slices its
// arrays without clearing them and then writes every element it returns
// — so a poisoned spare comes back holding exactly the fresh decode's
// values — allocates nothing, and falls back to fresh arrays (leaving the
// spare alone) when the spare is too small. The v1 blobs are the checked-in
// fixture's; the references are fresh decodes of the same blobs.
func TestDecodeIntoRecycled(t *testing.T) {
	const poison = 0xFFFFFFFF // no id, offset or weight bits of the fixtures
	for _, version := range []int{FormatV1, FormatV2} {
		for _, weighted := range []bool{false, true} {
			var bigBlob, smallBlob []byte
			if version == FormatV1 {
				bigBlob, smallBlob = v1FixtureBlobs(t, weighted)
			} else {
				rng := rand.New(rand.NewSource(int64(version)))
				var big, small *SubShard
				for big == nil || small == nil || small.NumEdges() == 0 || big.NumEdges() < 2*small.NumEdges() {
					big, small = canonicalSubShard(rng, weighted), canonicalSubShard(rng, weighted)
				}
				bigBlob, smallBlob = EncodeSubShardV2(big, weighted), EncodeSubShardV2(small, weighted)
			}
			big, err := DecodeSubShardAs(nil, bigBlob, weighted, version)
			if err != nil {
				t.Fatal(err)
			}
			small, err := DecodeSubShardAs(nil, smallBlob, weighted, version)
			if err != nil {
				t.Fatal(err)
			}
			if small.NumEdges() == 0 || big.NumEdges() < 2*small.NumEdges() {
				t.Fatalf("v%d: fixture blobs of %d and %d edges", version, big.NumEdges(), small.NumEdges())
			}
			spare, err := DecodeSubShardAs(nil, bigBlob, weighted, version)
			if err != nil {
				t.Fatal(err)
			}
			for i := range spare.arena {
				spare.arena[i] = poison
			}
			for i := range spare.Weights {
				spare.Weights[i] = float32frombits(poison)
			}
			got, err := DecodeSubShardAs(spare, smallBlob, weighted, version)
			if err != nil {
				t.Fatal(err)
			}
			if got != spare {
				t.Fatalf("v%d weighted=%v: a spare with room was not reused", version, weighted)
			}
			sameSubShard(t, got, small, weighted)
			written := len(got.Dsts) + len(got.Offsets) + len(got.Srcs)
			if want := 2*small.NumDsts() + 1 + small.NumEdges(); written != want {
				t.Fatalf("arrays hold %d elements, want %d", written, want)
			}
			for i, x := range got.arena[:written] {
				if x == poison {
					t.Fatalf("v%d weighted=%v: element %d of %d returned unwritten", version, weighted, i, written)
				}
			}
			if tail := got.arena[written:]; len(tail) == 0 || tail[0] != poison {
				t.Fatalf("v%d: the arrays past the decode were cleared or not kept (%d left)", version, len(tail))
			}
			if n := testing.AllocsPerRun(20, func() {
				if _, err := DecodeSubShardAs(spare, smallBlob, weighted, version); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("v%d weighted=%v: decode into a spare allocates %v times", version, weighted, n)
			}
			// Too small: fresh arrays, spare untouched.
			tiny, err := DecodeSubShardAs(nil, smallBlob, weighted, version)
			if err != nil {
				t.Fatal(err)
			}
			got, err = DecodeSubShardAs(tiny, bigBlob, weighted, version)
			if err != nil {
				t.Fatal(err)
			}
			if got == tiny {
				t.Fatalf("v%d: decoded %d edges into arrays sized for %d", version, big.NumEdges(), small.NumEdges())
			}
			sameSubShard(t, got, big, weighted)
			sameSubShard(t, tiny, small, weighted)
		}
	}
}

// v1FixtureBlobs returns the largest and the smallest non-empty forward
// sub-shard blob of the v1 store under testdata/v1, written by an older
// build (testutil.V1Store copies the whole store). The fixture is
// weighted; unweighted, a v1 blob is the same bytes without the trailing
// weight section of 4 bytes per edge.
func v1FixtureBlobs(t *testing.T, weighted bool) (big, small []byte) {
	t.Helper()
	raw, err := os.ReadFile("testdata/v1/dsss/" + MetaFile)
	if err != nil {
		t.Fatal(err)
	}
	var m Meta
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	shards, err := os.ReadFile("testdata/v1/dsss/" + ShardsFile)
	if err != nil {
		t.Fatal(err)
	}
	var bi, si SubShardInfo
	for _, info := range m.SubShards {
		if info.Edges > bi.Edges {
			bi = info
		}
		if info.Edges > 0 && (si.Edges == 0 || info.Edges < si.Edges) {
			si = info
		}
	}
	blob := func(info SubShardInfo) []byte {
		b := shards[info.Offset : info.Offset+info.Length]
		if !weighted {
			b = b[:len(b)-4*int(info.Edges)]
		}
		return b
	}
	return blob(bi), blob(si)
}

// decodeSubShardV2Ref is the v2 decoder as it stood before issue 17,
// verbatim: one loop, a uvarint32 call per value, every check at the
// value it concerns. It is the oracle the decoder in format.go is
// differentially tested and benchmarked against — same accept/reject
// set, same arrays.
func decodeSubShardV2Ref(buf []byte, weighted bool) (*SubShard, error) {
	dc, p := uvarint32(buf, 0)
	if p < 0 {
		return nil, fmt.Errorf("storage: v2 blob: truncated dst count")
	}
	ec, p := uvarint32(buf, p)
	if p < 0 {
		return nil, fmt.Errorf("storage: v2 blob: truncated edge count")
	}
	dstCount, edgeCount := int(dc), int(ec)
	end := len(buf)
	if weighted {
		end -= 4 * edgeCount
	}
	// Every destination needs at least one gap byte, one count byte and
	// one source byte; rejecting impossible counts up front also bounds
	// the allocations below against hostile headers.
	if end < p || end-p < 2*dstCount+edgeCount || edgeCount < dstCount {
		return nil, fmt.Errorf("storage: v2 blob: %d bytes cannot hold %d dsts / %d edges",
			len(buf), dstCount, edgeCount)
	}
	ss := &SubShard{
		Dsts:    make([]uint32, dstCount),
		Offsets: make([]uint32, dstCount+1),
		Srcs:    make([]uint32, edgeCount),
	}
	v := buf[:end] // varint region; p never legally reaches past it
	var d uint32
	for k := 0; k < dstCount; k++ {
		gap, np := uvarint32(v, p)
		if np < 0 {
			return nil, fmt.Errorf("storage: v2 blob: truncated dst gap %d", k)
		}
		p = np
		if k == 0 {
			d = gap
		} else {
			nd := uint64(d) + uint64(gap)
			if gap == 0 || nd > 1<<32-1 {
				return nil, fmt.Errorf("storage: v2 blob: dst %d not ascending", k)
			}
			d = uint32(nd)
		}
		ss.Dsts[k] = d
	}
	var sum uint64
	for k := 0; k < dstCount; k++ {
		c, np := uvarint32(v, p)
		if np < 0 {
			return nil, fmt.Errorf("storage: v2 blob: truncated count %d", k)
		}
		p = np
		if c == 0 {
			// A destination is listed only if it has sources; rejecting
			// zero keeps the encoding bijective and the source loop's
			// first-raw-then-gaps shape unconditional.
			return nil, fmt.Errorf("storage: v2 blob: dst %d has zero sources", k)
		}
		sum += uint64(c)
		if sum > uint64(edgeCount) {
			return nil, fmt.Errorf("storage: v2 blob: counts exceed %d edges", edgeCount)
		}
		ss.Offsets[k+1] = uint32(sum)
	}
	if sum != uint64(edgeCount) {
		return nil, fmt.Errorf("storage: v2 blob: counts sum to %d, want %d edges", sum, edgeCount)
	}
	srcs, t := ss.Srcs, 0
	for k := 0; k < dstCount; k++ {
		n := int(ss.Offsets[k+1]) - t
		s, np := uvarint32(v, p)
		if np < 0 {
			return nil, fmt.Errorf("storage: v2 blob: truncated sources of dst %d", k)
		}
		p = np
		// Short-run fast paths: the skewed graphs DSSS targets give most
		// destinations 1–3 sources per sub-shard cell, so the common runs
		// decode straight-line with no inner loop.
		switch n {
		case 1:
			srcs[t] = s
			t++
			continue
		case 2:
			srcs[t] = s
			g, np := uvarint32(v, p)
			if np < 0 {
				return nil, fmt.Errorf("storage: v2 blob: truncated sources of dst %d", k)
			}
			p = np
			s2 := uint64(s) + uint64(g)
			if s2 > 1<<32-1 {
				return nil, fmt.Errorf("storage: v2 blob: source overflow at dst %d", k)
			}
			srcs[t+1] = uint32(s2)
			t += 2
			continue
		}
		srcs[t] = s
		t++
		for i := 1; i < n; i++ {
			g, np := uvarint32(v, p)
			if np < 0 {
				return nil, fmt.Errorf("storage: v2 blob: truncated sources of dst %d", k)
			}
			p = np
			ns := uint64(s) + uint64(g)
			if ns > 1<<32-1 {
				return nil, fmt.Errorf("storage: v2 blob: source overflow at dst %d", k)
			}
			s = uint32(ns)
			srcs[t] = s
			t++
		}
	}
	if p != end {
		return nil, fmt.Errorf("storage: v2 blob: %d trailing bytes", end-p)
	}
	if weighted {
		ss.Weights = make([]float32, edgeCount)
		for k := 0; k < edgeCount; k++ {
			ss.Weights[k] = float32frombits(binary.LittleEndian.Uint32(buf[end+4*k:]))
		}
	}
	return ss, nil
}

// uvarint32 is the per-value entry point of decodeSubShardV2Ref, moved
// here with it: it decodes one varint at offset p of b, returning the
// value and the offset past it. A truncated, uint32-overflowing or non-minimal
// (zero-padded) encoding returns a negative offset — rejecting padding
// means every value has exactly one accepted encoding, so any blob the
// v2 decoder accepts re-encodes byte-identically. The common single-byte
// case is the only code a caller's loop executes; everything else
// tail-calls uvarint32Slow.
func uvarint32(b []byte, p int) (uint32, int) {
	if uint(p) < uint(len(b)) {
		if c := b[p]; c < 0x80 {
			return uint32(c), p + 1
		}
	}
	return uvarint32Slow(b, p)
}
