package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"nxgraph/internal/graph"
)

// canonicalSubShard builds a random sub-shard through BuildSubShards,
// in the order the encoding requires: count classes, destinations
// strictly ascending within a class, sources non-descending within each
// destination (duplicates model parallel edges).
func canonicalSubShard(rng *rand.Rand, weighted bool) *SubShard {
	var edges []graph.Edge
	for _, d := range rng.Perm(1 << 20)[:rng.Intn(24)] {
		cnt := 1 + rng.Intn(7)
		src := uint32(rng.Intn(1 << 24))
		for c := 0; c < cnt; c++ {
			if c > 0 && rng.Intn(4) > 0 {
				src += uint32(rng.Intn(1 << 12))
			} // else: repeat the source — a parallel edge, gap 0
			edges = append(edges, graph.Edge{Src: src, Dst: uint32(d), Weight: rng.Float32()})
		}
	}
	var ss *SubShard
	if err := BuildSubShards(edges, 1<<31, 1, weighted, func(_ int, c *SubShard) error {
		ss = c
		return nil
	}); err != nil {
		panic(err)
	}
	return ss
}

// seal returns payload with the CRC32C trailer the decoder checks, so a
// hand-made or mutated payload reaches the structural checks.
func seal(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(slices.Clip(payload), crc32.Checksum(payload, castagnoli))
}

func sameSubShard(t *testing.T, got, want *SubShard, weighted bool) {
	t.Helper()
	if got.NumDsts() != want.NumDsts() || got.NumEdges() != want.NumEdges() || got.ClassEnds != want.ClassEnds {
		t.Fatalf("counts: got %d/%d classes %v, want %d/%d classes %v", got.NumDsts(), got.NumEdges(),
			got.ClassEnds, want.NumDsts(), want.NumEdges(), want.ClassEnds)
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
			blob := EncodeSubShard(ss, weighted)
			got, err := DecodeSubShard(blob, weighted)
			if err != nil {
				t.Fatalf("weighted=%v iter=%d: %v", weighted, iter, err)
			}
			sameSubShard(t, got, ss, weighted)
		}
	}
}

// TestV2CompressesFixedWidth checks that the encoding actually
// compresses: its blobs against the fixed-width CSR size CompressionRatio charges
// (encodedSize) for the same sub-shards.
func TestV2CompressesFixedWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var fixedBytes, encBytes int64
	for iter := 0; iter < 50; iter++ {
		ss := canonicalSubShard(rng, false)
		if ss.NumEdges() == 0 {
			continue
		}
		fixedBytes += encodedSize(ss.NumDsts(), ss.NumEdges(), false)
		encBytes += int64(len(EncodeSubShard(ss, false)))
	}
	// The fixture's gaps are deliberately large (up to 2^12); real
	// interval-partitioned stores compress harder (the soak benchmark
	// asserts >= 2x there), so only sanity-check 1.5x here.
	if encBytes*3 > fixedBytes*2 {
		t.Fatalf("encoding is %d bytes vs %d fixed-width — expected at least 1.5x compression",
			encBytes, fixedBytes)
	}
}

// TestV2RoundTripFromEdges drives the full construction path: raw edges
// -> BuildSubShards (sorts to canonical order) -> encode -> decode
// must reproduce the built sub-shard bit for bit.
func TestV2RoundTripFromEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, weighted := range []bool{false, true} {
		for iter := 0; iter < 50; iter++ {
			edges := make([]graph.Edge, 1+rng.Intn(200))
			for i := range edges {
				// Few distinct ids: parallel edges likely.
				edges[i] = graph.Edge{Src: uint32(rng.Intn(64)), Dst: uint32(rng.Intn(64))}
				if weighted {
					edges[i].Weight = rng.Float32()
				}
			}
			err := BuildSubShards(edges, 64, 1, weighted, func(_ int, ss *SubShard) error {
				got, err := DecodeSubShard(EncodeSubShard(ss, weighted), weighted)
				if err != nil {
					return err
				}
				sameSubShard(t, got, ss, weighted)
				return nil
			})
			if err != nil {
				t.Fatalf("weighted=%v iter=%d: %v", weighted, iter, err)
			}
		}
	}
}

func TestDecodeV2RejectsCorruptBlobs(t *testing.T) {
	ss := canonicalSubShard(rand.New(rand.NewSource(3)), false)
	for ss.NumEdges() < 4 {
		ss = canonicalSubShard(rand.New(rand.NewSource(4)), false)
	}
	blob := EncodeSubShard(ss, false)
	if _, err := DecodeSubShard(nil, false); err == nil {
		t.Fatal("empty blob should fail")
	}
	if _, err := DecodeSubShard(blob[:len(blob)/2], false); err == nil {
		t.Fatal("truncated blob should fail")
	}
	if _, err := DecodeSubShard(append(append([]byte{}, blob...), 0), false); err == nil {
		t.Fatal("trailing garbage should fail")
	}
	// A huge declared dst count must be rejected before allocation.
	if _, err := DecodeSubShard(seal([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0x01, 0x01, 0, 0, 1, 1}), false); err == nil {
		t.Fatal("hostile dst count should fail")
	}
}

// TestDecodeRejectsWrongChecksum: a blob whose trailer does not match
// its bytes fails with a checksum error, whether a trailer bit or a
// payload bit flipped — the payload flip here leaves a blob that parses,
// so only the trailer tells it from the original.
func TestDecodeRejectsWrongChecksum(t *testing.T) {
	ss := canonicalSubShard(rand.New(rand.NewSource(5)), false)
	for ss.NumEdges() < 4 {
		ss = canonicalSubShard(rand.New(rand.NewSource(6)), false)
	}
	blob := EncodeSubShard(ss, false)
	last := len(blob) - 5 // the last source gap, just before the trailer
	if _, err := DecodeSubShard(seal(flipBit(blob[:len(blob)-4], last, 0)), false); err != nil {
		t.Fatalf("the flipped payload does not parse when resealed: %v", err)
	}
	for _, at := range []int{last, len(blob) - 4, len(blob) - 1} {
		for bit := range 8 {
			_, err := DecodeSubShard(flipBit(blob, at, bit), false)
			if err == nil || !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("bit %d of byte %d flipped: %v, want a checksum error", bit, at, err)
			}
		}
	}
}

// flipBit returns a copy of b with bit bit of byte at flipped.
func flipBit(b []byte, at, bit int) []byte {
	m := slices.Clone(b)
	m[at] ^= 1 << bit
	return m
}

// TestDecodeRejectsCorruptBlobs feeds the store's decode entry point a
// short blob, a blob missing its last byte, and an unweighted blob read
// as weighted; each must fail rather than return a sub-shard.
func TestDecodeRejectsCorruptBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ss := canonicalSubShard(rng, false)
	for ss.NumEdges() < 4 {
		ss = canonicalSubShard(rng, false)
	}
	blob := EncodeSubShard(ss, false)
	if _, err := DecodeSubShardInto(nil, blob[:2], false); err == nil {
		t.Fatal("short blob should fail")
	}
	if _, err := DecodeSubShardInto(nil, blob[:len(blob)-1], false); err == nil {
		t.Fatal("truncated blob should fail")
	}
	// An unweighted blob read as weighted loses 4 bytes per edge to the
	// weight section and must fail.
	if _, err := DecodeSubShardInto(nil, blob, true); err == nil {
		t.Fatal("weighted/unweighted confusion should fail")
	}
}

// TestVerifyCatchesClassOverlap: a blob that lists one destination in
// two count classes, each class ascending, decodes — the decoder checks
// each class, not the classes against each other — and Verify's
// per-destination check names both indexes.
func TestVerifyCatchesClassOverlap(t *testing.T) {
	ss := &SubShard{Dsts: []uint32{5, 5}, Offsets: []uint32{0, 1, 3}, Srcs: []uint32{1, 0, 2}, ClassEnds: [3]int{1, 2, 2}}
	got, err := DecodeSubShard(EncodeSubShard(ss, false), false)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	sameSubShard(t, got, ss, false)
	out, in := make([]uint64, 8), make([]uint64, 8)
	if err := verifyDst(got, 0, 0, 0, 8, 0, 8, out, in); err != nil {
		t.Fatalf("first listing: %v", err)
	}
	err = verifyDst(got, 1, 1, 0, 8, 0, 8, out, in)
	if err == nil || !strings.Contains(err.Error(), "dst 5 listed at 0 and at 1") {
		t.Fatalf("second listing: %v, want both indexes named", err)
	}
}

// TestEmptyAndSingleEdgeV2 covers the degenerate shapes explicitly (the
// fuzz corpus seeds the same cases).
func TestEmptyAndSingleEdgeV2(t *testing.T) {
	empty := &SubShard{Offsets: []uint32{0}}
	got, err := DecodeSubShard(EncodeSubShard(empty, false), false)
	if err != nil || got.NumDsts() != 0 || got.NumEdges() != 0 {
		t.Fatalf("empty: %+v, %v", got, err)
	}
	one := &SubShard{Dsts: []uint32{4294967295}, Offsets: []uint32{0, 1}, Srcs: []uint32{4294967295}, ClassEnds: [3]int{1, 1, 1}}
	got, err = DecodeSubShard(EncodeSubShard(one, false), false)
	if err != nil || got.Dsts[0] != 4294967295 || got.Srcs[0] != 4294967295 {
		t.Fatalf("max-id single edge: %+v, %v", got, err)
	}
}

// TestOpenRejectsOtherVersions opens a store whose meta.json says
// version 1 or 2 (formats no build writes any more) or 4 (one this build
// does not know): the error must name the path, the version found and
// the remedy, and no shard byte may be read.
func TestOpenRejectsOtherVersions(t *testing.T) {
	disk, st := buildTinyStore(t, false)
	st.Close()
	path := disk.Path("st/" + MetaFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 2, 4} {
		if err := os.WriteFile(path, editMeta(t, good, func(m *Meta) { m.Version = v }), 0o644); err != nil {
			t.Fatal(err)
		}
		disk.ResetStats()
		_, err := Open(disk, "st")
		if err == nil {
			t.Fatalf("a v%d store opened", v)
		}
		msg := err.Error()
		for _, want := range []string{disk.Path("st"), fmt.Sprintf("version %d", v), "nxpre"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("error %q does not mention %q", msg, want)
			}
		}
		if got := disk.Stats().Snapshot().BytesRead; got != 0 {
			t.Fatalf("rejected v%d open still read %d bytes from the store", v, got)
		}
	}
}

// TestDecodeIntoRecycled covers the contract the engine's miss path
// relies on: a decode handed a sub-shard nobody references re-slices its
// arrays without clearing them and then writes every element it returns
// — so a poisoned spare comes back holding exactly the fresh decode's
// values — allocates nothing, and falls back to fresh arrays (leaving the
// spare alone) when the spare is too small. The references are fresh
// decodes of the same blobs.
func TestDecodeIntoRecycled(t *testing.T) {
	const poison = 0xFFFFFFFF // no id, offset or weight bits of the fixtures
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(2))
		var big, small *SubShard
		for big == nil || small == nil || small.NumEdges() == 0 || big.NumEdges() < 2*small.NumEdges() {
			big, small = canonicalSubShard(rng, weighted), canonicalSubShard(rng, weighted)
		}
		bigBlob, smallBlob := EncodeSubShard(big, weighted), EncodeSubShard(small, weighted)
		spare, err := DecodeSubShardInto(nil, bigBlob, weighted)
		if err != nil {
			t.Fatal(err)
		}
		for i := range spare.arena {
			spare.arena[i] = poison
		}
		for i := range spare.Weights {
			spare.Weights[i] = float32frombits(poison)
		}
		got, err := DecodeSubShardInto(spare, smallBlob, weighted)
		if err != nil {
			t.Fatal(err)
		}
		if got != spare {
			t.Fatalf("weighted=%v: a spare with room was not reused", weighted)
		}
		sameSubShard(t, got, small, weighted)
		written := len(got.Dsts) + len(got.Offsets) + len(got.Srcs)
		if want := 2*small.NumDsts() + 1 + small.NumEdges(); written != want {
			t.Fatalf("arrays hold %d elements, want %d", written, want)
		}
		for i, x := range got.arena[:written] {
			if x == poison {
				t.Fatalf("weighted=%v: element %d of %d returned unwritten", weighted, i, written)
			}
		}
		if tail := got.arena[written:]; len(tail) == 0 || tail[0] != poison {
			t.Fatalf("the arrays past the decode were cleared or not kept (%d left)", len(tail))
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := DecodeSubShardInto(spare, smallBlob, weighted); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("weighted=%v: decode into a spare allocates %v times", weighted, n)
		}
		// Too small: fresh arrays, spare untouched.
		tiny, err := DecodeSubShardInto(nil, smallBlob, weighted)
		if err != nil {
			t.Fatal(err)
		}
		got, err = DecodeSubShardInto(tiny, bigBlob, weighted)
		if err != nil {
			t.Fatal(err)
		}
		if got == tiny {
			t.Fatalf("decoded %d edges into arrays sized for %d", big.NumEdges(), small.NumEdges())
		}
		sameSubShard(t, got, big, weighted)
		sameSubShard(t, tiny, small, weighted)
	}
}

// decodeSubShardRef is a value-at-a-time decoder of the format: one
// loop per stream, a uvarint32 call per value, every check at the value
// it concerns. It is the oracle the decoder in format.go is
// differentially tested and benchmarked against — same accept/reject
// set, same arrays.
func decodeSubShardRef(buf []byte, weighted bool) (*SubShard, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("storage: blob: no checksum")
	}
	body := buf[:len(buf)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(buf[len(body):]) {
		return nil, fmt.Errorf("storage: blob: checksum mismatch")
	}
	var hdr [5]uint32 // dsts, edges, and the sizes of classes 1-3
	p := 0
	for i := range hdr {
		v, np := uvarint32(body, p)
		if np < 0 {
			return nil, fmt.Errorf("storage: blob: truncated header value %d", i)
		}
		hdr[i], p = v, np
	}
	dstCount, edgeCount := int(hdr[0]), int(hdr[1])
	short := int(hdr[2]) + int(hdr[3]) + int(hdr[4])
	if short > dstCount {
		return nil, fmt.Errorf("storage: blob: %d short-class dsts of %d", short, dstCount)
	}
	end := len(body)
	if weighted {
		end -= 4 * edgeCount
	}
	if end < p || end-p < dstCount+edgeCount || edgeCount < dstCount {
		return nil, fmt.Errorf("storage: blob: %d bytes cannot hold %d dsts / %d edges",
			len(buf), dstCount, edgeCount)
	}
	ss := &SubShard{
		Dsts:    make([]uint32, dstCount),
		Offsets: make([]uint32, dstCount+1),
		Srcs:    make([]uint32, edgeCount),
	}
	v := body[:end] // varint region; p never legally reaches past it
	size := [NumClasses]int{int(hdr[2]), int(hdr[3]), int(hdr[4]), dstCount - short}
	class := make([]int, dstCount)
	k := 0
	for c, n := range size {
		var d uint32
		for x := 0; x < n; x++ {
			gap, np := uvarint32(v, p)
			if np < 0 {
				return nil, fmt.Errorf("storage: blob: truncated dst gap %d", k)
			}
			p = np
			if x == 0 {
				d = gap
			} else {
				nd := uint64(d) + uint64(gap)
				if gap == 0 || nd > 1<<32-1 {
					return nil, fmt.Errorf("storage: blob: dst %d not ascending", k)
				}
				d = uint32(nd)
			}
			ss.Dsts[k], class[k] = d, c
			k++
		}
		if c < NumClasses-1 {
			ss.ClassEnds[c] = k
		}
	}
	var sum uint64
	for k := 0; k < dstCount; k++ {
		n := uint64(class[k] + 1)
		if class[k] == NumClasses-1 {
			c, np := uvarint32(v, p)
			if np < 0 {
				return nil, fmt.Errorf("storage: blob: truncated count %d", k)
			}
			p = np
			n = uint64(c) + NumClasses
		}
		sum += n
		if sum > uint64(edgeCount) {
			return nil, fmt.Errorf("storage: blob: counts exceed %d edges", edgeCount)
		}
		ss.Offsets[k+1] = uint32(sum)
	}
	if sum != uint64(edgeCount) {
		return nil, fmt.Errorf("storage: blob: counts sum to %d, want %d edges", sum, edgeCount)
	}
	for k := 0; k < dstCount; k++ {
		var s uint32
		for t := ss.Offsets[k]; t < ss.Offsets[k+1]; t++ {
			g, np := uvarint32(v, p)
			if np < 0 {
				return nil, fmt.Errorf("storage: blob: truncated sources of dst %d", k)
			}
			p = np
			ns := uint64(s) + uint64(g)
			if t == ss.Offsets[k] {
				ns = uint64(g)
			}
			if ns > 1<<32-1 {
				return nil, fmt.Errorf("storage: blob: source overflow at dst %d", k)
			}
			s = uint32(ns)
			ss.Srcs[t] = s
		}
	}
	if p != end {
		return nil, fmt.Errorf("storage: blob: %d trailing bytes", end-p)
	}
	if weighted {
		ss.Weights = make([]float32, edgeCount)
		for k := 0; k < edgeCount; k++ {
			ss.Weights[k] = float32frombits(binary.LittleEndian.Uint32(body[end+4*k:]))
		}
	}
	return ss, nil
}

// uvarint32 is the per-value entry point of decodeSubShardRef: it decodes one varint at offset p of b, returning the
// value and the offset past it. A truncated, uint32-overflowing or non-minimal
// (zero-padded) encoding returns a negative offset — rejecting padding
// means every value has exactly one accepted encoding, so any blob the
// decoder accepts re-encodes byte-identically. The common single-byte
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
