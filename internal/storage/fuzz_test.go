package storage

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"nxgraph/internal/graph"
)

// FuzzUvarint32 round-trips the varint codec through both decode paths:
// uvarint32Slow directly, and runs with bytes to spare after the value,
// which takes encodings of up to three bytes inline.
func FuzzUvarint32(f *testing.F) {
	for _, v := range []uint32{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1 << 21, 1 << 28, 1<<32 - 1} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v uint32) {
		buf := appendUvarint(nil, v)
		if len(buf) > maxUvarint32Len {
			t.Fatalf("%d encoded to %d bytes", v, len(buf))
		}
		got, p := uvarint32Slow(buf, 0)
		if p != len(buf) || got != v {
			t.Fatalf("round trip of %d: got %d, consumed %d of %d", v, got, p, len(buf))
		}
		var out [1]uint32
		if p := runs(append(buf, 0xff, 0xff, 0xff), 0, []uint32{1}, out[:]); p != len(buf) || out[0] != v {
			t.Fatalf("inline round trip of %d: got %d, consumed %d of %d", v, out[0], p, len(buf))
		}
		// Every truncation ends on a continuation byte (or is empty), so
		// all of them must fail rather than read out of bounds.
		for cut := 0; cut < len(buf); cut++ {
			if _, p := uvarint32Slow(buf[:cut], 0); p >= 0 {
				t.Fatalf("truncated encoding of %d (len %d) decoded", v, cut)
			}
			if runs(buf[:cut], 0, []uint32{1}, out[:]) >= 0 {
				t.Fatalf("truncated encoding of %d (len %d) decoded by runs", v, cut)
			}
		}
	})
}

// fuzzSeedPayloads is the seed corpus: empty,
// single-edge, hub-shaped (one destination, many sources) and max-id
// sub-shards, each a blob without its trailer (see seal).
func fuzzSeedPayloads(weighted bool) [][]byte {
	hub := &SubShard{Dsts: []uint32{42}, Offsets: []uint32{0, 64}}
	for i := 0; i < 64; i++ {
		hub.Srcs = append(hub.Srcs, uint32(i*i))
		if weighted {
			hub.Weights = append(hub.Weights, float32(i))
		}
	}
	shards := []*SubShard{
		{Offsets: []uint32{0}},
		{Dsts: []uint32{7}, Offsets: []uint32{0, 1}, Srcs: []uint32{3}, Weights: wts(weighted, 0.5), ClassEnds: [3]int{1, 1, 1}},
		hub,
		{Dsts: []uint32{1<<32 - 1}, Offsets: []uint32{0, 2}, Srcs: []uint32{1<<32 - 1, 1<<32 - 1},
			Weights: func() []float32 {
				if weighted {
					return []float32{1, 2}
				}
				return nil
			}(), ClassEnds: [3]int{0, 1, 1}},
	}
	var out [][]byte
	for _, ss := range shards {
		blob := EncodeSubShard(ss, weighted)
		out = append(out, blob[:len(blob)-4])
	}
	return out
}

// rawPayload assembles a blob without its trailer from literal stream
// values with no validity checks, so seeds can put any varint anywhere —
// including where only a rejection is possible. classes are the sizes
// of the first three classes; dsts are the class lists back to back and
// counts the last class's, less four each.
func rawPayload(dstCount, edgeCount uint32, classes [3]uint32, dsts, counts, srcs []uint32, weighted bool) []byte {
	b := appendUvarint(appendUvarint(nil, dstCount), edgeCount)
	for _, stream := range [][]uint32{classes[:], dsts, counts, srcs} {
		for _, v := range stream {
			b = appendUvarint(b, v)
		}
	}
	if weighted {
		b = append(b, make([]byte, 4*edgeCount)...)
	}
	return b
}

// edgeSeedPayloads aims at the inline path's boundaries: for n = 2..5
// an n-byte varint as the last value of the dst, the count and the
// source stream — the last of which also ends the varint region, so it
// starts inside or just before the final three bytes, where the
// four-byte load stops and uvarint32Slow takes over — and, after it,
// one- and two-byte values that start inside those three bytes. A 4- or
// 5-byte count cannot be valid in a blob of seed size; those two seeds
// are there to be rejected identically.
func edgeSeedPayloads(weighted bool) [][]byte {
	var out [][]byte
	ones := func(n int, first uint32) []uint32 {
		s := make([]uint32, n)
		s[0] = first
		return s // first id, then gap-0 parallel edges
	}
	for n := 2; n <= maxUvarint32Len; n++ {
		v := uint32(1) << (7 * (n - 1)) // smallest n-byte value
		// Last dst gap, and last source, are n bytes: two one-edge dsts.
		out = append(out, rawPayload(2, 2, [3]uint32{2, 0, 0}, []uint32{5, v}, nil, []uint32{9, v}, weighted))
		// One- and two-byte values after an n-byte one, inside the tail:
		// one three-edge dst.
		out = append(out, rawPayload(1, 3, [3]uint32{0, 0, 1}, []uint32{5}, nil, []uint32{v, 1, 300}, weighted))
		out = append(out, rawPayload(1, 3, [3]uint32{0, 0, 1}, []uint32{5}, nil, []uint32{v, 300, 1}, weighted))
		// Last count is n bytes, after a one-edge dst: valid while the
		// blob stays small.
		if n <= 3 {
			out = append(out, rawPayload(2, 5+v, [3]uint32{1, 0, 0}, []uint32{5, 6}, []uint32{v}, append([]uint32{7}, ones(int(v)+4, 3)...), weighted))
		} else {
			out = append(out, rawPayload(2, 5, [3]uint32{1, 0, 0}, []uint32{5, 6}, []uint32{v}, []uint32{7, 3, 0, 0, 0}, weighted))
		}
	}
	return out
}

// sameDecode fails unless the decoder under test and the reference
// agree on blob: both reject, or both accept with identical arrays.
func sameDecode(t *testing.T, blob []byte, weighted bool) *SubShard {
	t.Helper()
	ss, err := DecodeSubShard(blob, weighted)
	ref, refErr := decodeSubShardRef(blob, weighted)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("accept/reject differs: new %v, ref %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	if !slices.Equal(ss.Dsts, ref.Dsts) || !slices.Equal(ss.Offsets, ref.Offsets) || ss.ClassEnds != ref.ClassEnds ||
		!slices.Equal(ss.Srcs, ref.Srcs) || (ss.Weights == nil) != (ref.Weights == nil) {
		t.Fatalf("arrays differ from the reference decoder's")
	}
	for i, w := range ss.Weights { // bitwise: fuzzed weight bytes may be NaN
		if float32bits(w) != float32bits(ref.Weights[i]) {
			t.Fatalf("weight %d: %x, ref %x", i, float32bits(w), float32bits(ref.Weights[i]))
		}
	}
	return ss
}

// checkClasses fails unless ss is in count-class order: Offsets run from
// 0 to the edge count, the class bounds ascend, every destination of a
// class has the class's count — one, two, three, four or more in-edges
// — ids ascend within each class and sources within each destination.
func checkClasses(t testing.TB, ss *SubShard) {
	t.Helper()
	n := len(ss.Dsts)
	if len(ss.Offsets) != n+1 || ss.Offsets[0] != 0 || int(ss.Offsets[n]) != len(ss.Srcs) {
		t.Fatalf("inconsistent shape: %d dsts, %d offsets, %d srcs", n, len(ss.Offsets), len(ss.Srcs))
	}
	b := ss.Classes()
	for c := range NumClasses {
		if b[c] > b[c+1] {
			t.Fatalf("class bounds %v do not ascend", b)
		}
		for k := b[c]; k < b[c+1]; k++ {
			lo, hi := ss.Offsets[k], ss.Offsets[k+1]
			if e := int(hi) - int(lo); e < 1 || classOf(e) != c {
				t.Fatalf("destination %d of class %d (bounds %v) has %d in-edges", k, c, b, e)
			}
			if k > b[c] && ss.Dsts[k] <= ss.Dsts[k-1] {
				t.Fatalf("ids do not ascend in class %d at %d", c, k)
			}
			for e := lo + 1; e < hi; e++ {
				if ss.Srcs[e] < ss.Srcs[e-1] {
					t.Fatalf("srcs of dst %d descend at %d", ss.Dsts[k], e)
				}
			}
		}
	}
}

// TestBuildEncodeDecodeRoundTrip: every cell of the RMAT store,
// unweighted and with distinct weights, survives BuildSubShards →
// encode → decode array for array, the cells decoded one after another
// into one recycled sub-shard as the block cache does, the two passes
// at once as concurrent misses run (the decoder keeps no state outside
// the sub-shard it fills); and a cell whose destinations all share one
// class has the other classes empty.
func TestBuildEncodeDecodeRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		t.Run(fmt.Sprintf("rmat/weighted=%v", weighted), func(t *testing.T) {
			t.Parallel()
			var spare *SubShard
			for _, ss := range rmatCells() {
				if ss == nil {
					continue
				}
				if weighted {
					w := *ss
					w.Weights = make([]float32, len(ss.Srcs))
					for e := range w.Weights {
						w.Weights[e] = float32(e) + 0.5
					}
					ss = &w
				}
				checkClasses(t, ss)
				var err error
				if spare, err = DecodeSubShardInto(spare, EncodeSubShard(ss, weighted), weighted); err != nil {
					t.Fatal(err)
				}
				sameSubShard(t, spare, ss, weighted)
			}
		})
	}
	for e := 1; e <= 6; e++ {
		var edges []graph.Edge
		for s := range e {
			edges = append(edges, graph.Edge{Src: uint32(s), Dst: 9}, graph.Edge{Src: uint32(s), Dst: 3})
		}
		err := BuildSubShards(edges, 16, 1, false, func(_ int, ss *SubShard) error {
			c := classOf(e)
			want := [NumClasses + 1]int{}
			for x := c + 1; x <= NumClasses; x++ {
				want[x] = 2
			}
			if got := ss.Classes(); got != want || ss.Dsts[0] != 3 || ss.Dsts[1] != 9 {
				t.Fatalf("two destinations of %d edges: %v in classes %v, want [3 9] in %v", e, ss.Dsts, got, want)
			}
			got, err := DecodeSubShard(EncodeSubShard(ss, false), false)
			if err != nil {
				return err
			}
			sameSubShard(t, got, ss, false)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecodeV2MatchesRef runs the differential check where `go test`
// reaches it without fuzzing: every cell of the RMAT store, the seed
// corpus, and each seed truncated at every length and with every byte
// of its payload disturbed, resealed so that the structural checks run.
func TestDecodeV2MatchesRef(t *testing.T) {
	for _, ss := range rmatCells() {
		if ss != nil {
			sameDecode(t, EncodeSubShard(ss, false), false)
		}
	}
	accepted := 0
	for _, weighted := range []bool{false, true} {
		for _, payload := range append(fuzzSeedPayloads(weighted), edgeSeedPayloads(weighted)...) {
			if sameDecode(t, seal(payload), weighted) != nil {
				accepted++
			}
			if len(payload) > 64 {
				continue // the mutations below are quadratic
			}
			for cut := range payload {
				sameDecode(t, seal(payload[:cut]), weighted)
			}
			for i := range payload {
				for _, x := range []byte{0x80, 0x7f, 0xff} {
					m := slices.Clone(payload)
					m[i] ^= x
					sameDecode(t, seal(m), weighted)
				}
			}
		}
	}
	if accepted < 30 {
		t.Fatalf("only %d seed blobs decode; the edge seeds are meant to be valid", accepted)
	}
}

// FuzzDecodeSubShardV2 throws arbitrary bytes at the decoder, as a
// payload it seals with a valid trailer (so the structural checks are
// reached) and as they come (so is the checksum): it must never panic,
// it must agree with decodeSubShardRef on accept/reject and on every
// array (sameDecode), what it accepts must be in count-class order
// (checkClasses), and it must re-encode to the identical blob (a
// sub-shard in builder order has exactly one encoding).
func FuzzDecodeSubShardV2(f *testing.F) {
	for _, weighted := range []bool{false, true} {
		for _, payload := range append(fuzzSeedPayloads(weighted), edgeSeedPayloads(weighted)...) {
			f.Add(payload, weighted)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte, weighted bool) {
		sameDecode(t, payload, weighted)
		blob := seal(payload)
		ss := sameDecode(t, blob, weighted)
		if ss == nil {
			return
		}
		checkClasses(t, ss)
		re := EncodeSubShard(ss, weighted)
		if !bytes.Equal(re, blob) {
			t.Fatalf("accepted blob is not canonical: decode/encode changed %d -> %d bytes",
				len(blob), len(re))
		}
	})
}

// FuzzBuildSubShards decodes arbitrary bytes into edges — three bytes
// each: source, destination and a small signed weight, so parallel
// copies with different weights are common — over n = max id + 1
// vertices, P = 1 + p%8 intervals of ⌈n/P⌉ + slack%4 ids. BuildSubShards
// must call fn for cells 0…P²−1 in order, lose or invent no edge, put
// every edge in the cell of its intervals, emit canonical order (count
// classes, Dsts strictly ascending within each, (source, weight bits)
// non-descending within a destination), and build cells that survive an
// encode/decode round trip.
func FuzzBuildSubShards(f *testing.F) {
	// Weights follow their sources: destination 5 holds 3 (30) and 9
	// (90), destination 1 holds 2 (20) and 8 (80).
	f.Add(uint8(0), uint8(0), true, []byte{9, 5, 90, 3, 5, 30, 8, 1, 80, 2, 1, 20})
	// n = 10 over P = 3 intervals of 4 ids: the last interval is short.
	f.Add(uint8(2), uint8(0), true, []byte{9, 0, 1, 0, 9, 2, 4, 4, 3, 8, 3, 4, 4, 4, 3, 4, 4, 250})
	f.Add(uint8(7), uint8(3), false, []byte{})
	f.Fuzz(func(t *testing.T, p, slack uint8, weighted bool, raw []byte) {
		var edges []graph.Edge
		var n uint32
		for k := 0; k+3 <= len(raw); k += 3 {
			e := graph.Edge{Src: uint32(raw[k]), Dst: uint32(raw[k+1]), Weight: float32(int8(raw[k+2]))}
			edges = append(edges, e)
			n = max(n, e.Src+1, e.Dst+1)
		}
		P := 1 + int(p%8)
		size := (n+uint32(P)-1)/uint32(P) + uint32(slack%4)
		if size == 0 {
			size = 1
		}
		type key struct{ src, dst, wbits uint32 }
		keyOf := func(src, dst uint32, w float32) key {
			if !weighted {
				w = 0
			}
			return key{src, dst, math.Float32bits(w)}
		}
		var want, got []key
		for _, e := range edges {
			want = append(want, keyOf(e.Src, e.Dst, e.Weight))
		}

		calls := 0
		err := BuildSubShards(edges, size, P, weighted, func(c int, ss *SubShard) error {
			if c != calls {
				t.Fatalf("call %d is for cell %d", calls, c)
			}
			calls++
			if len(ss.Offsets) != len(ss.Dsts)+1 || ss.Offsets[0] != 0 || int(ss.Offsets[len(ss.Dsts)]) != len(ss.Srcs) {
				t.Fatalf("cell %d: %d offsets for %d destinations and %d edges", c, len(ss.Offsets), len(ss.Dsts), len(ss.Srcs))
			}
			if weighted != (ss.Weights != nil) || (weighted && len(ss.Weights) != len(ss.Srcs)) {
				t.Fatalf("cell %d: weighted=%v but %d weights for %d edges", c, weighted, len(ss.Weights), len(ss.Srcs))
			}
			checkClasses(t, ss)
			for k, d := range ss.Dsts {
				lo, hi := ss.Offsets[k], ss.Offsets[k+1]
				var prev key
				for e := lo; e < hi; e++ {
					w := float32(0)
					if weighted {
						w = ss.Weights[e]
					}
					kk := keyOf(ss.Srcs[e], d, w)
					if int(kk.src/size) != c/P || int(d/size) != c%P {
						t.Fatalf("edge %d->%d in cell %d, want cell (%d,%d)", kk.src, d, c, kk.src/size, d/size)
					}
					if e > lo && (kk.src < prev.src || kk.src == prev.src && kk.wbits < prev.wbits) {
						t.Fatalf("cell %d, destination %d: (source, weight bits) descend at edge %d", c, d, e)
					}
					prev = kk
					got = append(got, kk)
				}
			}
			dec, err := DecodeSubShard(EncodeSubShard(ss, weighted), weighted)
			if err != nil {
				t.Fatalf("cell %d: %v", c, err)
			}
			sameSubShard(t, dec, ss, weighted)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != P*P {
			t.Fatalf("fn ran %d times for P = %d", calls, P)
		}
		byKey := func(a, b key) int {
			return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst), cmp.Compare(a.wbits, b.wbits))
		}
		slices.SortFunc(want, byKey)
		slices.SortFunc(got, byKey)
		if !slices.Equal(want, got) {
			t.Fatalf("edge multiset changed: %d edges in, %d out", len(want), len(got))
		}
	})
}
