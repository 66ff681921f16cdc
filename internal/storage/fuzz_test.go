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
		if p := runs(append(buf, 0xff, 0xff, 0xff), 0, []uint32{1}, nil, out[:]); p != len(buf) || out[0] != v {
			t.Fatalf("inline round trip of %d: got %d, consumed %d of %d", v, out[0], p, len(buf))
		}
		// Every truncation ends on a continuation byte (or is empty), so
		// all of them must fail rather than read out of bounds.
		for cut := 0; cut < len(buf); cut++ {
			if _, p := uvarint32Slow(buf[:cut], 0); p >= 0 {
				t.Fatalf("truncated encoding of %d (len %d) decoded", v, cut)
			}
			if runs(buf[:cut], 0, []uint32{1}, nil, out[:]) >= 0 {
				t.Fatalf("truncated encoding of %d (len %d) decoded by runs", v, cut)
			}
		}
	})
}

// fuzzSeedBlobs is the corpus the issue calls for: empty, single-edge,
// hub-shaped (one destination, many sources) and max-id sub-shards.
func fuzzSeedBlobs(weighted bool) [][]byte {
	hub := &SubShard{Dsts: []uint32{42}, Offsets: []uint32{0, 64}}
	for i := 0; i < 64; i++ {
		hub.Srcs = append(hub.Srcs, uint32(i*i))
		if weighted {
			hub.Weights = append(hub.Weights, float32(i))
		}
	}
	shards := []*SubShard{
		{Offsets: []uint32{0}},
		{Dsts: []uint32{7}, Offsets: []uint32{0, 1}, Srcs: []uint32{3}, Weights: wts(weighted, 0.5)},
		hub,
		{Dsts: []uint32{1<<32 - 1}, Offsets: []uint32{0, 2}, Srcs: []uint32{1<<32 - 1, 1<<32 - 1},
			Weights: func() []float32 {
				if weighted {
					return []float32{1, 2}
				}
				return nil
			}()},
	}
	var out [][]byte
	for _, ss := range shards {
		out = append(out, EncodeSubShardV2(ss, weighted))
	}
	return out
}

// rawV2Blob assembles a v2 blob from literal stream values with no
// validity checks, so seeds can put any varint anywhere — including
// where only a rejection is possible.
func rawV2Blob(dstCount, edgeCount uint32, dsts, counts, srcs []uint32, weighted bool) []byte {
	b := appendUvarint(appendUvarint(nil, dstCount), edgeCount)
	for _, stream := range [][]uint32{dsts, counts, srcs} {
		for _, v := range stream {
			b = appendUvarint(b, v)
		}
	}
	if weighted {
		b = append(b, make([]byte, 4*edgeCount)...)
	}
	return b
}

// edgeSeedBlobs aims at the inline path's boundaries: for n = 2..5 an
// n-byte varint as the last value of the dst, the count and the source
// stream — the last of which also ends the varint region, so it starts
// inside or just before the final three bytes, where the four-byte load
// stops and uvarint32Slow takes over — and, after it, one- and two-byte
// values that start inside those three bytes. A 4- or 5-byte count cannot
// be valid in a blob of seed size; those two seeds are there to be
// rejected identically.
func edgeSeedBlobs(weighted bool) [][]byte {
	var out [][]byte
	ones := func(n int, first uint32) []uint32 {
		s := make([]uint32, n)
		s[0] = first
		return s // first id, then gap-0 parallel edges
	}
	for n := 2; n <= maxUvarint32Len; n++ {
		v := uint32(1) << (7 * (n - 1)) // smallest n-byte value
		// Last dst gap, and last source, are n bytes.
		out = append(out, rawV2Blob(2, 2, []uint32{5, v}, []uint32{1, 1}, []uint32{9, v}, weighted))
		// One- and two-byte values after an n-byte one, inside the tail.
		out = append(out, rawV2Blob(1, 3, []uint32{5}, []uint32{3}, []uint32{v, 1, 300}, weighted))
		out = append(out, rawV2Blob(1, 3, []uint32{5}, []uint32{3}, []uint32{v, 300, 1}, weighted))
		// Last count is n bytes: valid while the blob stays small.
		if n <= 3 {
			out = append(out, rawV2Blob(2, 1+v, []uint32{5, 1}, []uint32{1, v}, append([]uint32{7}, ones(int(v), 3)...), weighted))
		} else {
			out = append(out, rawV2Blob(2, 2, []uint32{5, 1}, []uint32{1, v}, []uint32{7, 3}, weighted))
		}
	}
	return out
}

// sameDecode fails unless the decoder under test and the reference
// agree on blob: both reject, or both accept, the id-order decode with
// identical arrays and the class-order decode with a permutation of
// them (checkClassOrder).
func sameDecode(t *testing.T, blob []byte, weighted bool) *SubShard {
	t.Helper()
	ss, err := DecodeSubShardV2(blob, weighted)
	ref, refErr := decodeSubShardV2Ref(blob, weighted)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("accept/reject differs: new %v, ref %v", err, refErr)
	}
	cls, clsErr := decodeSubShardV2(nil, blob, weighted, ClassOrder)
	if (clsErr == nil) != (refErr == nil) {
		t.Fatalf("class-order accept/reject differs: new %v, ref %v", clsErr, refErr)
	}
	if err != nil {
		return nil
	}
	checkClassOrder(t, cls, ref)
	if !slices.Equal(ss.Dsts, ref.Dsts) || !slices.Equal(ss.Offsets, ref.Offsets) ||
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

// checkClassOrder fails unless cls lists the destinations of ids (a
// decode in id order) in count-class order: every destination with the
// same sources and weight bits, the classes in order — one in-edge, two,
// three, then four or more — with bounds that match the counts, and ids
// ascending within each class.
func checkClassOrder(t *testing.T, cls, ids *SubShard) {
	t.Helper()
	n := len(ids.Dsts)
	if len(cls.Dsts) != n || len(cls.Offsets) != n+1 || cls.Offsets[0] != 0 || int(cls.Offsets[n]) != len(ids.Srcs) ||
		len(cls.Srcs) != len(ids.Srcs) || (cls.Weights == nil) != (ids.Weights == nil) || len(cls.Weights) != len(ids.Weights) {
		t.Fatalf("class order: %d dsts, %d offsets, %d srcs, %d weights for %d, %d, %d, %d",
			len(cls.Dsts), len(cls.Offsets), len(cls.Srcs), len(cls.Weights), n, n+1, len(ids.Srcs), len(ids.Weights))
	}
	b := cls.Classes()
	for c := range NumClasses {
		if b[c] > b[c+1] {
			t.Fatalf("class order: bounds %v do not ascend", b)
		}
		for k := b[c]; k < b[c+1]; k++ {
			lo, hi := cls.Offsets[k], cls.Offsets[k+1]
			if e := int(hi) - int(lo); e < 1 || c < NumClasses-1 && e != c+1 || c == NumClasses-1 && e < NumClasses {
				t.Fatalf("class order: destination %d of class %d (bounds %v) has %d in-edges", k, c, b, e)
			}
			if k > b[c] && cls.Dsts[k] <= cls.Dsts[k-1] {
				t.Fatalf("class order: ids do not ascend in class %d at %d", c, k)
			}
			x, ok := slices.BinarySearch(ids.Dsts, cls.Dsts[k])
			if !ok {
				t.Fatalf("class order: destination %d is not in the id-order decode", cls.Dsts[k])
			}
			if !slices.Equal(cls.Srcs[lo:hi], ids.Srcs[ids.Offsets[x]:ids.Offsets[x+1]]) {
				t.Fatalf("class order: destination %d has sources %v, want %v", cls.Dsts[k],
					cls.Srcs[lo:hi], ids.Srcs[ids.Offsets[x]:ids.Offsets[x+1]])
			}
			for e := range hi - lo {
				if w, want := cls.Weights, ids.Weights; w != nil && float32bits(w[lo+e]) != float32bits(want[ids.Offsets[x]+e]) {
					t.Fatalf("class order: destination %d edge %d weight %x, want %x", cls.Dsts[k], e,
						float32bits(w[lo+e]), float32bits(want[ids.Offsets[x]+e]))
				}
			}
		}
	}
}

// TestClassOrderDecode: every cell of the RMAT store, unweighted and
// with distinct weights, decodes in count-class order to a permutation
// of its id-order decode (checkClassOrder), the cells decoded one after
// another into one recycled sub-shard as the block cache does, the two
// passes at once as concurrent misses run (the decoder keeps no state
// outside the sub-shard it fills); and a block whose destinations all
// share one class has the other classes empty.
func TestClassOrderDecode(t *testing.T) {
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
				blob := EncodeSubShardV2(ss, weighted)
				ids, err := DecodeSubShardV2(blob, weighted)
				if err != nil {
					t.Fatal(err)
				}
				if spare, err = DecodeSubShardInto(spare, blob, weighted, ClassOrder); err != nil {
					t.Fatal(err)
				}
				checkClassOrder(t, spare, ids)
			}
		})
	}
	for e := 1; e <= 6; e++ {
		ss := &SubShard{Dsts: []uint32{3, 9}, Offsets: []uint32{0, uint32(e), uint32(2 * e)}}
		for s := range 2 * e {
			ss.Srcs = append(ss.Srcs, uint32(s))
		}
		cls, err := DecodeSubShardInto(nil, EncodeSubShardV2(ss, false), false, ClassOrder)
		if err != nil {
			t.Fatal(err)
		}
		c := min(e, NumClasses) - 1
		want := [NumClasses + 1]int{}
		for x := c + 1; x <= NumClasses; x++ {
			want[x] = 2
		}
		if got := cls.Classes(); got != want {
			t.Fatalf("two destinations of %d edges: classes %v, want %v", e, got, want)
		}
		checkClassOrder(t, cls, ss)
	}
}

// TestDecodeV2MatchesRef runs the differential check where `go test`
// reaches it without fuzzing: every cell of the RMAT store, the seed
// corpus, and each seed truncated at every length and with every byte
// of its varint region disturbed.
func TestDecodeV2MatchesRef(t *testing.T) {
	for _, ss := range rmatCells() {
		if ss != nil {
			sameDecode(t, EncodeSubShardV2(ss, false), false)
		}
	}
	accepted := 0
	for _, weighted := range []bool{false, true} {
		for _, blob := range append(fuzzSeedBlobs(weighted), edgeSeedBlobs(weighted)...) {
			if sameDecode(t, blob, weighted) != nil {
				accepted++
			}
			if len(blob) > 64 {
				continue // the mutations below are quadratic
			}
			for cut := range blob {
				sameDecode(t, blob[:cut], weighted)
			}
			for i := range blob {
				for _, x := range []byte{0x80, 0x7f, 0xff} {
					m := slices.Clone(blob)
					m[i] ^= x
					sameDecode(t, m, weighted)
				}
			}
		}
	}
	if accepted < 30 {
		t.Fatalf("only %d seed blobs decode; the edge seeds are meant to be valid", accepted)
	}
}

// FuzzDecodeSubShardV2 throws arbitrary bytes at the v2 decoder: it must
// never panic, it must agree with decodeSubShardV2Ref on accept/reject
// in either order, on every array in id order and on a permutation of
// them in count-class order (sameDecode), and whatever it accepts must
// re-encode to the identical blob (a canonical-order sub-shard has
// exactly one v2 encoding).
func FuzzDecodeSubShardV2(f *testing.F) {
	for _, weighted := range []bool{false, true} {
		for _, blob := range append(fuzzSeedBlobs(weighted), edgeSeedBlobs(weighted)...) {
			f.Add(blob, weighted)
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte, weighted bool) {
		ss := sameDecode(t, blob, weighted)
		if ss == nil {
			return
		}
		// Structural invariants the decoder promises.
		if len(ss.Offsets) != len(ss.Dsts)+1 || int(ss.Offsets[len(ss.Dsts)]) != len(ss.Srcs) {
			t.Fatalf("inconsistent shape: %d dsts, %d offsets, %d srcs",
				len(ss.Dsts), len(ss.Offsets), len(ss.Srcs))
		}
		for k := 1; k < len(ss.Dsts); k++ {
			if ss.Dsts[k] <= ss.Dsts[k-1] {
				t.Fatalf("dsts not strictly ascending at %d", k)
			}
		}
		for k := range ss.Dsts {
			for t2 := ss.Offsets[k] + 1; t2 < ss.Offsets[k+1]; t2++ {
				if ss.Srcs[t2] < ss.Srcs[t2-1] {
					t.Fatalf("srcs of dst %d descend at %d", k, t2)
				}
			}
		}
		re := EncodeSubShardV2(ss, weighted)
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
// every edge in the cell of its intervals, emit canonical order (Dsts
// strictly ascending, (source, weight bits) non-descending within a
// destination), and build cells that survive a v2 round trip.
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
			for k, d := range ss.Dsts {
				if k > 0 && d <= ss.Dsts[k-1] {
					t.Fatalf("cell %d: destinations %v do not strictly ascend", c, ss.Dsts)
				}
				lo, hi := ss.Offsets[k], ss.Offsets[k+1]
				if lo >= hi {
					t.Fatalf("cell %d: destination %d has offsets [%d, %d)", c, d, lo, hi)
				}
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
			dec, err := DecodeSubShardV2(EncodeSubShardV2(ss, weighted), weighted)
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
