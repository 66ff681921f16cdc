package storage

// Unsigned LEB128 varints, the integer encoding of format-v2 sub-shard
// blobs (see EncodeSubShardV2). What the decoder is shaped around is the
// measured byte-length mix of each stream of a real store (RMAT scale
// 16 x 16, P = 12, every forward cell; TestVarintLengthMix re-measures):
//
//	stream          1 byte   2 bytes  3 bytes  4-5 bytes
//	dst gaps        1.000    0.000    -        -
//	counts          0.995    0.005    -        -
//	first sources   0.100    0.423    0.477    -
//	source gaps     0.683    0.317    -        -
//
// Dst gaps and counts are one byte, but the first source of every
// destination is a raw vertex id and a cell averages under six sources
// per destination, so two source values in five need a second or third
// byte. One to three bytes covers everything; runs3 decodes those
// lengths in line, and uvarint32Slow — a call — is left with ids past
// 2^21, malformed input and the last bytes of a blob.

// maxUvarint32Len is the longest encoding of a uint32 (5 × 7 bits).
const maxUvarint32Len = 5

// appendUvarint appends v's LEB128 encoding to buf.
func appendUvarint(buf []byte, v uint32) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// uvarint32Slow decodes one varint of any length at offset p of b,
// returning the value and the offset past it. A truncated,
// uint32-overflowing or non-minimal (zero-padded) encoding returns a
// negative offset — rejecting padding means every value has exactly one
// accepted encoding, so any blob the v2 decoder accepts re-encodes
// byte-identically.
func uvarint32Slow(b []byte, p int) (uint32, int) {
	var v uint32
	var shift uint
	for i := 0; i < maxUvarint32Len; i++ {
		if uint(p) >= uint(len(b)) {
			return 0, -1
		}
		c := b[p]
		p++
		if c < 0x80 {
			if i == maxUvarint32Len-1 && c > 0x0f {
				return 0, -1 // bits 32+ set: not a uint32
			}
			if c == 0 && i > 0 {
				return 0, -1 // zero-padded: a shorter encoding exists
			}
			return v | uint32(c)<<shift, p
		}
		v |= uint32(c&0x7f) << shift
		shift += 7
	}
	return 0, -1 // 5 continuation bytes: not a uint32
}

// runs decodes lists of varints — each a first value followed by gaps —
// from b at offset p into out as running sums, and returns the offset
// past them: negative on a truncated, zero-padded or uint32-overflowing
// encoding or a sum past uint32. List k holds ends[k] − ends[k−1]
// values (ends[−1] = 0); ends ascend to at most len(out). With route nil
// list k fills out[ends[k−1]:ends[k]]. With route set — every list then
// non-empty — it fills the next run of its count class c (one, two,
// three, four or more values): the run starting at route[c], which
// advances past it.
func runs(b []byte, p int, ends []uint32, route *[NumClasses]uint32, out []uint32) int {
	var over, s uint64
	var k, t, hi int
	for {
		var o uint64
		var rest int
		k, t, hi, s, o, rest = runs3(b[p:], ends, route, out, k, t, hi, s)
		over |= o
		if p = len(b) - rest; t == hi {
			break // every list is done
		}
		var x uint32
		if x, p = uvarint32Slow(b, p); p < 0 {
			return -1
		}
		s += uint64(x)
		out[t] = uint32(s)
		t++
	}
	if over>>32 != 0 {
		return -1
	}
	return p
}

// runs3 is the call-free inner loop of runs. It takes one-, two- and
// three-byte minimal encodings from the front of b, each from one
// four-byte load, continuing list k−1 at out[t] (its run ends at hi)
// with s the sum so far, and stops when every list is done or at
// anything else — a longer or zero-padded value, fewer than four bytes
// left — which runs hands to uvarint32Slow to accept or reject. It
// returns the new k, t, hi and s, the OR of the completed lists' final
// sums (bits past 31: an id overflowed) and the bytes of b left.
// Re-slicing b instead of indexing it is what lets the compiler drop
// every bounds check in the loop.
func runs3(b []byte, ends []uint32, route *[NumClasses]uint32, out []uint32, k, t, hi int, s uint64) (k2, t2, hi2 int, s2, over uint64, rest int) {
	for {
		for ; t < hi; t++ {
			if len(b) < 4 || t >= len(out) {
				return k, t, hi, s, over, len(b)
			}
			w := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
			switch {
			case w&0x80 == 0:
				s += uint64(w & 0x7f)
				b = b[1:]
			case w&0x8000 == 0 && w&0x7f00 != 0:
				s += uint64(w&0x7f | w>>1&0x3f80)
				b = b[2:]
			case w&0x808000 == 0x8000 && w&0x7f0000 != 0:
				s += uint64(w&0x7f | w>>1&0x3f80 | w>>2&0x1fc000)
				b = b[3:]
			default:
				return k, t, hi, s, over, len(b)
			}
			out[t] = uint32(s)
		}
		over |= s
		s = 0
		if k == len(ends) {
			return k, t, hi, s, over, len(b)
		}
		var lo uint32
		if k > 0 {
			lo = ends[k-1]
		}
		n := ends[k] - lo
		t = int(lo)
		if route != nil {
			c := min(n, NumClasses) - 1
			t = int(route[c])
			route[c] += n
		}
		hi = t + int(n)
		k++
	}
}
