// Package storage implements the on-disk Destination-Sorted Sub-Shard
// (DSSS) store of NXgraph (paper §II-A and §III-A).
//
// A graph with n vertices and m edges is stored as:
//
//   - P equal-sized vertex intervals (interval k owns the dense id range
//     [k·⌈n/P⌉, (k+1)·⌈n/P⌉));
//   - P² sub-shards: SS[i][j] holds every edge whose source lies in
//     interval i and destination in interval j, sorted by destination id
//     and, within one destination, by source id;
//   - shard S[j] is the column of sub-shards {SS[i][j] : i}, i.e. all edges
//     whose destination lies in interval j.
//
// Sub-shards use a compressed sparse layout: the distinct destination ids,
// per-destination source counts, and the concatenated sorted source lists.
// This is the paper's "efficient compressed sparse format"; the average
// in-degree d of Table II is edges/distinctDsts of a sub-shard.
//
// BuildSubShards is the one function that cuts an edge list into
// sub-shards in this order, weight bits breaking the last tie; the
// sharder (internal/preprocess) writes its cells, and the delta overlay
// (internal/dynamic) keeps them in memory.
//
// The physical layout is a single shards.dat file holding all P² blobs
// row-major (whole sub-shard rows are contiguous — the order SPU streaming
// and DPU's ToHub phase consume them in), plus a JSON meta document, a
// degree file, an id-map file, and an optional transposed replica for
// algorithms that traverse reverse edges (WCC, SCC, HITS). A store is
// immutable once written: the attribute intervals and hubs of the
// disk-based update strategies belong to one run, which keeps them in
// scratch files of its own (AttrStore, HubStore).
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// Format constants.
const (
	// MetaMagic identifies a DSSS store's meta document.
	MetaMagic = "NXGRAPH-DSSS"
	// FormatVersion is the one store format, written and read:
	// destinations in count-class order, the class sizes implying every
	// count below four, destination and per-destination source lists
	// gap-encoded as LEB128 varints, weights fixed-width in a trailing
	// section and a CRC32C trailer per blob (see EncodeSubShard).
	// 2.5–4× smaller on disk than fixed-width CSR for typical graphs
	// (see CompressionRatio).
	FormatVersion = 3
	// ShardMagic heads shards.dat.
	ShardMagic = uint32(0x4e584752) // "NXGR"
)

// File names inside a store directory.
const (
	MetaFile    = "meta.json"
	DegreeFile  = "degrees.bin"
	IDMapFile   = "idmap.bin"
	ShardsFile  = "shards.dat"
	TShardsFile = "shards_t.dat"
)

// SubShardInfo locates one sub-shard blob inside shards.dat.
type SubShardInfo struct {
	Offset int64 `json:"offset"`
	Length int64 `json:"length"`
	Edges  int64 `json:"edges"`
	Dsts   int64 `json:"dsts"` // distinct destination vertices
}

// Meta is the JSON-serialized description of a store.
type Meta struct {
	Magic        string `json:"magic"`
	Version      int    `json:"version"`
	Name         string `json:"name"`
	NumVertices  uint32 `json:"num_vertices"`
	NumEdges     int64  `json:"num_edges"`
	P            int    `json:"p"`
	Weighted     bool   `json:"weighted"`
	HasTranspose bool   `json:"has_transpose"`
	// SubShards is indexed row-major: entry i*P+j is SS[i][j]. This
	// matches the physical order in shards.dat, where row i (all
	// sub-shards with source interval i) is contiguous — the order the
	// row-phase of every update strategy streams edges in.
	SubShards []SubShardInfo `json:"sub_shards"`
	// TSubShards indexes shards_t.dat for the transposed graph, in the
	// same row-major order (of the transposed matrix).
	TSubShards []SubShardInfo `json:"t_sub_shards,omitempty"`
}

// IntervalSize returns ⌈n/P⌉, the number of vertex ids per interval.
func (m *Meta) IntervalSize() uint32 {
	if m.P <= 0 {
		return 0
	}
	p := uint32(m.P) // Validate bounds P far below 2^32
	size := m.NumVertices / p
	if m.NumVertices%p != 0 {
		size++ // rounding up this way cannot overflow near 2^32 vertices
	}
	return size
}

// IntervalOf returns the interval owning vertex v.
func (m *Meta) IntervalOf(v uint32) int { return int(v / m.IntervalSize()) }

// IntervalRange returns the [lo, hi) dense-id range of interval k.
func (m *Meta) IntervalRange(k int) (lo, hi uint32) {
	size := m.IntervalSize()
	lo = uint32(k) * size
	hi = lo + size
	if hi > m.NumVertices || k == m.P-1 {
		hi = m.NumVertices
	}
	if lo > m.NumVertices {
		lo = m.NumVertices
	}
	return lo, hi
}

// IntervalLen returns the number of vertices in interval k.
func (m *Meta) IntervalLen(k int) int {
	lo, hi := m.IntervalRange(k)
	return int(hi - lo)
}

// SubShardAt returns the info for SS[i][j].
func (m *Meta) SubShardAt(i, j int) SubShardInfo { return m.SubShards[i*m.P+j] }

// Validate checks internal consistency of the meta document.
func (m *Meta) Validate() error {
	if m.Magic != MetaMagic {
		return fmt.Errorf("storage: bad magic %q (want %q)", m.Magic, MetaMagic)
	}
	if m.Version != FormatVersion {
		// No "storage:" prefix — Open wraps this with the store path.
		return fmt.Errorf("store format version %d found, this build reads only v%d:"+
			" rebuild the store from its edge list with this build's nxpre",
			m.Version, FormatVersion)
	}
	if m.P <= 0 || m.P > maxP {
		return fmt.Errorf("storage: P %d outside [1, %d]", m.P, maxP)
	}
	if len(m.SubShards) != m.P*m.P {
		return fmt.Errorf("storage: %d sub-shard entries, want %d", len(m.SubShards), m.P*m.P)
	}
	if err := m.validateIndex("sub_shards", m.SubShards); err != nil {
		return err
	}
	if m.HasTranspose {
		if len(m.TSubShards) != m.P*m.P {
			return fmt.Errorf("storage: %d transpose entries, want %d", len(m.TSubShards), m.P*m.P)
		}
		if err := m.validateIndex("t_sub_shards", m.TSubShards); err != nil {
			return err
		}
	}
	return nil
}

// maxP bounds the interval count so that P² sub-shard entries count in
// an int on every platform; real stores use tens.
const maxP = 1 << 15

// validateIndex checks one replica's sub-shard index: every entry is
// well-formed (a writer gives an empty sub-shard no blob, and a blob
// holds at least one destination with at least one edge each), and the
// entries hold the meta's NumEdges. Each error names the entry.
func (m *Meta) validateIndex(field string, infos []SubShardInfo) error {
	var edges int64
	for i, ss := range infos {
		switch {
		case ss.Offset < 0 || ss.Length < 0:
			return fmt.Errorf("storage: %s[%d]: offset %d, length %d", field, i, ss.Offset, ss.Length)
		case ss.Dsts < 0 || ss.Dsts > ss.Edges:
			return fmt.Errorf("storage: %s[%d]: %d destinations, %d edges", field, i, ss.Dsts, ss.Edges)
		case (ss.Length == 0) != (ss.Dsts == 0):
			return fmt.Errorf("storage: %s[%d]: %d destinations in a %d-byte blob", field, i, ss.Dsts, ss.Length)
		}
		edges += ss.Edges
	}
	if edges != m.NumEdges {
		return fmt.Errorf("storage: %s hold %d edges, meta says %d", field, edges, m.NumEdges)
	}
	return nil
}

// SubShard is one destination-sorted sub-shard.
//
// For destination Dsts[k], the sources are Srcs[Offsets[k]:Offsets[k+1]]
// (sorted ascending), with parallel Weights when the graph is weighted.
// Offsets ascend, so each destination's edges are one contiguous run.
// Dsts lists each destination once, in count-class order: the
// destinations with one in-edge first, then two, then three, then four
// or more, ascending by id within each class (see ClassEnds). That is
// the order BuildSubShards lays out, the encoding stores and every
// decode returns. A gather folds a destination from its own contiguous
// run whatever the order, so the order is invisible in its results;
// what it changes is that the fold's branch on a run's length, taken
// once per destination, goes the same way for long stretches, and that
// a destination of the first three classes needs no count on disk.
type SubShard struct {
	Dsts    []uint32
	Offsets []uint32 // len(Dsts)+1
	Srcs    []uint32
	Weights []float32 // nil when unweighted

	// ClassEnds bounds the count classes: class c < 3 is
	// Dsts[ClassEnds[c-1]:ClassEnds[c]] (from 0 for c = 0), the
	// destinations with exactly c+1 in-edges, and the last class is the
	// rest of Dsts, those with four or more. A hand-built sub-shard that
	// leaves ClassEnds zero is one class, its destinations ascending and
	// of any count: the gather kernels fold it, but it has no encoding.
	ClassEnds [NumClasses - 1]int

	// arena backs Dsts, Offsets and Srcs of a decoded sub-shard, so a
	// decoder handed the sub-shard back (see sized) finds its capacity.
	arena []uint32
}

// NumClasses is the number of count classes of a sub-shard.
const NumClasses = 4

// classOf returns the count class of a destination with n ≥ 1 in-edges.
func classOf(n int) int { return min(n, NumClasses) - 1 }

// Classes returns the bounds of ss's count classes: class c is
// Dsts[b[c]:b[c+1]], ascending by id. Below the last class every
// destination of class c has c+1 in-edges.
func (ss *SubShard) Classes() (b [NumClasses + 1]int) {
	copy(b[1:], ss.ClassEnds[:])
	b[NumClasses] = len(ss.Dsts)
	return b
}

// Find returns the index in Dsts of destination d, searching each
// class in turn, and whether d is there. A destination listed in two
// classes (only a corrupt sub-shard does that) is found in the first.
func (ss *SubShard) Find(d uint32) (int, bool) {
	b := ss.Classes()
	for c := range NumClasses {
		if k, ok := slices.BinarySearch(ss.Dsts[b[c]:b[c+1]], d); ok {
			return b[c] + k, true
		}
	}
	return 0, false
}

// NumEdges returns the edge count of the sub-shard.
func (ss *SubShard) NumEdges() int { return len(ss.Srcs) }

// MemBytes returns the decoded in-memory footprint of the sub-shard's
// arrays — the unit the shared block cache budgets. For a sub-shard
// decoded into re-used arrays (see sized) that is their capacity, which
// may exceed what this decode filled.
func (ss *SubShard) MemBytes() int64 {
	if ss.arena != nil {
		return int64(cap(ss.arena)+cap(ss.Weights)) * 4
	}
	return int64(len(ss.Dsts)+len(ss.Offsets)+len(ss.Srcs)+len(ss.Weights)) * 4
}

// NumDsts returns the number of distinct destination vertices.
func (ss *SubShard) NumDsts() int { return len(ss.Dsts) }

// AvgInDegree returns d, the average in-degree of the sub-shard's
// destinations (paper Table II), or 0 for an empty sub-shard.
func (ss *SubShard) AvgInDegree() float64 {
	if len(ss.Dsts) == 0 {
		return 0
	}
	return float64(len(ss.Srcs)) / float64(len(ss.Dsts))
}

// encodedSize returns the byte length of a sub-shard in fixed-width CSR
// form — uint32 destination count and edge count, then uint32 per
// destination id and source count, per source id, and per weight — the
// baseline CompressionRatio measures the encoding against.
func encodedSize(dsts, edges int, weighted bool) int64 {
	sz := int64(8) + int64(dsts)*8 + int64(edges)*4
	if weighted {
		sz += int64(edges) * 4
	}
	return sz
}

// EncodeSubShard serializes ss into a FormatVersion blob. The sub-shard
// must be in the order BuildSubShards lays out — count classes bounded
// by ClassEnds, ids strictly ascending within a class, sources
// non-descending within each destination — because the class sizes
// imply the short classes' counts and both sorted lists are
// gap-encoded. Layout:
//
//	uvarint dstCount | uvarint edgeCount | uvarint size of classes 1, 2, 3
//	per class: uvarint dst[first], then uvarint(dst[k]−dst[k−1])   (strictly ascending)
//	per dst of the last class: uvarint(count − 4)
//	per dst: uvarint src[lo], then uvarint(src[t]−src[t−1])         (gap 0 = parallel edge)
//	[edgeCount]float32 weights, little-endian                       (weighted stores only)
//	uint32 CRC32C (Castagnoli) of every byte before it, little-endian
//
// Weights stay fixed-width in a trailing section located at
// len(blob) − 4 − 4·edgeCount, so unweighted decode never touches them
// and weighted decode finds them without scanning the varint region.
func EncodeSubShard(ss *SubShard, weighted bool) []byte {
	nd, ne := len(ss.Dsts), len(ss.Srcs)
	b := ss.Classes()
	// Capacity guess: headers ≤ 25, most gaps and counts 1–2 bytes.
	buf := make([]byte, 0, 29+3*nd+3*ne)
	for _, v := range [...]int{nd, ne, b[1], b[2] - b[1], b[3] - b[2]} {
		buf = appendUvarint(buf, uint32(v))
	}
	for c := range NumClasses {
		buf = appendRun(buf, ss.Dsts[b[c]:b[c+1]])
	}
	for k := b[NumClasses-1]; k < nd; k++ {
		buf = appendUvarint(buf, ss.Offsets[k+1]-ss.Offsets[k]-NumClasses)
	}
	for k := range nd {
		buf = appendRun(buf, ss.Srcs[ss.Offsets[k]:ss.Offsets[k+1]])
	}
	if weighted {
		for i := range ne {
			w := float32(1)
			if ss.Weights != nil {
				w = ss.Weights[i]
			}
			buf = binary.LittleEndian.AppendUint32(buf, float32bits(w))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// castagnoli is the CRC32C table of the blob trailer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DecodeSubShard parses a blob produced by EncodeSubShard into a fresh
// sub-shard. It verifies the trailer and every structural invariant
// (destinations ascending within each class, sources ascending, counts
// summing to the edge count, the varint region ending exactly at the
// weight section), so arbitrary bytes produce an error, never a panic —
// the contract the fuzz target exercises.
func DecodeSubShard(buf []byte, weighted bool) (*SubShard, error) {
	return decodeSubShard(nil, buf, weighted)
}

// decodeSubShard is DecodeSubShard into the arrays of a sub-shard nobody
// references any more (see sized). Every stream of the format is one or
// more lists of a first value followed by gaps, and is decoded by the
// same call-free loop (runs, in varint.go) straight to running sums and
// final positions: the header is five lists of one value, the
// destinations one list per class, the last class's counts one list
// whose sums are its offsets less four per destination, and the sources
// one list per destination. The short classes' offsets follow from
// their sizes. What the sums cannot show — a zero dst gap — is a class
// that fails to ascend, checked in one pass each. The accept/reject set
// is exactly that of the value-at-a-time decoder format_test.go keeps
// as the oracle.
func decodeSubShard(into *SubShard, buf []byte, weighted bool) (*SubShard, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("storage: blob of %d bytes has no checksum", len(buf))
	}
	body := buf[:len(buf)-4]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(buf[len(body):]); got != want {
		return nil, fmt.Errorf("storage: blob checksum %08x, trailer says %08x", got, want)
	}
	var hdr [5]uint32
	p := runs(body, 0, []uint32{1, 2, 3, 4, 5}, hdr[:])
	if p < 0 {
		return nil, fmt.Errorf("storage: blob: truncated header")
	}
	dstCount, edgeCount := int(hdr[0]), int(hdr[1])
	ends := [NumClasses]uint32{hdr[2], hdr[2] + hdr[3], hdr[2] + hdr[3] + hdr[4], hdr[0]}
	if uint64(hdr[2])+uint64(hdr[3])+uint64(hdr[4]) > uint64(dstCount) {
		return nil, fmt.Errorf("storage: blob: classes of %d+%d+%d destinations in %d", hdr[2], hdr[3], hdr[4], dstCount)
	}
	end := len(body)
	if weighted {
		end -= 4 * edgeCount
	}
	// Every destination needs at least one gap byte and every edge one
	// source byte; rejecting impossible counts up front also bounds the
	// allocations below against hostile headers.
	if end < p || end-p < dstCount+edgeCount || edgeCount < dstCount {
		return nil, fmt.Errorf("storage: blob: %d bytes cannot hold %d dsts / %d edges",
			len(buf), dstCount, edgeCount)
	}
	ss := sized(into, dstCount, edgeCount, weighted)
	for c := range NumClasses - 1 {
		ss.ClassEnds[c] = int(ends[c])
	}
	v := body[:end] // varint region; p never legally reaches past it
	b := ss.Classes()
	if p = runs(v, p, ends[:], ss.Dsts); p < 0 {
		return nil, fmt.Errorf("storage: blob: dsts truncated")
	}
	for c := range NumClasses {
		if !ascending(ss.Dsts[b[c]:b[c+1]]) {
			return nil, fmt.Errorf("storage: blob: dsts of class %d not ascending", c+1)
		}
	}
	// Run x of class c < 3 starts at edge first + x·(c+1); the last
	// class's counts, less four each, sum to its offsets less four per
	// destination past the short classes' edges.
	offs, first := ss.Offsets, uint32(0)
	for c := range NumClasses - 1 {
		for x := b[c]; x <= b[c+1]; x++ {
			offs[x] = first + uint32((x-b[c])*(c+1))
		}
		first = offs[b[c+1]]
	}
	long := offs[b[NumClasses-1]+1:]
	if p = runs(v, p, []uint32{uint32(len(long))}, long); p < 0 {
		return nil, fmt.Errorf("storage: blob: counts truncated")
	}
	if n := len(long); n > 0 && uint64(long[n-1])+uint64(first)+uint64(NumClasses*n) != uint64(edgeCount) ||
		n == 0 && int(first) != edgeCount {
		return nil, fmt.Errorf("storage: blob: counts do not sum to %d edges", edgeCount)
	}
	for x := range long {
		long[x] += first + uint32(NumClasses*(x+1))
	}
	if p = runs(v, p, offs[1:], ss.Srcs); p < 0 {
		return nil, fmt.Errorf("storage: blob: sources truncated or past uint32")
	}
	if p != end {
		return nil, fmt.Errorf("storage: blob: %d trailing bytes", end-p)
	}
	if weighted {
		w := body[end:]
		for i := range ss.Weights {
			ss.Weights[i] = float32frombits(binary.LittleEndian.Uint32(w[4*i:]))
		}
	}
	return ss, nil
}

// ascending reports whether a[k-1] < a[k] throughout.
func ascending(a []uint32) bool {
	var bad uint64 // top bit: some a[k] - a[k-1] - 1 was negative
	for k := 1; k < len(a); k++ {
		bad |= uint64(a[k]) - uint64(a[k-1]) - 1
	}
	return bad>>63 == 0
}

// sized returns a sub-shard with room for dsts destinations and edges
// edges: into with its arrays re-sliced when their capacity allows, else
// a new one whose Dsts, Offsets and Srcs are carved from one allocation.
// Re-used arrays are not cleared — the decoder writes every element of
// every array it returns.
func sized(into *SubShard, dsts, edges int, weighted bool) *SubShard {
	n := 2*dsts + 1 + edges
	if into == nil || cap(into.arena) < n || (weighted && cap(into.Weights) < edges) {
		into = &SubShard{arena: make([]uint32, n)}
		if weighted {
			into.Weights = make([]float32, edges)
		}
	}
	a := into.arena[:n]
	into.Dsts, into.Offsets, into.Srcs = a[:dsts:dsts], a[dsts:2*dsts+1:2*dsts+1], a[2*dsts+1:]
	if weighted {
		into.Weights = into.Weights[:edges]
	} else {
		into.Weights = nil
	}
	return into
}

// EncodeSubShardAs serializes ss for a store of the given format
// version. FormatVersion is the only one, so this is EncodeSubShard; the
// parameter lets a caller pass the Meta.Version of the store it holds.
func EncodeSubShardAs(ss *SubShard, weighted bool, _ int) []byte {
	return EncodeSubShard(ss, weighted)
}

// DecodeSubShardInto parses a blob of a store. A nil (empty sub-shard)
// blob decodes to the canonical empty sub-shard. into, when non-nil, is
// a decoded sub-shard no one references any more: the result reuses its
// arrays if they are large enough, and is then into itself. It checks
// that each count class ascends, not that no two classes list one
// destination: an O(n) merge of the classes would cost the decode more
// than the check is worth, since the builder never writes such a blob,
// the checksum rejects a corrupted one and Verify (through Find) a
// crafted one. The engine relies on those for this invariant.
func DecodeSubShardInto(into *SubShard, buf []byte, weighted bool) (*SubShard, error) {
	if len(buf) == 0 {
		return &SubShard{Offsets: []uint32{0}}, nil
	}
	return decodeSubShard(into, buf, weighted)
}
