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
)

// Format constants.
const (
	// MetaMagic identifies a DSSS store's meta document.
	MetaMagic = "NXGRAPH-DSSS"
	// FormatV2 is the one store format, written and read: destination
	// and per-destination source lists are gap-encoded as LEB128 varints,
	// weights stay fixed-width in a trailing section (see
	// EncodeSubShardV2). 2.5–4× smaller on disk than fixed-width CSR for
	// typical graphs (see CompressionRatio).
	FormatV2 = 2
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
	if m.Version != FormatV2 {
		// No "storage:" prefix — Open wraps this with the store path.
		return fmt.Errorf("store format version %d found, this build reads only v%d:"+
			" rebuild the store from its edge list with this build's nxpre",
			m.Version, FormatV2)
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

// SubShard is one decoded destination-sorted sub-shard.
//
// For destination Dsts[k], the sources are Srcs[Offsets[k]:Offsets[k+1]]
// (sorted ascending), with parallel Weights when the graph is weighted.
// Offsets ascend, so each destination's edges are one contiguous run.
// Dsts lists each destination once, in the order its decoder was asked
// for: ascending id (IDOrder, the order of the encoding, of every
// builder and of Store.ReadSubShard), or count-class order (ClassOrder,
// what the engine's block cache holds; see ClassEnds).
type SubShard struct {
	Dsts    []uint32
	Offsets []uint32 // len(Dsts)+1
	Srcs    []uint32
	Weights []float32 // nil when unweighted

	// ClassEnds bounds the count classes of a ClassOrder decode: class
	// c < 3 is Dsts[ClassEnds[c-1]:ClassEnds[c]] (from 0 for c = 0), the
	// destinations with exactly c+1 in-edges, and the last class is the
	// rest of Dsts, those with four or more. Each class ascends by id. A
	// sub-shard in id order has ClassEnds zero: its first three classes
	// are empty and the last holds every destination, whatever its count
	// (see Classes).
	ClassEnds [NumClasses - 1]int

	// arena backs Dsts, Offsets and Srcs of a decoded sub-shard, so a
	// decoder handed the sub-shard back (see sized) finds its capacity.
	arena []uint32
}

// Order is the order a decoder lists a sub-shard's destinations in.
type Order uint8

const (
	// IDOrder lists destinations by ascending id, as they are stored.
	IDOrder Order = iota
	// ClassOrder lists the destinations with one in-edge first, then
	// two, then three, then four or more, ascending by id within each
	// class. A gather folds a destination from its own contiguous run
	// whatever the order, so the order is invisible in its results; what
	// it changes is that the fold's branch on a run's length, taken once
	// per destination, goes the same way for long stretches.
	ClassOrder
)

// NumClasses is the number of count classes of ClassOrder.
const NumClasses = 4

// Classes returns the bounds of ss's count classes: class c is
// Dsts[b[c]:b[c+1]], ascending by id. Below the last class every
// destination of class c has c+1 in-edges.
func (ss *SubShard) Classes() (b [NumClasses + 1]int) {
	copy(b[1:], ss.ClassEnds[:])
	b[NumClasses] = len(ss.Dsts)
	return b
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
// baseline CompressionRatio measures the v2 encoding against.
func encodedSize(dsts, edges int, weighted bool) int64 {
	sz := int64(8) + int64(dsts)*8 + int64(edges)*4
	if weighted {
		sz += int64(edges) * 4
	}
	return sz
}

// EncodeSubShardV2 serializes ss into a FormatV2 blob. The sub-shard
// must be in canonical order — destinations strictly ascending, sources
// non-descending within each destination (BuildSubShards, the one builder
// of sub-shards from edges, guarantees this) — because both sorted lists
// are gap-encoded. Layout:
//
//	uvarint dstCount | uvarint edgeCount
//	uvarint dst[0], then uvarint(dst[k]−dst[k−1])        (strictly ascending)
//	[dstCount]uvarint per-dst source counts
//	per dst: uvarint src[lo], then uvarint(src[t]−src[t−1])  (gap 0 = parallel edge)
//	[edgeCount]float32 weights, little-endian             (weighted stores only)
//
// Weights stay fixed-width in a trailing section located at
// len(blob) − 4·edgeCount, so unweighted decode never touches them and
// weighted decode finds them without scanning the varint region.
func EncodeSubShardV2(ss *SubShard, weighted bool) []byte {
	nd, ne := len(ss.Dsts), len(ss.Srcs)
	// Capacity guess: headers ≤ 10, most gaps and counts 1–2 bytes.
	buf := make([]byte, 0, 10+3*nd+3*ne)
	buf = appendUvarint(buf, uint32(nd))
	buf = appendUvarint(buf, uint32(ne))
	prev := uint32(0)
	for k, d := range ss.Dsts {
		if k == 0 {
			buf = appendUvarint(buf, d)
		} else {
			buf = appendUvarint(buf, d-prev)
		}
		prev = d
	}
	for k := range ss.Dsts {
		buf = appendUvarint(buf, ss.Offsets[k+1]-ss.Offsets[k])
	}
	for k := range ss.Dsts {
		lo, hi := ss.Offsets[k], ss.Offsets[k+1]
		prev = 0
		for t := lo; t < hi; t++ {
			s := ss.Srcs[t]
			if t == lo {
				buf = appendUvarint(buf, s)
			} else {
				buf = appendUvarint(buf, s-prev)
			}
			prev = s
		}
	}
	if weighted {
		off := len(buf)
		buf = append(buf, make([]byte, 4*ne)...)
		for i := 0; i < ne; i++ {
			w := float32(1)
			if ss.Weights != nil {
				w = ss.Weights[i]
			}
			binary.LittleEndian.PutUint32(buf[off+4*i:], float32bits(w))
		}
	}
	return buf
}

// DecodeSubShardV2 parses a blob produced by EncodeSubShardV2 into a
// fresh sub-shard in id order. It validates every structural invariant
// (monotone destinations, monotone sources, counts summing to the edge
// count, the varint region ending exactly at the weight section), so
// arbitrary bytes produce an error, never a panic — the contract the
// fuzz target exercises.
func DecodeSubShardV2(buf []byte, weighted bool) (*SubShard, error) {
	return decodeSubShardV2(nil, buf, weighted, IDOrder)
}

// decodeSubShardV2 is DecodeSubShardV2 into the arrays of a sub-shard
// nobody references any more (see sized), listing its destinations in
// the given order. Every stream of the format is one or more lists of a
// first value followed by gaps, and is decoded by the same call-free
// loop (runs, in varint.go) straight to running sums: the header is two
// lists of one value, the destinations one list, the counts one list
// whose sums are the id-order offsets, and the sources one list per
// destination. What the sums cannot show — a zero dst gap, a zero count
// — is an array that fails to ascend, checked in one pass each. The
// accept/reject set is exactly that of the value-at-a-time decoder this
// replaced, which format_v2_test.go keeps as the oracle, in either
// order.
//
// In class order the decode needs no memory beyond the sub-shard's own
// arrays. The destinations decode into the head of Srcs, which holds
// one source per destination and is free until the sources decode, and
// classify copies them into Dsts in class order. The sources decode
// with Offsets still in id order: runs sends each list to the next run
// of its class, so every source (and weight) is written once, at its
// final index. Last, classOffsets rewrites Offsets in class order in
// place.
func decodeSubShardV2(into *SubShard, buf []byte, weighted bool, order Order) (*SubShard, error) {
	var hdr [2]uint32
	p := runs(buf, 0, []uint32{1, 2}, nil, hdr[:])
	if p < 0 {
		return nil, fmt.Errorf("storage: v2 blob: truncated dst or edge count")
	}
	dstCount, edgeCount := int(hdr[0]), int(hdr[1])
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
	ss := sized(into, dstCount, edgeCount, weighted)
	ss.ClassEnds = [NumClasses - 1]int{}
	ids := ss.Dsts // the destinations in id order
	if order == ClassOrder {
		ids = ss.Srcs[:dstCount]
	}
	v := buf[:end] // varint region; p never legally reaches past it
	one := hdr[:1] // the ends of one list of dstCount values
	if p = runs(v, p, one, nil, ids); p < 0 || !ascending(ids) {
		return nil, fmt.Errorf("storage: v2 blob: dsts truncated or not ascending")
	}
	// A destination is listed only if it has sources; rejecting a zero
	// count keeps the encoding bijective, and offsets that ascend from 0
	// to edgeCount are what lets the source lists be decoded by them.
	offs := ss.Offsets
	offs[0] = 0
	if p = runs(v, p, one, nil, offs[1:]); p < 0 || !ascending(offs) || int(offs[dstCount]) != edgeCount {
		return nil, fmt.Errorf("storage: v2 blob: counts truncated, zero, or not summing to %d edges", edgeCount)
	}
	var route *[NumClasses]uint32 // nil: each source list follows the one before
	var first [NumClasses]uint32  // each class's first edge
	if order == ClassOrder {
		first = ss.classify(ids)
		r := first
		route = &r
	}
	if p = runs(v, p, offs[1:], route, ss.Srcs); p < 0 {
		return nil, fmt.Errorf("storage: v2 blob: sources truncated or past uint32")
	}
	if p != end {
		return nil, fmt.Errorf("storage: v2 blob: %d trailing bytes", end-p)
	}
	if weighted {
		w, next := buf[end:], first // each weight run goes where its source run went
		for k := range dstCount {
			n, at := offs[k+1]-offs[k], offs[k]
			if route != nil {
				c := min(n, NumClasses) - 1
				at, next[c] = next[c], next[c]+n
			}
			for t := range n {
				ss.Weights[at+t] = float32frombits(binary.LittleEndian.Uint32(w[4*t:]))
			}
			w = w[4*n:]
		}
	}
	if order == ClassOrder {
		ss.classOffsets(first)
	}
	return ss, nil
}

// classify copies ids, the destinations in id order, into ss.Dsts in
// count-class order, their counts read from ss.Offsets (still in id
// order, validated: ascending from 0), and records ClassEnds. It
// returns where each class's first run starts in Srcs: class c's runs
// are c+1 edges long below the last class.
func (ss *SubShard) classify(ids []uint32) (first [NumClasses]uint32) {
	offs := ss.Offsets
	var n [NumClasses]int
	for k := range ids {
		n[min(offs[k+1]-offs[k], NumClasses)-1]++
	}
	var next [NumClasses]int // the next free index of each class in Dsts
	for c := 1; c < NumClasses; c++ {
		next[c] = next[c-1] + n[c-1]
		first[c] = first[c-1] + uint32(n[c-1]*c)
		ss.ClassEnds[c-1] = next[c]
	}
	for k, d := range ids {
		c := min(offs[k+1]-offs[k], NumClasses) - 1
		ss.Dsts[next[c]] = d
		next[c]++
	}
	return first
}

// classOffsets rewrites ss.Offsets from id order to the class order of
// Dsts, in place; first is where each class's runs start (classify).
// The last class's offsets come from its runs in id order, walked from
// the end: the destination at id-order index k lands at an index no
// lower than k, so each offset is written only after it was read. A
// short class's offsets then follow from its bounds: run x of class
// c < 3 starts at first[c] + x·(c+1).
func (ss *SubShard) classOffsets(first [NumClasses]uint32) {
	offs := ss.Offsets
	n := len(offs) - 1
	x, hi, e := n, offs[n], offs[n]
	for k := n - 1; k >= 0; k-- {
		lo := offs[k]
		if hi-lo >= NumClasses {
			e -= hi - lo
			x--
			offs[x] = e
		}
		hi = lo
	}
	b := ss.Classes()
	for c := range NumClasses - 1 {
		for x := b[c]; x < b[c+1]; x++ {
			offs[x] = first[c] + uint32((x-b[c])*(c+1))
		}
	}
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
// version. FormatV2 is the only one, so this is EncodeSubShardV2; the
// parameter lets a caller pass the Meta.Version of the store it holds.
func EncodeSubShardAs(ss *SubShard, weighted bool, _ int) []byte {
	return EncodeSubShardV2(ss, weighted)
}

// DecodeSubShardInto parses a blob of a store, listing its destinations
// in the given order. A nil (empty sub-shard) blob decodes to the
// canonical empty sub-shard. into, when non-nil, is
// a decoded sub-shard no one references any more: the result reuses its
// arrays if they are large enough, and is then into itself.
func DecodeSubShardInto(into *SubShard, buf []byte, weighted bool, order Order) (*SubShard, error) {
	if len(buf) == 0 {
		return &SubShard{Offsets: []uint32{0}}, nil
	}
	return decodeSubShardV2(into, buf, weighted, order)
}
