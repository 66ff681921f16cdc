// Package dynamic adds support for graphs that change over time — the
// extension the paper names as future work ("NXgraph will be extended to
// support dynamic change on graph structure", §VI).
//
// There is one mutation model, the DeltaLog: an ordered log of ops whose
// pending entries compile into an engine.Overlay served *live* on top of
// the base store, and whose Rebuild folds a checkpointed prefix into a
// fresh store in the background (compaction), which a serving layer
// swaps in atomically.
//
// Ops are expressed in the graph's *original index space* (the ids of
// the raw input, which stay stable across rebuilds — dense ids do not,
// because the degreer recompacts). Rebuild streams the base store's
// edges through the ops and re-preprocesses into a fresh store. This
// preserves every DSSS invariant by construction and costs one sharding
// pass, which the paper's own preprocessing already budgets for.
package dynamic

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"nxgraph/internal/diskio"
	"nxgraph/internal/engine"
	"nxgraph/internal/graph"
	"nxgraph/internal/preprocess"
	"nxgraph/internal/storage"
)

// Op is one logged structural change, expressed in the graph's original
// index space (the raw-input ids, which stay stable across rebuilds).
type Op struct {
	// Remove deletes every copy of the edge (Src, Dst); false inserts
	// one copy.
	Remove   bool
	Src, Dst uint64
	// Weight is the inserted edge's weight (ignored for removals and by
	// unweighted stores).
	Weight float32
}

// DeltaLog accumulates structural changes against a base DSSS store as an
// ordered operation log and serves them two ways:
//
//   - Overlay compiles the pending ops into an immutable engine.Overlay
//     snapshot — per-cell sub-shards of inserted edges plus per-cell
//     tombstone keys for removed base edges — so queries observe the
//     mutated graph immediately, with no preprocessing;
//   - Rebuild merges a checkpointed prefix of the log into a fresh store
//     (background compaction), after which Advance rebases the remaining
//     ops onto the new store.
//
// Semantics: ops apply in log order. A removal kills every base copy of
// the pair and every insertion of the pair logged before it; insertions
// logged after a removal survive, so remove-then-re-add behaves as
// expected. Insertions that reference vertices the base store has never
// seen are accepted but deferred — they are invisible to the overlay
// (the engine's dense id space cannot address them) and materialize at
// the next compaction.
//
// All methods are safe for concurrent use.
type DeltaLog struct {
	mu      sync.Mutex
	base    *storage.Store
	idmap   []uint64          // dense id -> original index
	denseOf map[uint64]uint32 // original index -> dense id
	baseOut []uint32
	baseIn  []uint32
	ops     []Op
	// deferred counts insertion ops in ops whose endpoints the base id
	// space cannot address, maintained incrementally so Deferred() (on
	// the ingest ack path) never rescans the log.
	deferred int
	// lastSeq is the WAL sequence of the newest batch applied via
	// AppendBatch. WAL replay after a crash (or after a partial segment
	// GC) re-presents batches the log already holds; the <= lastSeq
	// check makes re-application a no-op, so replay is idempotent.
	lastSeq uint64

	// baseCopies memoizes, per removed dense pair (pairKey), how many
	// base copies the removal kills. The base store is immutable for the
	// life of the log (Advance builds a new log over the new store), so
	// entries never need invalidating and a re-compile after an ack
	// reads only the cells of pairs it has not resolved yet.
	baseCopies map[uint64]uint32

	snap      *overlaySnapshot // compiled cache for the current ops
	snapLen   int              // ops length the cache was compiled at
	snapEmpty bool             // cache compiled to "no servable deltas"
}

// NewDeltaLog prepares an empty log over base.
func NewDeltaLog(base *storage.Store) (*DeltaLog, error) {
	idmap, err := base.IDMap()
	if err != nil {
		return nil, err
	}
	out, in, err := base.Degrees()
	if err != nil {
		return nil, err
	}
	denseOf := make(map[uint64]uint32, len(idmap))
	for id, orig := range idmap {
		denseOf[orig] = uint32(id)
	}
	return &DeltaLog{base: base, idmap: idmap, denseOf: denseOf, baseOut: out, baseIn: in,
		baseCopies: make(map[uint64]uint32)}, nil
}

// Append logs ops in order and returns the new pending count.
func (l *DeltaLog) Append(ops ...Op) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendLocked(ops)
	return len(l.ops)
}

// AppendBatch logs one WAL-sequenced batch. A batch whose sequence is
// not beyond lastSeq is already in the log (a replay duplicate) and is
// skipped — applied reports whether the ops landed. seq 0 marks an
// unsequenced batch (no WAL): it always lands and leaves lastSeq alone.
func (l *DeltaLog) AppendBatch(seq uint64, ops []Op) (pending int, applied bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq != 0 {
		if seq <= l.lastSeq {
			return len(l.ops), false
		}
		l.lastSeq = seq
	}
	l.appendLocked(ops)
	return len(l.ops), true
}

// LastSeq returns the WAL sequence of the newest applied batch.
func (l *DeltaLog) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// appendLocked is the shared append body. Caller holds l.mu.
func (l *DeltaLog) appendLocked(ops []Op) {
	if len(ops) == 0 {
		return
	}
	l.ops = append(l.ops, ops...)
	for _, op := range ops {
		if l.isDeferred(op) {
			l.deferred++
		}
	}
	l.snap, l.snapEmpty = nil, false
}

// isDeferred reports whether op is an insertion naming a vertex outside
// the base id space. Caller holds l.mu.
func (l *DeltaLog) isDeferred(op Op) bool {
	if op.Remove {
		return false
	}
	if _, ok := l.denseOf[op.Src]; !ok {
		return true
	}
	_, ok := l.denseOf[op.Dst]
	return !ok
}

// Add logs insertion of one copy of (src, dst) in original index space.
func (l *DeltaLog) Add(src, dst uint64, w float32) int {
	return l.Append(Op{Src: src, Dst: dst, Weight: w})
}

// Remove logs removal of every copy of (src, dst).
func (l *DeltaLog) Remove(src, dst uint64) int {
	return l.Append(Op{Remove: true, Src: src, Dst: dst})
}

// Pending returns the number of logged, uncompacted ops.
func (l *DeltaLog) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops)
}

// Deferred returns how many pending insertions reference vertices outside
// the base store's id space — accepted but invisible until compaction.
func (l *DeltaLog) Deferred() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.deferred
}

// pairKey packs a dense edge into a map key.
func pairKey(src, dst uint32) uint64 { return uint64(src)<<32 | uint64(dst) }

// Overlay compiles the pending ops into an engine-consumable snapshot.
// It returns (nil, nil) when nothing servable is pending. The snapshot
// is cached until the log changes, so repeated runs between ingests pay
// the compile once. Compilation reads a base cell only to resolve
// removed pairs it has not seen before (how many base copies each one
// kills — see baseCopies), which is why it can fail; that disk I/O —
// and the O(NumVertices) degree-array copies — happen *outside* l.mu, so
// concurrent ingest appends never stall behind a compile. A re-compile
// after an ack is therefore O(pending ops) plus the degree copies, not
// O(base edges of the touched cells).
func (l *DeltaLog) Overlay() (engine.Overlay, error) {
	l.mu.Lock()
	n := len(l.ops)
	if n == 0 {
		l.mu.Unlock()
		return nil, nil
	}
	if l.snapLen == n {
		if l.snapEmpty {
			l.mu.Unlock()
			return nil, nil
		}
		if l.snap != nil {
			snap := l.snap
			l.mu.Unlock()
			return snap, nil
		}
	}
	// Ops are append-only and existing elements never mutate, so a
	// three-index slice of the current prefix is a stable snapshot to
	// compile from without the lock.
	ops := l.ops[:n:n]
	l.mu.Unlock()

	snap, err := l.compile(ops)
	if err != nil {
		return nil, err
	}

	l.mu.Lock()
	if n > l.snapLen { // don't regress a cache a concurrent call built from more ops
		l.snapLen = n
		l.snap, l.snapEmpty = snap, snap == nil
	}
	l.mu.Unlock()
	if snap == nil {
		return nil, nil
	}
	return snap, nil
}

// CachedOverlay returns the compiled snapshot for the current ops if
// one is already cached, without compiling (and so without touching the
// base store). Informational callers — listings, stats — use this so a
// metadata read never pays compile-time disk I/O.
func (l *DeltaLog) CachedOverlay() engine.Overlay {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snap != nil && l.snapLen == len(l.ops) {
		return l.snap
	}
	return nil
}

// compile walks ops (a stable prefix of the log) and builds the overlay
// snapshot. Apart from the baseCopies memo (see resolveBaseCopies) it
// touches only immutable DeltaLog state (denseOf, base degrees, the base
// store) and so runs without l.mu.
func (l *DeltaLog) compile(ops []Op) (*overlaySnapshot, error) {
	// A removal kills every insertion of its pair logged before it, so
	// an insertion survives iff no removal of its pair appears later in
	// the log. Recording each pair's last removal position keeps the
	// walk O(ops) instead of filtering the adds list per removal.
	lastRemove := make(map[uint64]int)
	for idx, op := range ops {
		if !op.Remove {
			continue
		}
		s, sok := l.denseOf[op.Src]
		d, dok := l.denseOf[op.Dst]
		if !sok || !dok {
			continue // pair cannot exist in the base id space
		}
		lastRemove[pairKey(s, d)] = idx
	}
	var adds []graph.Edge // dense ids
	for idx, op := range ops {
		if op.Remove {
			continue
		}
		s, sok := l.denseOf[op.Src]
		d, dok := l.denseOf[op.Dst]
		if !sok || !dok {
			continue // deferred until compaction
		}
		if ri, ok := lastRemove[pairKey(s, d)]; ok && ri > idx {
			continue // cancelled by a later removal
		}
		adds = append(adds, graph.Edge{Src: s, Dst: d, Weight: op.Weight})
	}
	// Only a removal that kills at least one base copy leaves a
	// tombstone; removing an edge that only ever existed as a pending
	// insertion is fully served by dropping that insertion above.
	dead, err := l.resolveBaseCopies(lastRemove)
	if err != nil {
		return nil, err
	}
	if len(adds) == 0 && len(dead) == 0 {
		return nil, nil
	}

	meta := l.base.Meta()
	P := meta.P
	snap := &overlaySnapshot{
		p:      P,
		cells:  make(map[int]*storage.SubShard),
		tcells: make(map[int]*storage.SubShard),
		tombs:  make(map[int][]uint64),
		out:    append([]uint32(nil), l.baseOut...),
		in:     append([]uint32(nil), l.baseIn...),
	}
	if meta.HasTranspose {
		snap.ttombs = make(map[int][]uint64)
	}

	// Tombstones: degree and edge-count accounting, and each replica's
	// per-cell key list (in that replica's own orientation: the
	// transposed replica stores the edge reversed).
	for key, copies := range dead {
		s, d := uint32(key>>32), uint32(key)
		snap.out[s] -= copies
		snap.in[d] -= copies
		snap.deltaEdges -= int64(copies)
		si, di := meta.IntervalOf(s), meta.IntervalOf(d)
		snap.tombs[si*P+di] = append(snap.tombs[si*P+di], engine.TombKey(s, d))
		if meta.HasTranspose {
			snap.ttombs[di*P+si] = append(snap.ttombs[di*P+si], engine.TombKey(d, s))
		}
	}
	for _, m := range []map[int][]uint64{snap.tombs, snap.ttombs} {
		for _, keys := range m {
			slices.Sort(keys)
		}
	}

	// Insertions: the forward replica's non-empty cells, then, when
	// present, the transposed replica's from the reversed edges.
	snap.deltaEdges += int64(len(adds))
	for _, a := range adds {
		snap.out[a.Src]++
		snap.in[a.Dst]++
	}
	keep := func(cells map[int]*storage.SubShard) func(int, *storage.SubShard) error {
		return func(ci int, ss *storage.SubShard) error {
			if ss.NumEdges() > 0 {
				cells[ci] = ss
			}
			return nil
		}
	}
	size := meta.IntervalSize()
	if err := storage.BuildSubShards(adds, size, P, meta.Weighted, keep(snap.cells)); err != nil {
		return nil, err
	}
	if meta.HasTranspose {
		for i, a := range adds {
			adds[i] = graph.Edge{Src: a.Dst, Dst: a.Src, Weight: a.Weight}
		}
		if err := storage.BuildSubShards(adds, size, P, meta.Weighted, keep(snap.tcells)); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// resolveBaseCopies returns, for every removed pair in removed that has
// at least one copy in the base store, that copy count. Counts come from
// the baseCopies memo; pairs not resolved yet are grouped by forward
// cell, each such cell is read once, and every pair is located by two
// binary searches (the destination in Dsts, then the source in that
// destination's ascending Srcs run — parallel edges are an equal run).
// Two concurrent compiles may resolve the same pair; both store the same
// count. The cell reads run without l.mu.
func (l *DeltaLog) resolveBaseCopies(removed map[uint64]int) (map[uint64]uint32, error) {
	meta := l.base.Meta()
	P := meta.P
	dead := make(map[uint64]uint32)
	unresolved := make(map[int][]uint64) // forward cell -> pair keys
	l.mu.Lock()
	for key := range removed {
		copies, ok := l.baseCopies[key]
		if !ok {
			ci := meta.IntervalOf(uint32(key>>32))*P + meta.IntervalOf(uint32(key))
			unresolved[ci] = append(unresolved[ci], key)
		} else if copies > 0 {
			dead[key] = copies
		}
	}
	l.mu.Unlock()
	if len(unresolved) == 0 {
		return dead, nil
	}

	resolved := make(map[uint64]uint32)
	for ci, keys := range unresolved {
		var ss *storage.SubShard
		if meta.SubShards[ci].Edges > 0 {
			var err error
			if ss, err = l.base.ReadSubShard(ci/P, ci%P, false); err != nil {
				return nil, err
			}
		}
		for _, key := range keys {
			resolved[key] = baseCopiesIn(ss, uint32(key>>32), uint32(key))
		}
	}
	l.mu.Lock()
	for key, copies := range resolved {
		l.baseCopies[key] = copies
		if copies > 0 {
			dead[key] = copies
		}
	}
	l.mu.Unlock()
	return dead, nil
}

// baseCopiesIn counts the copies of edge (src, dst) in destination-sorted
// sub-shard ss (nil: an empty cell).
func baseCopiesIn(ss *storage.SubShard, src, dst uint32) uint32 {
	if ss == nil {
		return 0
	}
	k, ok := ss.Find(dst)
	if !ok {
		return 0
	}
	run := ss.Srcs[ss.Offsets[k]:ss.Offsets[k+1]]
	lo, _ := slices.BinarySearch(run, src)
	n := uint32(0)
	for lo+int(n) < len(run) && run[lo+int(n)] == src {
		n++
	}
	return n
}

// overlaySnapshot is the compiled, immutable form of a DeltaLog handed
// to engine runs.
type overlaySnapshot struct {
	p             int
	cells, tcells map[int]*storage.SubShard
	tombs, ttombs map[int][]uint64 // cell -> ascending engine.TombKeys of dead base edges
	out, in       []uint32
	deltaEdges    int64
}

func (s *overlaySnapshot) Cell(i, j int, transpose bool) *storage.SubShard {
	if transpose {
		return s.tcells[i*s.p+j]
	}
	return s.cells[i*s.p+j]
}

func (s *overlaySnapshot) CellTombstones(i, j int, transpose bool) []uint64 {
	if transpose {
		return s.ttombs[i*s.p+j]
	}
	return s.tombs[i*s.p+j]
}

func (s *overlaySnapshot) Degrees() (out, in []uint32) { return s.out, s.in }

func (s *overlaySnapshot) DeltaEdges() int64 { return s.deltaEdges }

// Checkpoint marks the current end of the log for a compaction pass:
// Rebuild folds ops[:mark] into a new store, ops logged afterwards stay
// pending and ride along into Advance.
func (l *DeltaLog) Checkpoint() int {
	mark, _ := l.CheckpointSeq()
	return mark
}

// CheckpointSeq is Checkpoint plus the WAL sequence the mark
// corresponds to, read under one lock so the pair is consistent: every
// sequenced batch at or below seq is inside ops[:mark]. Compaction
// stamps seq into the rebuilt store's MANIFEST as the replay start
// point.
func (l *DeltaLog) CheckpointSeq() (mark int, seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops), l.lastSeq
}

// Rebuild merges the base store with the first mark logged ops and
// writes a fresh DSSS store at dir on disk — the compaction step. The
// base store stays untouched and readable throughout (the scan is
// read-only), so queries keep being served from base+overlay while the
// rebuild runs. ctx aborts the base scan between batches of edges.
//
// The merge applies exactly the overlay's semantics — removals kill all
// base copies of a pair and earlier-logged insertions; later insertions
// survive — and additionally materializes deferred insertions, whose
// brand-new vertices receive dense ids in the rebuilt store.
func (l *DeltaLog) Rebuild(ctx context.Context, mark int, disk *diskio.Disk, dir string, opt preprocess.Options) (*preprocess.Result, error) {
	l.mu.Lock()
	if mark < 0 || mark > len(l.ops) {
		n := len(l.ops)
		l.mu.Unlock()
		return nil, fmt.Errorf("dynamic: checkpoint %d out of range (log has %d ops)", mark, n)
	}
	ops := append([]Op(nil), l.ops[:mark]...)
	l.mu.Unlock()

	// Same one-pass survival rule as compile: an insertion survives iff
	// no removal of its pair is logged after it.
	lastRemove := make(map[[2]uint64]int)
	tombs := make(map[[2]uint64]struct{})
	for idx, op := range ops {
		if op.Remove {
			p := [2]uint64{op.Src, op.Dst}
			lastRemove[p] = idx
			tombs[p] = struct{}{}
		}
	}
	var pending []graph.IndexEdge
	for idx, op := range ops {
		if op.Remove {
			continue
		}
		if ri, ok := lastRemove[[2]uint64{op.Src, op.Dst}]; ok && ri > idx {
			continue
		}
		pending = append(pending, graph.IndexEdge{Src: op.Src, Dst: op.Dst, Weight: op.Weight})
	}

	meta := l.base.Meta()
	merged := make([]graph.IndexEdge, 0, meta.NumEdges+int64(len(pending)))
	var scanned int64
	err := l.base.ForEachEdge(func(src, dst uint32, w float32) error {
		if scanned++; scanned&0xffff == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		e := graph.IndexEdge{Src: l.idmap[src], Dst: l.idmap[dst], Weight: w}
		if _, dead := tombs[[2]uint64{e.Src, e.Dst}]; dead {
			return nil
		}
		merged = append(merged, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged = append(merged, pending...)
	if len(merged) == 0 {
		return nil, fmt.Errorf("dynamic: compaction would produce an empty graph")
	}
	return preprocess.FromIndexEdges(disk, dir, merged, opt)
}

// Advance rebases the log onto newBase (the store a Rebuild produced):
// ops up to mark are considered folded in, later ops carry over as
// pending against the new store. The receiver is left unchanged and
// should be discarded.
func (l *DeltaLog) Advance(mark int, newBase *storage.Store) (*DeltaLog, error) {
	nl, err := NewDeltaLog(newBase)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if mark < 0 || mark > len(l.ops) {
		return nil, fmt.Errorf("dynamic: checkpoint %d out of range (log has %d ops)", mark, len(l.ops))
	}
	// Go through Append so the carried ops are re-classified against the
	// new store's id space (deferred vertices usually materialized).
	nl.Append(l.ops[mark:]...)
	// The carried ops keep their WAL positions: the new log continues
	// deduplicating replay at the same high-water mark.
	nl.lastSeq = l.lastSeq
	return nl, nil
}
