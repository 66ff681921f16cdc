package server

import (
	"context"
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"time"

	nxgraph "nxgraph"
	"nxgraph/internal/blockcache"
	"nxgraph/internal/preprocess"
	"nxgraph/internal/wal"
)

// Store directory names under a graph's root dir. The served store
// always lives at storeDirName; compaction builds into compactDirName
// and swaps via compactPrevName, so a crash mid-swap leaves at most one
// recoverable rename to undo by hand.
const (
	storeDirName    = "dsss"
	compactDirName  = "dsss.compact"
	compactPrevName = "dsss.prev"
)

// executeCompact drives a compaction job to a terminal state through
// the same Running and terminal transitions as an algorithm run.
func (s *scheduler) executeCompact(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	if !s.begin(j, time.Now(), cancel) { // cancelled while queued
		return
	}
	s.stats.CompactionsStarted.Add(1)
	s.log.Info("compaction started", "job", j.ID, "graph", j.Graph,
		"pending_deltas", j.entry.deltaCount())

	var ph compactPhases
	res, err := s.runCompaction(ctx, j.entry, &ph)

	now := time.Now()
	switch s.finish(j, now, res, err, false) {
	case Done:
		s.stats.CompactionsCompleted.Add(1)
		attrs := []any{"job", j.ID, "graph", j.Graph,
			"duration_ms", now.Sub(j.started).Milliseconds(),
			"rebuild_ms", ph.rebuild.Milliseconds(), "swap_ms", ph.swap.Milliseconds()}
		if res != nil {
			attrs = append(attrs, "compacted_ops", int64(res.Stats["compacted_ops"]))
		}
		s.log.Info("compaction completed", attrs...)
	case Cancelled:
		s.log.Info("compaction cancelled", "job", j.ID, "graph", j.Graph)
	default:
		s.stats.CompactionsFailed.Add(1)
		s.log.Error("compaction failed", "job", j.ID, "graph", j.Graph, "error", err.Error())
	}
}

// compactPhases times the two phases of a compaction that folded deltas:
// the rebuild, served concurrently with queries, and the swap, which
// holds runMu so queries wait. Each is also observed in its histogram.
type compactPhases struct {
	rebuild, swap time.Duration
}

// runCompaction folds the entry's checkpointed delta prefix into a
// rebuilt store and atomically swaps it in, recording phase times in ph.
//
// Phases:
//
//  1. checkpoint — mark the log; ops ingested afterwards stay pending
//     and survive the swap (Advance rebases them onto the new store);
//  2. rebuild — stream base + deltas into a fresh store directory. The
//     base store is only read, so queries (base + overlay) keep being
//     served concurrently; the graph's run slot is never claimed. A
//     MANIFEST (store generation + the WAL sequence the checkpoint
//     covers) is written into the rebuilt directory *before* the swap,
//     so the rename that publishes the store atomically publishes its
//     replay start point with it;
//  3. swap — under runMu (no engine run in flight): close the old
//     graph, rotate directories (dsss → dsss.prev, dsss.compact →
//     dsss), reopen, rebase the delta log, and purge the graph's
//     result-cache entries before releasing the lock, so no stale
//     result can be served or inserted after the swap. WAL segments
//     the new manifest makes redundant are garbage-collected last —
//     a crash anywhere in between merely replays batches the
//     sequence-number dedup skips.
//
// On any swap failure the directories are rolled back and the old store
// reopened — the graph keeps serving base + overlay as if the
// compaction had never run.
func (s *scheduler) runCompaction(ctx context.Context, e *graphEntry, ph *compactPhases) (*Result, error) {
	start := time.Now()
	delta := e.deltaLog()
	var mark int
	var markSeq uint64
	if delta != nil {
		mark, markSeq = delta.CheckpointSeq()
	}
	if mark == 0 {
		return &Result{
			Algo:      "compact",
			Stats:     map[string]float64{"compacted_ops": 0},
			ElapsedMS: time.Since(start).Milliseconds(),
		}, nil
	}

	g := e.live()
	st := g.Engine().Store()
	meta := st.Meta()
	disk := st.Disk()
	tmpAbs := disk.Path(compactDirName)
	os.RemoveAll(tmpAbs)
	res, err := delta.Rebuild(ctx, mark, disk, compactDirName, preprocess.Options{
		Name:      meta.Name,
		P:         meta.P,
		Weighted:  meta.Weighted,
		Transpose: meta.HasTranspose,
	})
	if err != nil {
		os.RemoveAll(tmpAbs)
		return nil, err
	}
	newVerts, newEdges := res.NumVertices, res.NumEdges
	// The rebuilt store is reopened below at its final path; a disk-based
	// run creates its scratch attribute and hub files in the store's
	// directory by path, which a store whose directory was renamed
	// underneath it would no longer find.
	res.Store.Close()
	// Flush the rebuilt store to stable storage while it is still
	// private: the preprocess write path never fsyncs, and once the swap
	// below durably GCs the WAL prefix that produced these edges, a
	// power loss would have nothing left to rebuild them from.
	if err := syncTree(tmpAbs); err != nil {
		os.RemoveAll(tmpAbs)
		return nil, fmt.Errorf("server: graph %q: sync rebuilt store: %w", e.name, err)
	}
	// Stamp the rebuilt store with its WAL position while it is still
	// private: once the swap renames publish it, replay-on-open must
	// know that batches up to markSeq are already folded into its
	// edges.
	if err := wal.WriteManifest(tmpAbs, wal.Manifest{
		Generation:     e.storeGen + 1,
		LastAppliedSeq: markSeq,
	}); err != nil {
		os.RemoveAll(tmpAbs)
		return nil, fmt.Errorf("server: graph %q: write manifest: %w", e.name, err)
	}
	ph.rebuild = time.Since(start)
	s.stats.CompactionRebuild.Observe(ph.rebuild.Seconds())
	if err := ctx.Err(); err != nil {
		os.RemoveAll(tmpAbs)
		return nil, err
	}

	e.runMu.Lock()
	locked := time.Now()
	defer func() {
		e.runMu.Unlock()
		ph.swap = time.Since(locked)
		s.stats.CompactionSwap.Observe(ph.swap.Seconds())
	}()
	if e.closed || e.draining.Load() {
		os.RemoveAll(tmpAbs)
		return nil, fmt.Errorf("server: graph %q closed during compaction", e.name)
	}
	cur := disk.Path(storeDirName)
	prev := disk.Path(compactPrevName)
	os.RemoveAll(prev)
	e.live().Close()
	if err := os.Rename(cur, prev); err != nil {
		os.RemoveAll(tmpAbs)
		return nil, errors.Join(err, e.reopenLocked())
	}
	if err := os.Rename(tmpAbs, cur); err != nil {
		err = errors.Join(err, os.Rename(prev, cur))
		os.RemoveAll(tmpAbs)
		return nil, errors.Join(err, e.reopenLocked())
	}
	ng, err := nxgraph.Open(e.dir, e.opt)
	if err == nil {
		// Purge the graph's cache entries BEFORE installing the rebased
		// log: submit's cache-hit path reads the delta count without
		// runMu, so once the rebased log (with its reset pending count)
		// is visible, a new submission could build a key that aliases a
		// pre-compaction entry. Purging first closes that window —
		// nothing can repopulate the old entries while we hold runMu
		// (all cache puts happen under it), and if the swap still rolls
		// back below, a cold cache is merely a wasted purge.
		s.cache.invalidateGraph(e.uid)
		e.deltaMu.Lock()
		nd, aerr := delta.Advance(mark, ng.Engine().Store())
		if aerr == nil {
			e.delta = nd
		}
		e.deltaMu.Unlock()
		if aerr != nil {
			ng.Close()
		}
		err = aerr
	}
	if err != nil {
		// Roll the directories back, resume serving the old store, and
		// drop the orphaned rebuild — it is a full store-sized copy that
		// would otherwise sit on disk until some later compaction.
		err = errors.Join(err, os.Rename(cur, tmpAbs), os.Rename(prev, cur), e.reopenLocked())
		os.RemoveAll(tmpAbs)
		return nil, err
	}
	// Key the rebuilt store under a fresh block-cache generation and
	// retire the old one. We hold runMu, so no run is in flight and no
	// new run can observe the old generation: blocks decoded from the
	// store now at dsss.prev are unreachable the moment the swap
	// publishes. Ingestion-only changes never reach this path — base
	// sub-shards are immutable under the delta overlay, so warm blocks
	// survive edge ingest and only a real store swap evicts them.
	oldGen := e.bcGen
	e.bcGen = blockcache.NextGeneration()
	e.bind(ng)
	e.graph.Store(ng)
	if e.cache != nil {
		e.cache.InvalidateGeneration(oldGen)
	}
	os.RemoveAll(prev)
	e.storeGen++
	// Make the swap renames durable before GC'ing the WAL prefix: until
	// the graph root's directory entries are on stable storage, a power
	// loss can roll the root back to the old store, and the only thing
	// that can re-create the compacted batches is the very prefix the GC
	// removes. On sync failure keep the segments — replay dedups them.
	if err := (wal.OSFS{}).SyncDir(disk.Root()); err != nil {
		s.log.Warn("graph root sync failed; keeping wal segments",
			"graph", e.name, "error", err.Error())
	} else if e.wal != nil {
		// The published manifest covers every batch up to markSeq, so WAL
		// segments holding only those batches are dead weight: drop them.
		// Failure is cosmetic — replay dedups whatever survives.
		if err := e.wal.TruncateThrough(markSeq); err != nil {
			s.log.Warn("wal gc failed", "graph", e.name, "error", err.Error())
		}
	}
	s.stats.DeltaPending.Add(-int64(mark))

	pendingAfter := 0
	if d := e.deltaLog(); d != nil {
		pendingAfter = d.Pending()
	}
	return &Result{
		Algo: "compact",
		Stats: map[string]float64{
			"compacted_ops": float64(mark),
			"num_vertices":  float64(newVerts),
			"num_edges":     float64(newEdges),
			"pending_after": float64(pendingAfter),
		},
		ElapsedMS: time.Since(start).Milliseconds(),
	}, nil
}

// syncTree fsyncs every regular file under root and then the
// directories themselves (children before parents), putting a freshly
// rebuilt store on stable storage before its WAL coverage is dropped.
func syncTree(root string) error {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d iofs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs = append(dirs, path)
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		serr := f.Sync()
		if cerr := f.Close(); serr == nil {
			serr = cerr
		}
		return serr
	})
	if err != nil {
		return err
	}
	for i := len(dirs) - 1; i >= 0; i-- {
		if err := (wal.OSFS{}).SyncDir(dirs[i]); err != nil {
			return err
		}
	}
	return nil
}

// reopenLocked restores the entry's graph from its directory after a
// failed swap. Caller holds runMu. If even the reopen fails the entry
// is marked closed: jobs fail fast instead of touching a dead store.
// The block-cache generation is kept: the rollback restored the same
// store content, so cached blocks remain valid.
func (e *graphEntry) reopenLocked() error {
	g, err := nxgraph.Open(e.dir, e.opt)
	if err != nil {
		e.closed = true
		return fmt.Errorf("server: graph %q unrecoverable after failed compaction swap: %w", e.name, err)
	}
	e.bind(g)
	e.graph.Store(g)
	return nil
}
