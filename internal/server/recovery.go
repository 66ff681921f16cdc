package server

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"nxgraph/internal/dynamic"
	"nxgraph/internal/wal"
)

// walDirName is the write-ahead log's directory under a graph's root
// (beside the dsss store directory).
const walDirName = "wal"

// walConfig carries the server's WAL settings into the registry, which
// opens one log per graph.
type walConfig struct {
	disabled bool
	policy   wal.SyncPolicy
	segment  int64
	stats    *wal.Stats
	observe  func(time.Duration)
}

// sweepStaleStoreDirs repairs the store-directory litter a crash during
// a compaction swap leaves behind, before the store is opened. The swap
// sequence is: build dsss.compact (manifest included), rename dsss →
// dsss.prev, rename dsss.compact → dsss, remove dsss.prev — so on open
// exactly one of these states can hold:
//
//	dsss present                → any prev/compact dirs are litter from
//	                              a crash outside the rename window
//	                              (or after a rollback): remove them;
//	dsss absent, prev + compact → crash between the two renames. Roll
//	                              forward: the rebuild is complete
//	                              (renames only start after it), and
//	                              its MANIFEST carries the replay
//	                              point;
//	dsss absent, prev only      → crash after the first rename with no
//	                              completed rebuild to promote: roll
//	                              back.
func sweepStaleStoreDirs(dir string, log *slog.Logger) error {
	cur := filepath.Join(dir, storeDirName)
	prev := filepath.Join(dir, compactPrevName)
	tmp := filepath.Join(dir, compactDirName)
	exists := func(p string) bool {
		st, err := os.Stat(p)
		return err == nil && st.IsDir()
	}
	switch {
	case exists(cur):
		for _, litter := range []string{prev, tmp} {
			if !exists(litter) {
				continue
			}
			if err := os.RemoveAll(litter); err != nil {
				return fmt.Errorf("server: sweep stale %s: %w", litter, err)
			}
			log.Warn("removed stale compaction directory", "dir", litter)
		}
	case exists(tmp) && exists(prev):
		if err := os.Rename(tmp, cur); err != nil {
			return fmt.Errorf("server: roll forward interrupted compaction swap: %w", err)
		}
		if err := os.RemoveAll(prev); err != nil {
			return fmt.Errorf("server: sweep stale %s: %w", prev, err)
		}
		log.Warn("rolled interrupted compaction swap forward", "dir", cur)
	case exists(prev):
		if err := os.Rename(prev, cur); err != nil {
			return fmt.Errorf("server: roll back interrupted compaction swap: %w", err)
		}
		log.Warn("rolled interrupted compaction swap back", "dir", cur)
	}
	return nil
}

// openWAL opens (or creates) the entry's write-ahead log, replays the
// tail beyond the store's MANIFEST position into the delta log, and
// leaves the log accepting appends. Called once during registry open,
// before the entry serves traffic.
func (e *graphEntry) openWAL(cfg walConfig, log *slog.Logger) error {
	if cfg.disabled {
		return nil
	}
	man, err := wal.ReadManifest(filepath.Join(e.dir, storeDirName))
	if err != nil {
		return err
	}
	e.storeGen = man.Generation
	l, err := wal.Open(filepath.Join(e.dir, walDirName), wal.Options{
		Policy:       cfg.policy,
		SegmentBytes: cfg.segment,
		Stats:        cfg.stats,
		ObserveFsync: cfg.observe,
		Commit:       e.commitBatch,
	})
	if err != nil {
		return err
	}
	replayed, err := l.Replay(man.LastAppliedSeq, e.commitBatch)
	if err != nil {
		l.Close()
		return fmt.Errorf("wal replay: %w", err)
	}
	if replayed > 0 {
		log.Info("wal replayed",
			"graph", e.name,
			"batches", replayed,
			"from_seq", man.LastAppliedSeq,
			"pending_deltas", e.deltaCount(),
		)
	}
	e.wal = l
	return nil
}

// commitBatch is the one function that lands an ingest batch in the
// entry's delta log (created lazily here on the first ingest). It is the
// WAL's commit hook and the replay sink: the committer invokes it in
// sequence order after the batch's fsync and before its Append returns,
// so visibility order always equals log order — exactly what replay
// reproduces after a crash. The sequence makes it idempotent: a batch
// the delta log has already seen (replay after a partial GC) is
// skipped. seq 0 is an unsequenced batch, landed directly when the
// entry has no WAL.
//
// deltaMu is held across the pointer read and the append, so a
// concurrent compaction swap (which replaces the log via Advance) can
// never strand an acknowledged batch on the discarded log. The pending
// gauge moves inside the same critical section, and closeDeltas sets
// deltaClosed before its subtraction, so an ingest racing a graph close
// either lands before the close (and is counted into its subtraction)
// or is refused — the gauge cannot leak.
func (e *graphEntry) commitBatch(seq uint64, ops []dynamic.Op) error {
	e.deltaMu.Lock()
	defer e.deltaMu.Unlock()
	if e.deltaClosed {
		// Durable but no longer servable here; the next open replays it.
		return errGraphClosing
	}
	if e.delta == nil {
		d, err := dynamic.NewDeltaLog(e.live().Engine().Store())
		if err != nil {
			return fmt.Errorf("server: graph %q: delta log: %w", e.name, err)
		}
		e.delta = d
	}
	if _, applied := e.delta.AppendBatch(seq, ops); applied && e.stats != nil {
		e.stats.DeltaPending.Add(int64(len(ops)))
	}
	return nil
}

// appendDurable logs ops to the graph's WAL and blocks until the batch
// is durable (per the fsync policy) and visible — the commit hook has
// landed it in the delta log. Only then may the ingest handler ack.
// Without a WAL (Config.DisableWAL) it lands the batch unsequenced, on
// visibility alone. It returns the pending and deferred counts after
// the batch.
func (e *graphEntry) appendDurable(ops []dynamic.Op) (pending, deferred int, err error) {
	if e.wal != nil {
		start := time.Now()
		if _, err = e.wal.Append(ops); err == nil {
			e.stats.WALCommitWait.Observe(time.Since(start).Seconds())
		}
	} else {
		err = e.commitBatch(0, ops)
	}
	if err != nil {
		return 0, 0, err
	}
	e.deltaMu.Lock()
	defer e.deltaMu.Unlock()
	if e.delta == nil {
		return 0, 0, nil
	}
	return e.delta.Pending(), e.delta.Deferred(), nil
}

// closeWAL stops the entry's log after ingestion has been refused
// (closeDeltas), draining any in-flight group commit first.
func (e *graphEntry) closeWAL() error {
	if e.wal == nil {
		return nil
	}
	if err := e.wal.Close(); err != nil && !errors.Is(err, wal.ErrClosed) {
		return fmt.Errorf("server: graph %q: close wal: %w", e.name, err)
	}
	return nil
}
