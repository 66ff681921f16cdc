package server

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	nxgraph "nxgraph"
	"nxgraph/internal/blockcache"
	"nxgraph/internal/dynamic"
	"nxgraph/internal/engine"
	"nxgraph/internal/metrics"
	"nxgraph/internal/wal"
)

// errAlreadyOpen marks open() failures caused by a name collision (the
// HTTP layer maps it to 409 instead of 400).
var errAlreadyOpen = errors.New("graph already open")

// errNotOpen marks closeEntry() failures where the registration is no
// longer current (HTTP 404) — distinct from store-close I/O errors.
var errNotOpen = errors.New("graph not open")

// graphEntry is one opened DSSS store in the registry. runMu serializes
// engine executions on the store, and the compaction swap and graph close
// run under it, so neither ever pulls a store out from under a run.
// Distinct graphs run fully in parallel.
//
// uid is unique per registration — cache keys embed it rather than the
// name, so a name rebound to a different store can never hit results
// cached for the previous store, regardless of close/reopen timing.
// The opened graph lives behind an atomic pointer because background
// compaction swaps in a freshly rebuilt store while the entry keeps
// serving: readers take a consistent *nxgraph.Graph via live(), and the
// swap itself happens under runMu so it never races an engine run.
type graphEntry struct {
	name   string
	uid    string
	dir    string
	graph  atomic.Pointer[nxgraph.Graph]
	opt    nxgraph.Options
	opened time.Time

	// cache is the server's shared sub-shard block cache; bcGen is the
	// store generation this entry's current store is keyed under. A
	// compaction swap allocates a fresh generation for the rebuilt store
	// and invalidates the old one under runMu, so a block decoded from
	// the retired store (now dsss.prev) can never be served again.
	cache *blockcache.Cache
	bcGen uint64

	// deltaMu guards delta and deltaClosed (the pointer and flag — the
	// log itself is internally synchronized). The log is created lazily
	// on the first ingest: read-only graphs never pay its id-map and
	// degree-array footprint. Lock order where both are needed: runMu,
	// then deltaMu.
	deltaMu     sync.Mutex
	delta       *dynamic.DeltaLog
	deltaClosed bool
	stats       *metrics.ServerStats

	// wal is the graph's write-ahead log (nil when Config.DisableWAL):
	// handleIngest appends to it and acks only after the batch is
	// durable; its commit hook lands batches in delta in sequence
	// order. storeGen is the served store's compaction generation from
	// its MANIFEST — the next compaction stamps storeGen+1 into the
	// rebuilt store. Both are written at open and (storeGen) by the
	// serialized compaction path.
	wal      *wal.Log
	storeGen uint64

	// compactMu guards compactJob, the entry's one live compaction.
	compactMu  sync.Mutex
	compactJob *Job

	runMu  sync.Mutex
	closed bool
	// busy is the scheduler's dispatch claim: a worker takes a job
	// only after CASing busy, so pool slots never park on runMu behind
	// another worker — same-graph jobs wait in the queue while other
	// graphs' jobs run. (runMu still guards against registry close.)
	busy atomic.Bool
	// draining is set when closure begins, before the job sweep: new
	// submissions are refused and a job that slipped past the sweep
	// refuses to start, so close never waits behind a full engine run
	// born during the close itself.
	draining atomic.Bool
}

// GraphInfo is the JSON view of a registered graph.
type GraphInfo struct {
	Name        string    `json:"name"`
	Dir         string    `json:"dir"`
	NumVertices uint32    `json:"num_vertices"`
	NumEdges    int64     `json:"num_edges"`
	P           int       `json:"p"`
	OpenedAt    time.Time `json:"opened_at"`
	// PendingDeltas is the number of uncompacted ingestion ops; the
	// served edge set is the store plus these.
	PendingDeltas int `json:"pending_deltas,omitempty"`
	// DeltaEdges is the net served edge-count delta of the overlay.
	DeltaEdges int64 `json:"delta_edges,omitempty"`
}

// registry holds the set of opened graphs by name. Store directories
// are tracked too: one dir may be open under at most one name, because
// each store dir has one WAL and one compaction — two entries over one
// dir would append to the same log and swap the same store, each under
// its own runMu.
type registry struct {
	mu     sync.Mutex
	graphs map[string]*graphEntry
	dirs   map[string]string // canonical store dir -> graph name
	seq    int64             // uid generator
	stats  *metrics.ServerStats
	cache  *blockcache.Cache // shared block cache handed to every entry
	walCfg walConfig         // WAL settings applied to every opened graph
	log    *slog.Logger
}

func newRegistry(stats *metrics.ServerStats, cache *blockcache.Cache, walCfg walConfig, log *slog.Logger) *registry {
	if log == nil {
		log = slog.Default()
	}
	return &registry{
		graphs: make(map[string]*graphEntry),
		dirs:   make(map[string]string),
		stats:  stats,
		cache:  cache,
		walCfg: walCfg,
		log:    log,
	}
}

// canonDir canonicalizes a store dir for the dirs index.
func canonDir(dir string) string {
	if abs, err := filepath.Abs(dir); err == nil {
		return abs
	}
	return filepath.Clean(dir)
}

// open opens the DSSS store at dir and registers it under name. Opening
// an already-registered name, or a dir already open under another name,
// fails; close the existing registration first.
func (r *registry) open(name, dir string, opt nxgraph.Options) (*graphEntry, error) {
	if name == "" {
		return nil, fmt.Errorf("server: graph name must not be empty")
	}
	cdir := canonDir(dir)
	check := func() error {
		if _, ok := r.graphs[name]; ok {
			return fmt.Errorf("server: graph %q: %w", name, errAlreadyOpen)
		}
		if other, ok := r.dirs[cdir]; ok {
			return fmt.Errorf("server: store %s: %w as graph %q", dir, errAlreadyOpen, other)
		}
		return nil
	}
	r.mu.Lock()
	err := check()
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// Repair crash litter (an interrupted compaction swap) before the
	// store is touched: the sweep may be the thing that puts the dsss
	// directory back in place.
	if err := sweepStaleStoreDirs(dir, r.log); err != nil {
		return nil, fmt.Errorf("server: open graph %q: %w", name, err)
	}
	g, err := nxgraph.Open(dir, opt)
	if err != nil {
		return nil, fmt.Errorf("server: open graph %q: %w", name, err)
	}
	e := &graphEntry{name: name, dir: dir, opt: opt, opened: time.Now(), stats: r.stats}
	e.cache = r.cache
	e.bcGen = blockcache.NextGeneration()
	e.bind(g)
	e.graph.Store(g)
	// Open the WAL and replay its tail (acked batches beyond the
	// store's MANIFEST position) into the delta log before the entry is
	// visible to traffic.
	if err := e.openWAL(r.walCfg, r.log); err != nil {
		g.Close()
		return nil, fmt.Errorf("server: open graph %q: %w", name, err)
	}
	r.mu.Lock()
	if err := check(); err != nil {
		r.mu.Unlock()
		e.closeWAL()
		g.Close()
		return nil, err
	}
	r.seq++
	e.uid = fmt.Sprintf("%s#%d", name, r.seq)
	r.graphs[name] = e
	r.dirs[cdir] = name
	if r.stats != nil {
		// Published under mu so concurrent open/close cannot store
		// stale gauge values out of order.
		r.stats.GraphsOpen.Store(int64(len(r.graphs)))
	}
	r.mu.Unlock()
	r.log.Info("graph opened",
		"graph", name,
		"dir", dir,
		"uid", e.uid,
		"vertices", g.NumVertices(),
		"edges", g.NumEdges(),
		"p", g.P(),
	)
	return e, nil
}

// get returns the entry for name.
func (r *registry) get(name string) (*graphEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[name]
	return e, ok
}

// list returns info for every registered graph, sorted by name.
func (r *registry) list() []GraphInfo {
	r.mu.Lock()
	entries := make([]*graphEntry, 0, len(r.graphs))
	for _, e := range r.graphs {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	out := make([]GraphInfo, len(entries))
	for i, e := range entries {
		out[i] = e.info()
	}
	return out
}

// live returns the entry's currently served graph. The pointer is
// stable for the caller's use, but long operations that must not span a
// compaction swap (engine runs) additionally hold runMu.
func (e *graphEntry) live() *nxgraph.Graph { return e.graph.Load() }

// bind wires a freshly opened graph to the entry's serving state: the
// delta-overlay provider and the shared block cache under the entry's
// current store generation.
func (e *graphEntry) bind(g *nxgraph.Graph) {
	e.installOverlay(g)
	if e.cache != nil {
		g.Engine().SetBlockCache(e.cache, e.bcGen)
	}
}

// installOverlay binds g's engine to the entry's delta log, so every
// run snapshots the deltas pending at its start.
func (e *graphEntry) installOverlay(g *nxgraph.Graph) {
	g.Engine().SetOverlayProvider(func() (engine.Overlay, error) {
		e.deltaMu.Lock()
		d := e.delta
		e.deltaMu.Unlock()
		if d == nil {
			return nil, nil
		}
		return d.Overlay()
	})
}

// deltaCount returns the number of delta ops acked so far — the value
// folded into cache keys so results computed against different delta
// states never alias (see cacheKey).
func (e *graphEntry) deltaCount() int {
	e.deltaMu.Lock()
	d := e.delta
	e.deltaMu.Unlock()
	if d == nil {
		return 0
	}
	return d.Pending()
}

// deltaLog returns the entry's live delta log (nil before the first
// ingest).
func (e *graphEntry) deltaLog() *dynamic.DeltaLog {
	e.deltaMu.Lock()
	defer e.deltaMu.Unlock()
	return e.delta
}

// closeDeltas refuses further ingestion and returns the entry's pending
// ops to the global gauge. Called on every close path.
func (e *graphEntry) closeDeltas() {
	e.deltaMu.Lock()
	defer e.deltaMu.Unlock()
	if e.deltaClosed {
		return
	}
	e.deltaClosed = true
	if e.delta != nil && e.stats != nil {
		e.stats.DeltaPending.Add(-int64(e.delta.Pending()))
	}
}

func (e *graphEntry) info() GraphInfo {
	g := e.live()
	info := GraphInfo{
		Name:        e.name,
		Dir:         e.dir,
		NumVertices: g.NumVertices(),
		NumEdges:    g.NumEdges(),
		P:           g.P(),
		OpenedAt:    e.opened,
	}
	if d := e.deltaLog(); d != nil {
		info.PendingDeltas = d.Pending()
		// Only report the net edge delta when a snapshot is already
		// compiled — a metadata read must not trigger compilation (which
		// reads base cells to count tombstoned copies).
		if ov := d.CachedOverlay(); ov != nil {
			info.DeltaEdges = ov.DeltaEdges()
		}
	}
	return info
}

// closeEntry removes the given registration and closes its store. It
// no-ops (with an error) if the name has since been rebound to a
// different registration, so a stale DELETE cannot kill a fresh graph.
// It waits for any in-flight run on the graph to finish (callers should
// cancel the graph's jobs first if they want prompt closure). The name
// frees immediately, but the dir index entry is held until the
// in-flight run has drained — otherwise the same store could be
// reopened and run concurrently with the old run's final sub-shard
// batches.
func (r *registry) closeEntry(e *graphEntry) error {
	r.mu.Lock()
	if r.graphs[e.name] != e {
		r.mu.Unlock()
		return fmt.Errorf("server: graph %q: %w", e.name, errNotOpen)
	}
	delete(r.graphs, e.name)
	if r.stats != nil {
		r.stats.GraphsOpen.Store(int64(len(r.graphs)))
	}
	r.mu.Unlock()
	e.runMu.Lock()
	e.closed = true
	e.runMu.Unlock()
	e.closeDeltas()
	err := errors.Join(e.closeWAL(), e.live().Close())
	if e.cache != nil {
		// No run can start on a closed entry, so the generation's blocks
		// are unreachable: free their budget share now.
		e.cache.InvalidateGeneration(e.bcGen)
	}
	r.mu.Lock()
	delete(r.dirs, canonDir(e.dir))
	r.mu.Unlock()
	r.log.Info("graph closed", "graph", e.name, "uid", e.uid)
	return err
}

// closeAll closes every graph (shutdown path). The dir index is cleared
// only after every run has drained, mirroring close.
func (r *registry) closeAll() {
	r.mu.Lock()
	entries := make([]*graphEntry, 0, len(r.graphs))
	for _, e := range r.graphs {
		entries = append(entries, e)
	}
	r.graphs = make(map[string]*graphEntry)
	if r.stats != nil {
		r.stats.GraphsOpen.Store(0)
	}
	r.mu.Unlock()
	for _, e := range entries {
		e.runMu.Lock()
		e.closed = true
		e.runMu.Unlock()
		e.closeDeltas()
		if err := e.closeWAL(); err != nil {
			r.log.Error("wal close failed", "graph", e.name, "error", err.Error())
		}
		e.live().Close()
		if e.cache != nil {
			e.cache.InvalidateGeneration(e.bcGen)
		}
		r.log.Info("graph closed", "graph", e.name, "uid", e.uid)
	}
	r.mu.Lock()
	r.dirs = make(map[string]string)
	r.mu.Unlock()
}
