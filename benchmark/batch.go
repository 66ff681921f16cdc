package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	nxgraph "nxgraph"
)

// batchOptions are the open options of a batch workload's graph handle.
// Warm leaves the block cache unlimited, so after one round every block
// is an L1 hit; cold gives it half the forward decoded edge bytes, a
// working set twice the program's own cache.
func batchOptions(wl workload, bs *builtStore, traced bool) nxgraph.Options {
	opt := baseOptions()
	if wl.cold {
		opt.CacheBytes = bs.decodedFwdBytes / 2
	}
	if !traced {
		opt.TraceSpans = -1
	}
	return opt
}

// batchPass is one timed series of rounds on one graph handle.
type batchPass struct {
	roundMS []float64
	callMS  [3][]float64 // pagerank, wcc, bfs
	iters   [3]int
	edges   int64
	wallS   float64
	// dryRounds counts rounds that read nothing from disk.
	dryRounds int
	last      roundResult
}

var callNames = [3]string{"pagerank", "wcc", "bfs"}

// round runs PageRank, WCC and BFS once: rank-sum, min-fold and hop-min
// kernels all on the clock.
func round(gr *nxgraph.Graph, root uint32, log *spanLog, led *engineLedger, p *batchPass) error {
	op := log.newOp()
	calls := [3]func() (*nxgraph.Result, error){
		func() (*nxgraph.Result, error) { return gr.PageRank(damping, pagerankIters) },
		gr.WCC,
		func() (*nxgraph.Result, error) { return gr.BFS(root) },
	}
	var res [3]*nxgraph.Result
	io0 := gr.IOStats()
	start := time.Now()
	for i, call := range calls {
		t0 := time.Now()
		r, err := call()
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("%s: %w", callNames[i], err)
		}
		res[i] = r
		p.callMS[i] = append(p.callMS[i], t1.Sub(t0).Seconds()*1e3)
		p.iters[i] = r.Iterations
		p.edges += r.EdgesTraversed
		log.add(op, callNames[i], t0, t1)
	}
	end := time.Now()
	log.addOp(op, "round", start, end)
	p.roundMS = append(p.roundMS, end.Sub(start).Seconds()*1e3)
	p.wallS += end.Sub(start).Seconds()
	if gr.IOStats().BytesRead == io0.BytesRead {
		p.dryRounds++
	}
	p.last = roundResult{res[0], res[1], res[2]}
	if led != nil {
		tls := [3]nxgraph.TraceTimeline{}
		for i, r := range res {
			tls[i] = r.Trace.Snapshot()
			led.add(tls[i])
		}
		led.callerUS += end.Sub(start).Microseconds()
		log.setEngine(tls[:]...)
	}
	return nil
}

// runRounds repeats rounds for the given window.
func runRounds(gr *nxgraph.Graph, root uint32, seconds float64, log *spanLog, led *engineLedger) (*batchPass, error) {
	p := &batchPass{}
	for start := time.Now(); time.Since(start).Seconds() < seconds; {
		if err := round(gr, root, log, led, p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// heapSampler watches the live heap over a window: every 100 ms it reads
// how many bytes the most recent garbage collection found live, and the
// window's figure is the median. One forced collection at the end would
// catch serve-mixed at a random point of its compaction cycle (each swap
// empties the result cache), and forcing more would disturb the window.
type heapSampler struct {
	stop, done chan struct{}
	mib        []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(sample)
				h.mib = append(h.mib, float64(sample[0].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// medianMiB stops the sampler and returns the window's live heap.
func (h *heapSampler) medianMiB() float64 {
	close(h.stop)
	<-h.done
	return median(h.mib)
}

func runBatch(cfg runConfig, scratch *scratchDir) (map[string]float64, *tally, error) {
	t := &tally{}
	reps := setupReps
	if cfg.traced {
		reps = 1 // the traced run reports no setup_s; one build feeds the probes
	}
	var (
		setupS []float64
		bs     *builtStore
		gr     *nxgraph.Graph
		root   uint32
		warm   roundResult
	)
	for rep := 0; rep < reps; rep++ {
		if gr != nil {
			gr.Close()
			os.RemoveAll(bs.dir)
		}
		var err error
		if bs, err = buildStore(cfg.wl, cfg.seed, scratch.next("store")); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if gr, err = nxgraph.Open(bs.dir, batchOptions(cfg.wl, bs, false)); err != nil {
			return nil, nil, err
		}
		// The BFS root is the vertex with the most out-edges: it reaches
		// the giant component on every seed, so a round's cost does not
		// depend on the luck of the draw.
		root = bs.byOutDegree[0]
		// Warm-up: one round fills the block cache (or proves it cannot
		// hold the graph) and sizes the engine's pooled buffers.
		p := &batchPass{}
		if err := round(gr, root, nil, nil, p); err != nil {
			return nil, nil, err
		}
		warm = p.last
		setupS = append(setupS, bs.genS+bs.buildS+time.Since(t0).Seconds())
	}
	defer func() {
		if gr != nil {
			gr.Close()
		}
	}()
	fmt.Fprintf(os.Stderr, "benchmark: store %d vertices, %d edges, %d B encoded, %d B decoded forward, cache budget %d B (0 = unlimited)\n",
		bs.numVertices, bs.numEdges, bs.storeBytes, bs.decodedFwdBytes, batchOptions(cfg.wl, bs, false).CacheBytes)

	// Correctness gate, outside the timed window: the warm-up round
	// against the oracle, and this cache shape against the other one bit
	// for bit.
	if err := checkRound(t, bs, root, warm); err != nil {
		return nil, nil, err
	}
	other := cfg.wl
	other.cold = !other.cold
	og, err := nxgraph.Open(bs.dir, batchOptions(other, bs, false))
	if err != nil {
		return nil, nil, err
	}
	op := &batchPass{}
	err = round(og, root, nil, nil, op)
	og.Close()
	if err != nil {
		return nil, nil, err
	}
	t.check(sameBits(warm.pagerank.Attrs, op.last.pagerank.Attrs) &&
		sameBits(warm.wcc.Attrs, op.last.wcc.Attrs) &&
		sameBits(warm.bfs.Attrs, op.last.bfs.Attrs),
		"warm and cold attribute arrays are not bitwise equal")

	v := map[string]float64{}
	if !cfg.traced {
		heap := startHeapSampler()
		p, err := runRounds(gr, root, cfg.seconds, nil, nil)
		v["live_heap_mb"] = heap.medianMiB()
		if err != nil {
			return nil, nil, err
		}
		t.ok(int64(3 * len(p.roundMS)))
		checkDiskUse(t, cfg.wl, p)
		v["setup_s"] = median(setupS)
		v["edges_per_s"] = float64(p.edges) / p.wallS / 1e6
		v["requests_per_s"] = float64(len(p.roundMS)) / p.wallS
		v["latency_ms_p50"] = median(p.roundMS)
		v["latency_ms_mean"] = mean(p.roundMS)
		v["store_bytes_per_edge"] = float64(bs.storeBytes) / float64(bs.numEdges)
		return v, t, nil
	}

	// Per-layer mode. A short untraced pass is the reference the traced
	// pass's overhead is measured against; then the same store is
	// reopened with run tracing on.
	ref, err := runRounds(gr, root, cfg.seconds/3, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	gr.Close()
	if gr, err = nxgraph.Open(bs.dir, batchOptions(cfg.wl, bs, true)); err != nil {
		return nil, nil, err
	}
	if err := round(gr, root, nil, nil, &batchPass{}); err != nil { // warm-up
		return nil, nil, err
	}
	log, led := newSpanLog(), &engineLedger{}
	c0 := gr.CacheStats()
	p, err := runRounds(gr, root, cfg.seconds, log, led)
	if err != nil {
		return nil, nil, err
	}
	c1 := gr.CacheStats()
	t.ok(int64(3 * (len(p.roundMS) + len(ref.roundMS))))
	checkDiskUse(t, cfg.wl, p)
	t.check(led.dropped == 0, "run traces dropped %d spans; the ledger would not add up", led.dropped)

	led.fill(v)
	fillCache(v, c0, c1, led.edges)
	for i, name := range callNames {
		v["algorithms."+name+"_share"] = ratio(sum(p.callMS[i]), sum(p.roundMS))
		v["algorithms."+name+"_iters"] = float64(p.iters[i])
	}
	v["trace.overhead_pct"] = 100 * (median(p.roundMS)/median(ref.roundMS) - 1)
	v["ledger.caller_ms_p50"] = median(p.roundMS)
	v["ledger.caller_ms_p90"] = quantile(p.roundMS, 0.9)
	// What the program's run spans do not cover of the time its callers
	// waited: result set-up and return around engine.Run.
	v["ledger.unaccounted_share"] = 1 - ratio(float64(led.runUS), float64(led.callerUS))
	fillIdle(v, serveOnlyLayer)
	if err := runProbes(cfg, scratch, bs, gr, led, v); err != nil {
		return nil, nil, err
	}
	if err := log.write(cfg.outDir, cfg.wl.name); err != nil {
		return nil, nil, err
	}
	return v, t, nil
}

// checkDiskUse holds a pass to what its workload was chosen for: warm
// rounds read nothing, cold rounds read on every round.
func checkDiskUse(t *tally, wl workload, p *batchPass) {
	if wl.cold {
		t.check(p.dryRounds == 0, "batch-cold: %d of %d rounds read nothing from disk", p.dryRounds, len(p.roundMS))
	} else {
		t.check(p.dryRounds == len(p.roundMS), "batch-warm: %d of %d rounds read from disk", len(p.roundMS)-p.dryRounds, len(p.roundMS))
	}
}

// fillCache writes the block cache rows from a counter delta.
func fillCache(v map[string]float64, c0, c1 nxgraph.CacheStats, edges int64) {
	hits, l2, misses := float64(c1.Hits-c0.Hits), float64(c1.L2Hits-c0.L2Hits), float64(c1.Misses-c0.Misses)
	v["blockcache.l1_hit_ratio"] = ratio(hits, hits+l2+misses)
	v["blockcache.l2_hit_ratio"] = ratio(l2, l2+misses)
	medges := float64(edges) / 1e6
	v["blockcache.evictions_per_medge"] = ratio(float64(c1.Evictions-c0.Evictions), medges)
	v["blockcache.l2_evictions_per_medge"] = ratio(float64(c1.L2Evictions-c0.L2Evictions), medges)
}

// fillIdle writes 0 for the rows a workload's path does not exercise.
func fillIdle(v map[string]float64, rows []metricDecl) {
	for _, d := range rows {
		v[d.Name] = 0
	}
}
