package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	nxgraph "nxgraph"
	"nxgraph/internal/graph"
	"nxgraph/internal/refalgo"
	"nxgraph/internal/server"
	"nxgraph/internal/trace"
	"nxgraph/internal/wal"
)

// Serve traffic, fixed. Each query client is a closed loop: it posts a
// burst of jobs, waits for every answer, then posts the next burst —
// callers that wait for replies, with a queue deep enough for the
// scheduler to coalesce.
const (
	graphName = "g"
	burstSize = 16 // jobs per burst, all of one algorithm
	hotRoots  = 4  // of which this many come from a fixed hot set
	// pagerankEvery adds one global PageRank with a full-array fetch
	// after every this many bursts.
	pagerankEvery = 8
	pollSleep     = time.Millisecond
	// ingestInterval is the fixed send schedule of the ingest client: one
	// batch of ingestAdds+ingestRemoves ops per interval, which at the
	// default threshold of 8192 pending ops trips a compaction about
	// every 4.3 s.
	ingestInterval = 67 * time.Millisecond
	// compactEvery is the server's default DeltaThreshold, which the
	// benchmark leaves at its default.
	compactEvery = 8192
	// resultCacheBytes and retainBytes budget the result cache and the
	// results retained for finished jobs. serve-read fills both within a
	// few seconds, so its heap does not depend on how many queries the
	// run completed; the cache still holds the ~190 answers that arrive
	// between two uses of the repeated PageRank, so hot entries are never
	// evicted and the hit count stays the constructed one.
	resultCacheBytes = 128 << 20
	retainBytes      = 64 << 20
	// maxChecked caps how many sampled answers (1 in 16) are re-checked
	// against the oracle after the window.
	maxChecked = 16
)

// querySpans name the five spans that tile a query's latency: POST sent
// → accepted → started → finished → result GET sent → body read.
var querySpans = [5]string{"submit", "queue_wait", "run", "poll_lag", "result_fetch"}

// burstAlgos is the cycle of burst algorithms: three ppr, one bfs.
var burstAlgos = [4]string{"ppr", "ppr", "ppr", "bfs"}

// jobSnapshot is the part of the server's job JSON the benchmark reads.
type jobSnapshot struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	CacheHit    bool       `json:"cache_hit"`
	FusedWidth  int        `json:"fused_width"`
	Error       string     `json:"error"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
	FinishedAt  *time.Time `json:"finished_at"`
}

type vertexValue struct {
	Vertex uint32  `json:"vertex"`
	Value  float64 `json:"value"`
}

// query is one job from POST sent to result body read.
type query struct {
	algo     string
	root     uint32
	hot      bool
	id       string
	snap     jobSnapshot
	postAt   time.Time // POST sent
	fetchAt  time.Time // result GET sent
	doneAt   time.Time // result body read
	top      []vertexValue
	fullSize int // bytes of a full-array result body
}

func (q *query) latencyMS() float64 { return q.doneAt.Sub(q.postAt).Seconds() * 1e3 }

// serveEnv is one running in-process server over one built store.
type serveEnv struct {
	bs   *builtStore
	srv  *server.Server
	ts   *httptest.Server
	hot  []uint32 // the fixed hot set
	cold []uint32 // seeded permutation of every other vertex
}

func openServe(cfg runConfig, bs *builtStore, traced bool) (*serveEnv, error) {
	opt := baseOptions()
	if !traced {
		opt.TraceSpans = -1
	}
	srv := server.New(server.Config{
		Workers:      threads,
		CacheBytes:   resultCacheBytes,
		RetainBytes:  retainBytes,
		GraphOptions: opt,
		DisableWAL:   !cfg.wl.ingest,
		WALSync:      wal.SyncBatch,
		Logger:       slog.New(slog.DiscardHandler),
	})
	if err := srv.OpenGraph(graphName, bs.dir, opt); err != nil {
		srv.Close()
		return nil, err
	}
	env := &serveEnv{bs: bs, srv: srv, ts: httptest.NewServer(srv.Handler())}
	// Hot roots are the best-connected vertices; the rest are shuffled
	// by the seed and handed out once each, so only hot roots can hit
	// the result cache.
	vs := append([]uint32(nil), bs.byOutDegree...)
	env.hot, env.cold = vs[:hotRoots], vs[hotRoots:]
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(env.cold), func(i, j int) { env.cold[i], env.cold[j] = env.cold[j], env.cold[i] })
	return env, nil
}

func (e *serveEnv) close() {
	e.ts.Close()
	e.srv.Close()
}

// httpClient is one client's connection plus its failure count.
type httpClient struct {
	base string
	hc   *http.Client
	t    tally
}

func (e *serveEnv) newClient() *httpClient {
	return &httpClient{base: e.ts.URL, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a JSON reply into out (when non-nil).
// Any status other than want counts as a failed operation.
func (c *httpClient) do(method, path string, body any, want int, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.fail("%s %s: %v", method, path, err)
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.fail("%s %s: read body: %v", method, path, err)
		return 0, err
	}
	if resp.StatusCode != want {
		c.t.fail("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(raw))
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	c.t.ok(1)
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.fail("%s %s: decode: %v", method, path, err)
			return 0, err
		}
	}
	return len(raw), nil
}

// submit posts one job and, when the reply says it is already done (a
// result-cache hit), reads the answer at once.
func (c *httpClient) submit(q *query) error {
	params := map[string]any{}
	switch q.algo {
	case "ppr":
		params["root"], params["iters"] = q.root, pagerankIters
	case "bfs":
		params["root"] = q.root
	case "pagerank":
		params["iters"] = pagerankIters
	}
	q.postAt = time.Now()
	_, err := c.do("POST", "/v1/graphs/"+graphName+"/jobs", map[string]any{"algo": q.algo, "params": params}, http.StatusAccepted, &q.snap)
	if err != nil {
		return err
	}
	q.id = q.snap.ID
	if q.snap.State == "done" {
		return c.fetch(q)
	}
	return nil
}

// poll refreshes q's snapshot and fetches the answer once it is done.
func (c *httpClient) poll(q *query) error {
	if _, err := c.do("GET", "/v1/jobs/"+q.id, nil, http.StatusOK, &q.snap); err != nil {
		return err
	}
	switch q.snap.State {
	case "done":
		return c.fetch(q)
	case "failed", "cancelled":
		c.t.fail("job %s %s: %s", q.id, q.snap.State, q.snap.Error)
		return fmt.Errorf("job %s %s", q.id, q.snap.State)
	}
	return nil
}

// fetch reads q's answer: the ten best vertices, or for the global
// PageRank the whole array.
func (c *httpClient) fetch(q *query) error {
	var body struct {
		Top    []vertexValue `json:"top"`
		Values []float64     `json:"values"`
	}
	path := "/v1/jobs/" + q.id + "/result"
	if q.algo != "pagerank" {
		path += "?top=10"
	}
	q.fetchAt = time.Now()
	n, err := c.do("GET", path, nil, http.StatusOK, &body)
	q.doneAt = time.Now()
	if err != nil {
		return err
	}
	q.top = body.Top
	if q.algo == "pagerank" {
		q.fullSize = n
		total := 0.0
		for _, x := range body.Values {
			total += x
		}
		c.t.check(math.Abs(total-1) <= 1e-9, "served pagerank sums to %v, not 1", total)
	}
	return nil
}

// runBurst posts the queries in order, then sweeps the unfinished ones
// with a short sleep between sweeps until every answer is read.
func (c *httpClient) runBurst(qs []*query) error {
	for _, q := range qs {
		if err := c.submit(q); err != nil {
			return err
		}
	}
	for {
		open := 0
		for _, q := range qs {
			if !q.doneAt.IsZero() {
				continue
			}
			if err := c.poll(q); err != nil {
				return err
			}
			if q.doneAt.IsZero() {
				open++
			}
		}
		if open == 0 {
			return nil
		}
		time.Sleep(pollSleep)
	}
}

// servePass is what one window of traffic produced.
type servePass struct {
	queries      []*query
	elapsedS     float64
	edges        int64
	ackMS        []float64     // ingest acks, from each batch's scheduled send
	compactionMS []float64     // how long each compaction ran
	pending      []float64     // pending deltas seen at burst starts
	sent         []ingestBatch // acked ingest batches
	fail         tally
}

// queryClient is one closed loop: bursts of burstSize jobs of one
// algorithm cycling ppr, ppr, ppr, bfs, with a global PageRank after
// every pagerankEvery-th burst.
func (e *serveEnv) queryClient(c *httpClient, fresh []uint32, until time.Time, traced bool, led *engineLedger, rng *rand.Rand, p *servePass, mu *sync.Mutex) error {
	var mine []*query
	var pending []float64
	defer func() {
		mu.Lock()
		p.queries = append(p.queries, mine...)
		p.pending = append(p.pending, pending...)
		mu.Unlock()
	}()
	for n := 0; time.Now().Before(until); n++ {
		if traced {
			var info struct {
				Pending int `json:"pending_deltas"`
			}
			if _, err := c.do("GET", "/v1/graphs/"+graphName, nil, http.StatusOK, &info); err != nil {
				return err
			}
			pending = append(pending, float64(info.Pending))
		}
		if len(fresh) < burstSize-hotRoots {
			break // a graph this small (-quick) has no unused roots left
		}
		algo := burstAlgos[n%len(burstAlgos)]
		qs := make([]*query, burstSize)
		for i := range qs {
			if i < hotRoots {
				qs[i] = &query{algo: algo, root: e.hot[i], hot: true}
				continue
			}
			qs[i] = &query{algo: algo, root: fresh[0]}
			fresh = fresh[1:]
		}
		if err := c.runBurst(qs); err != nil {
			return err
		}
		mine = append(mine, qs...)
		if traced {
			// One run trace per burst, from a job that ran the engine.
			var ran []*query
			for _, q := range qs {
				if !q.snap.CacheHit {
					ran = append(ran, q)
				}
			}
			if len(ran) > 0 {
				var body struct {
					Timeline trace.Timeline `json:"timeline"`
				}
				q := ran[rng.Intn(len(ran))]
				if _, err := c.do("GET", "/v1/jobs/"+q.id+"/trace", nil, http.StatusOK, &body); err != nil {
					return err
				}
				mu.Lock()
				led.add(body.Timeline)
				mu.Unlock()
			}
		}
		if n%pagerankEvery == pagerankEvery-1 {
			q := &query{algo: "pagerank"}
			if err := c.runBurst([]*query{q}); err != nil {
				return err
			}
			mine = append(mine, q)
		}
	}
	return nil
}

// ingestClient posts one batch per ingestInterval on a fixed schedule
// (an open loop of one sender: a late ack delays the next send, and each
// ack is timed from when its batch was due).
func (e *serveEnv) ingestClient(c *httpClient, batches []ingestBatch, start time.Time, p *servePass, mu *sync.Mutex) error {
	type edge struct {
		Src uint64 `json:"src"`
		Dst uint64 `json:"dst"`
	}
	conv := func(ps [][2]uint64) []edge {
		es := make([]edge, len(ps))
		for i, p := range ps {
			es[i] = edge{p[0], p[1]}
		}
		return es
	}
	var acks, compMS []float64
	sent := 0
	defer func() {
		mu.Lock()
		p.ackMS, p.compactionMS, p.sent = acks, compMS, batches[:sent]
		mu.Unlock()
	}()
	// The compaction an ack announced is watched from here, one status
	// read per tick after the tick's ack is timed, because by the end of
	// the window its job may have aged out of the server's retention
	// table.
	watch := ""
	look := func() error {
		var snap jobSnapshot
		if _, err := c.do("GET", "/v1/jobs/"+watch, nil, http.StatusOK, &snap); err != nil {
			return err
		}
		switch snap.State {
		case "pending", "running":
			return nil
		case "done":
			compMS = append(compMS, snap.FinishedAt.Sub(*snap.StartedAt).Seconds()*1e3)
			watch = ""
			return nil
		}
		c.t.fail("compaction %s ended %s: %s", watch, snap.State, snap.Error)
		return fmt.Errorf("compaction %s", snap.State)
	}
	for k, b := range batches {
		due := start.Add(time.Duration(k) * ingestInterval)
		time.Sleep(time.Until(due))
		var reply struct {
			Deferred   int    `json:"deferred"`
			Compaction string `json:"compaction_job"`
		}
		if _, err := c.do("POST", "/v1/graphs/"+graphName+"/edges", map[string]any{"add": conv(b.adds), "remove": conv(b.removes)}, http.StatusAccepted, &reply); err != nil {
			return err
		}
		acks = append(acks, time.Since(due).Seconds()*1e3)
		sent++
		c.t.check(reply.Deferred == 0, "ingest deferred %d adds between known vertices", reply.Deferred)
		if reply.Compaction != "" {
			watch = reply.Compaction
		}
		if watch != "" {
			if err := look(); err != nil {
				return err
			}
		}
	}
	// Let a compaction in flight finish before the graph is held against
	// the oracle.
	for watch != "" {
		if err := look(); err != nil {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// batchesIn is how many ingest batches fall due inside a window.
func batchesIn(seconds float64) int {
	return int(math.Ceil(seconds / ingestInterval.Seconds()))
}

// pass runs the workload's clients against env for the given window;
// the ingest client sends the batches that fall due inside it.
func (e *serveEnv) pass(cfg runConfig, seconds float64, traced bool, led *engineLedger, batches []ingestBatch) (*servePass, error) {
	p := &servePass{}
	var (
		mu      sync.Mutex
		queries sync.WaitGroup // the query clients, which define the window
		ingest  sync.WaitGroup
		errs    = make([]error, cfg.wl.clients+1)
	)
	edges0 := e.srv.Stats().EdgesTraversed.Load()
	start := time.Now()
	until := start.Add(time.Duration(seconds * float64(time.Second)))
	clients := make([]*httpClient, cfg.wl.clients+1)
	// Each query client owns a disjoint slice of the shuffled roots.
	share := len(e.cold) / cfg.wl.clients
	for i := 0; i < cfg.wl.clients; i++ {
		clients[i] = e.newClient()
		fresh := e.cold[i*share : (i+1)*share]
		rng := rand.New(rand.NewSource(cfg.seed + int64(i) + 1))
		queries.Add(1)
		go func(i int) {
			defer queries.Done()
			errs[i] = e.queryClient(clients[i], fresh, until, traced, led, rng, p, &mu)
		}(i)
	}
	if cfg.wl.ingest {
		ic := e.newClient()
		clients[cfg.wl.clients] = ic
		ingest.Add(1)
		go func() {
			defer ingest.Done()
			errs[cfg.wl.clients] = e.ingestClient(ic, batches[:batchesIn(seconds)], start, p, &mu)
		}()
	}
	// The window ends when the last burst in flight at the deadline is
	// answered; the ingest client may wait out a compaction beyond it.
	queries.Wait()
	p.elapsedS = time.Since(start).Seconds()
	p.edges = e.srv.Stats().EdgesTraversed.Load() - edges0
	ingest.Wait()
	for _, c := range clients {
		if c != nil {
			c.close()
			p.fail.merge(&c.t)
		}
	}
	for _, err := range errs {
		if err != nil {
			return p, err
		}
	}
	return p, nil
}

// warmUp fills the caches the window relies on: one ppr and one bfs
// burst over the hot roots and one global PageRank, so hot answers and
// the PageRank array are result-cache hits from the first measured
// burst, and every sub-shard block is decoded.
func (e *serveEnv) warmUp() error {
	c := e.newClient()
	defer c.close()
	for _, algo := range []string{"ppr", "bfs"} {
		qs := make([]*query, hotRoots)
		for i := range qs {
			qs[i] = &query{algo: algo, root: e.hot[i]}
		}
		if err := c.runBurst(qs); err != nil {
			return err
		}
	}
	if err := c.runBurst([]*query{{algo: "pagerank"}}); err != nil {
		return err
	}
	if c.t.failed > 0 {
		return fmt.Errorf("warm-up: %s", strings.Join(c.t.notes, "; "))
	}
	return nil
}

// by splits a pass's queries by kind.
func (p *servePass) by(algo string, hit bool) []*query {
	var out []*query
	for _, q := range p.queries {
		if q.algo == algo && q.snap.CacheHit == hit {
			out = append(out, q)
		}
	}
	return out
}

func latencies(qs []*query) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = q.latencyMS()
	}
	return out
}

func runServe(cfg runConfig, scratch *scratchDir) (map[string]float64, *tally, error) {
	t := &tally{}
	reps := setupReps
	if cfg.traced {
		reps = 2 // one store for the untraced reference pass, one for the traced pass
	}
	var (
		setupS  []float64
		env     *serveEnv
		ref     *servePass
		batches []ingestBatch // the same graph every rep, so the same traffic
	)
	for rep := 0; rep < reps; rep++ {
		if env != nil {
			if cfg.traced {
				// Reference for the tracing overhead: the same traffic,
				// run tracing off, on its own copy of the store.
				var err error
				if ref, err = env.pass(cfg, cfg.seconds/3, false, nil, batches); err != nil {
					env.close()
					return nil, nil, failedPass(ref, err)
				}
				t.merge(&ref.fail)
			}
			env.close()
			os.RemoveAll(env.bs.dir)
		}
		bs, err := buildStore(cfg.wl, cfg.seed, scratch.next("store"))
		if err != nil {
			return nil, nil, err
		}
		if cfg.wl.ingest && batches == nil {
			if batches, err = makeIngestBatches(bs, cfg.seed, batchesIn(cfg.seconds)); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		if env, err = openServe(cfg, bs, cfg.traced && rep == reps-1); err != nil {
			return nil, nil, err
		}
		if err := env.warmUp(); err != nil {
			env.close()
			return nil, nil, err
		}
		setupS = append(setupS, bs.genS+bs.buildS+time.Since(t0).Seconds())
	}
	bs := env.bs
	closed := false
	defer func() {
		if !closed {
			env.close()
		}
	}()
	fmt.Fprintf(os.Stderr, "benchmark: store %d vertices, %d edges, %d B encoded; block cache 256 MiB shared, result cache 128 MiB, job retention 64 MiB; wal=%v fsync=batch\n",
		bs.numVertices, bs.numEdges, bs.storeBytes, cfg.wl.ingest)

	var led *engineLedger
	if cfg.traced {
		led = &engineLedger{}
	}
	log := newSpanLog() // before the pass, so span times count from its start
	c0 := env.counters()
	sampler := startHeapSampler()
	p, err := env.pass(cfg, cfg.seconds, cfg.traced, led, batches)
	heap := sampler.medianMiB()
	if err != nil {
		return nil, nil, failedPass(p, err)
	}
	t.merge(&p.fail)

	c1 := env.counters()
	// The workload was sized for a compaction per 8192 acked ops; one
	// fewer means queries ran beside less rebuild work than intended.
	wantCompactions := float64(len(p.sent) * (ingestAdds + ingestRemoves) / compactEvery)
	t.check(c1.compactions-c0.compactions == wantCompactions, "%v compactions completed in the window, the ingest schedule was built to trip %v", c1.compactions-c0.compactions, wantCompactions)
	if err := env.verify(cfg, t, p); err != nil {
		return nil, nil, err
	}

	ppr := latencies(p.by("ppr", false))
	if len(ppr) == 0 {
		return nil, nil, fmt.Errorf("no ppr query ran the engine in the window")
	}
	v := map[string]float64{}
	if !cfg.traced {
		v["setup_s"] = median(setupS)
		v["edges_per_s"] = float64(p.edges) / p.elapsedS / 1e6
		v["requests_per_s"] = float64(len(p.queries)) / p.elapsedS
		v["latency_ms_p50"] = median(ppr)
		v["latency_ms_mean"] = mean(ppr)
		v["store_bytes_per_edge"] = float64(bs.storeBytes) / float64(bs.numEdges)
		v["live_heap_mb"] = heap
		return v, t, nil
	}

	led.fill(v)
	fillCache(v, c0.blocks, c1.blocks, p.edges)
	fillIdle(v, batchOnlyLayer)

	var spans [5]float64
	var total float64
	for _, q := range p.queries {
		if q.algo == "pagerank" || q.snap.CacheHit || q.snap.StartedAt == nil || q.snap.FinishedAt == nil {
			continue
		}
		edges := [6]time.Time{q.postAt, q.snap.SubmittedAt, *q.snap.StartedAt, *q.snap.FinishedAt, q.fetchAt, q.doneAt}
		op := log.newOp()
		log.addOp(op, q.algo, q.postAt, q.doneAt)
		for i, name := range querySpans {
			spans[i] += edges[i+1].Sub(edges[i]).Seconds()
			log.add(op, name, edges[i], edges[i+1])
		}
		total += q.doneAt.Sub(q.postAt).Seconds()
	}
	for i, name := range querySpans {
		v["server."+name+"_share"] = ratio(spans[i], total)
	}
	v["ledger.unaccounted_share"] = 1 - ratio(sum(spans[:]), total)
	v["ledger.caller_ms_p50"] = median(ppr)
	v["ledger.caller_ms_p90"] = quantile(ppr, 0.9)
	v["trace.overhead_pct"] = 100 * (median(ppr)/median(latencies(ref.by("ppr", false))) - 1)

	v["server.fused_width_mean"] = ratio(c1.fusedJobs-c0.fusedJobs, c1.fusedRuns-c0.fusedRuns)
	v["server.fused_runs"] = c1.fusedRuns - c0.fusedRuns
	v["server.result_cache_hit_ratio"] = ratio(c1.hits-c0.hits, c1.hits-c0.hits+c1.misses-c0.misses)
	hitMS := append(latencies(p.by("ppr", true)), latencies(p.by("bfs", true))...)
	v["server.cache_hit_latency_ratio"] = ratio(median(hitMS), median(ppr))
	v["server.bfs_latency_ratio"] = ratio(median(latencies(p.by("bfs", false))), median(ppr))
	pagerank := append(p.by("pagerank", true), p.by("pagerank", false)...)
	v["server.pagerank_latency_ratio"] = ratio(median(latencies(pagerank)), median(ppr))
	v["server.result_full_bytes"] = 0
	if len(pagerank) > 0 {
		v["server.result_full_bytes"] = float64(pagerank[0].fullSize)
	}
	interval := ingestInterval.Seconds() * 1e3
	v["server.ingest_ack_p50_share"] = median(p.ackMS) / interval
	v["server.ingest_ack_p95_share"] = quantile(p.ackMS, 0.95) / interval
	v["server.compactions"] = c1.compactions - c0.compactions
	v["server.compaction_busy_share"] = sum(p.compactionMS) / 1e3 / p.elapsedS
	v["wal.fsyncs_per_append"] = ratio(c1.walFsyncs-c0.walFsyncs, c1.walAppends-c0.walAppends)
	v["dynamic.pending_at_run_mean"] = mean(p.pending)

	// The probes need a library handle, and a store has one owner.
	env.close()
	closed = true
	gr, err := nxgraph.Open(bs.dir, baseOptions())
	if err != nil {
		return nil, nil, err
	}
	defer gr.Close()
	if err := runProbes(cfg, scratch, bs, gr, led, v); err != nil {
		return nil, nil, err
	}
	if err := log.write(cfg.outDir, cfg.wl.name); err != nil {
		return nil, nil, err
	}
	return v, t, nil
}

// failedPass reports a pass that could not finish, with the failures its
// clients noted.
func failedPass(p *servePass, err error) error {
	if p != nil && len(p.fail.notes) > 0 {
		return fmt.Errorf("%w (%s)", err, strings.Join(p.fail.notes, "; "))
	}
	return err
}

// verify is the serve workloads' correctness gate. On a static graph it
// re-checks sampled answers from the window; after ingest it checks
// that every acked edge is in the graph and that fresh queries see it.
func (e *serveEnv) verify(cfg runConfig, t *tally, p *servePass) error {
	oracle, err := e.bs.oracleGraph()
	if err != nil {
		return err
	}
	if cfg.wl.ingest {
		// The served graph is base + acked adds − acked removes; fold the
		// pending tail in and read the count back.
		c := e.newClient()
		defer c.close()
		var job jobSnapshot
		var info struct {
			NumEdges int64 `json:"num_edges"`
			Pending  int   `json:"pending_deltas"`
		}
		if _, err := c.do("POST", "/v1/graphs/"+graphName+"/compact", nil, http.StatusAccepted, &job); err == nil {
			for job.State == "pending" || job.State == "running" {
				time.Sleep(5 * time.Millisecond)
				if _, err := c.do("GET", "/v1/jobs/"+job.ID, nil, http.StatusOK, &job); err != nil {
					break
				}
			}
			c.t.check(job.State == "done", "final compaction ended %s: %s", job.State, job.Error)
		}
		c.do("GET", "/v1/graphs/"+graphName, nil, http.StatusOK, &info)
		live := survivingAdds(p.sent)
		want := e.bs.numEdges + int64(len(live))
		c.t.check(info.NumEdges == want && info.Pending == 0,
			"after ingest the graph reports %d edges and %d pending deltas, want %d and 0 (lost acked edges)", info.NumEdges, info.Pending, want)
		toDense := e.bs.denseIDs()
		for _, a := range live {
			oracle.Edges = append(oracle.Edges, graph.Edge{Src: toDense[a[0]], Dst: toDense[a[1]], Weight: 1})
		}
		// Fresh queries over the compacted graph, from roots the window
		// never used.
		var qs []*query
		for _, r := range e.cold[len(e.cold)-4:] {
			qs = append(qs, &query{algo: "ppr", root: r})
		}
		qs = append(qs, &query{algo: "bfs", root: e.hot[0]})
		if err := c.runBurst(qs); err == nil {
			checkAnswers(&c.t, oracle, qs)
		}
		t.merge(&c.t)
		return nil
	}
	// Static graph: every 16th answer of the window, up to maxChecked.
	var sample []*query
	for i, q := range p.queries {
		if i%16 == 0 && q.algo != "pagerank" && len(sample) < maxChecked {
			sample = append(sample, q)
		}
	}
	checkAnswers(t, oracle, sample)
	// Only hot roots and the repeated PageRank can hit the result cache,
	// and after the warm-up every one of them does.
	wantHits := 0
	gotHits := 0
	for _, q := range p.queries {
		if q.hot || q.algo == "pagerank" {
			wantHits++
		}
		if q.snap.CacheHit {
			gotHits++
		}
	}
	t.check(gotHits == wantHits, "result cache hit %d queries, constructed to hit %d", gotHits, wantHits)
	return nil
}

// checkAnswers holds served top-10 answers against refalgo on g: the
// k-th value within 1e-9 of the oracle's k-th best, and each named
// vertex holding the value the oracle gives it.
func checkAnswers(t *tally, g *graph.EdgeList, qs []*query) {
	var adj *graph.Adjacency
	for _, q := range qs {
		var want []float64
		ascending := false
		switch q.algo {
		case "ppr":
			want = refalgo.PersonalizedPageRank(g, q.root, damping, pagerankIters)
		case "bfs":
			if adj == nil {
				adj = graph.BuildAdjacency(g)
			}
			for _, d := range refalgo.BFS(adj, q.root) {
				want = append(want, float64(d))
			}
			ascending = true
		default:
			continue
		}
		ranked := make([]float64, 0, len(want))
		for _, x := range want {
			if !ascending || x >= 0 {
				ranked = append(ranked, x)
			}
		}
		sort.Float64s(ranked)
		if !ascending {
			for i, j := 0, len(ranked)-1; i < j; i, j = i+1, j-1 {
				ranked[i], ranked[j] = ranked[j], ranked[i]
			}
		}
		bad := len(q.top) != min(10, len(ranked))
		for k, tv := range q.top {
			if bad || int(tv.Vertex) >= len(want) || math.Abs(tv.Value-want[tv.Vertex]) > 1e-9 || math.Abs(tv.Value-ranked[k]) > 1e-9 {
				bad = true
				break
			}
		}
		t.check(!bad, "%s from root %d: served top-10 differs from the oracle", q.algo, q.root)
	}
}

// counters is a snapshot of the totals the server publishes: the
// scheduler's and result cache's through Server.Stats, the block cache's,
// and the WAL's two through the Prometheus text of /metrics.
type counters struct {
	hits, misses, fusedRuns, fusedJobs, compactions float64
	walAppends, walFsyncs                           float64
	blocks                                          nxgraph.CacheStats
}

func (e *serveEnv) counters() counters {
	st := e.srv.Stats()
	c := counters{
		hits: float64(st.CacheHits.Load()), misses: float64(st.CacheMisses.Load()),
		fusedRuns: float64(st.FusedRuns.Load()), fusedJobs: float64(st.FusedJobs.Load()),
		compactions: float64(st.CompactionsCompleted.Load()),
		blocks:      e.srv.BlockCacheStats(),
	}
	hc := e.newClient()
	defer hc.close()
	resp, err := hc.hc.Get(e.ts.URL + "/metrics")
	if err != nil {
		return c
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		name, val, _ := strings.Cut(line, " ")
		x, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		switch name {
		case "nxserve_wal_appends_total":
			c.walAppends = x
		case "nxserve_wal_fsyncs_total":
			c.walFsyncs = x
		}
	}
	return c
}
