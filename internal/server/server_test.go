package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	nxgraph "nxgraph"
)

// buildStoreDir preprocesses a deterministic RMAT graph into a DSSS
// store under a temp dir and returns the dir.
func buildStoreDir(t *testing.T, scale int) string {
	t.Helper()
	dir := t.TempDir()
	g, err := nxgraph.Generate(nxgraph.RMAT(scale, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	gr, err := nxgraph.Build(dir, g, nxgraph.Options{P: 4, Transpose: true})
	if err != nil {
		t.Fatal(err)
	}
	gr.Close()
	return dir
}

// newTestServer starts a Server with one preloaded graph named "g"
// behind an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	dir := buildStoreDir(t, 9)
	s := New(cfg)
	if err := s.OpenGraph("g", dir, nxgraph.Options{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode, out
}

// submit posts a job and returns its id.
func submit(t *testing.T, ts *httptest.Server, graph, algo string, params map[string]any) string {
	t.Helper()
	code, body := doJSON(t, "POST", ts.URL+"/v1/graphs/"+graph+"/jobs",
		map[string]any{"algo": algo, "params": params})
	if code != http.StatusAccepted {
		t.Fatalf("submit %s: status %d, body %v", algo, code, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("submit %s: no job id in %v", algo, body)
	}
	return id
}

// pollUntil polls the job until pred holds or the deadline passes,
// returning the last status body.
func pollUntil(t *testing.T, ts *httptest.Server, id string, pred func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d, body %v", id, code, body)
		}
		if pred(body) {
			return body
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("poll %s: predicate not reached before deadline", id)
	return nil
}

func stateIs(want string) func(map[string]any) bool {
	return func(b map[string]any) bool { return b["state"] == want }
}

func terminal(b map[string]any) bool {
	s, _ := b["state"].(string)
	return s == "done" || s == "failed" || s == "cancelled"
}

func TestSubmitPollTopK(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	id := submit(t, ts, "g", "pagerank", map[string]any{"iters": 10})
	body := pollUntil(t, ts, id, terminal)
	if body["state"] != "done" {
		t.Fatalf("job ended %v (error %v)", body["state"], body["error"])
	}

	code, res := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result?top=10", nil)
	if code != http.StatusOK {
		t.Fatalf("result: status %d, body %v", code, res)
	}
	top, _ := res["top"].([]any)
	if len(top) != 10 {
		t.Fatalf("top-10 returned %d entries", len(top))
	}
	prev := float64(2)
	for _, e := range top {
		v := e.(map[string]any)["value"].(float64)
		if v > prev {
			t.Fatalf("top list not descending: %v", top)
		}
		prev = v
	}
	if res["iterations"].(float64) != 10 {
		t.Fatalf("result iterations %v, want 10", res["iterations"])
	}

	// Full-result retrieval returns every vertex.
	code, res = doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("full result: status %d", code)
	}
	vals, _ := res["values"].([]any)
	if len(vals) != int(res["num_vertices"].(float64)) || len(vals) == 0 {
		t.Fatalf("full result has %d values, want %v", len(vals), res["num_vertices"])
	}

	// An absurd top is clamped to the vertex count, not allocated.
	code, res = doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result?top=1000000000", nil)
	if code != http.StatusOK || len(res["top"].([]any)) != len(vals) {
		t.Fatalf("huge top: status %d, %d entries, want %d", code, len(res["top"].([]any)), len(vals))
	}
	// Trailing garbage in top is rejected.
	if code, _ = doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result?top=5xyz", nil); code != http.StatusBadRequest {
		t.Fatalf("malformed top: status %d, want 400", code)
	}
}

// TestConcurrentJobs is the acceptance demo: PageRank and BFS submitted
// concurrently over HTTP, both polled to completion, top-10 fetched.
func TestConcurrentJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var wg sync.WaitGroup
	ids := make([]string, 2)
	algos := []struct {
		algo   string
		params map[string]any
	}{
		{"pagerank", map[string]any{"iters": 10}},
		{"bfs", map[string]any{"root": 0}},
	}
	for i, a := range algos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = submit(t, ts, "g", a.algo, a.params)
		}()
	}
	wg.Wait()
	for i, id := range ids {
		body := pollUntil(t, ts, id, terminal)
		if body["state"] != "done" {
			t.Fatalf("%s ended %v (error %v)", algos[i].algo, body["state"], body["error"])
		}
		code, res := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result?top=10", nil)
		if code != http.StatusOK {
			t.Fatalf("%s result: status %d", algos[i].algo, code)
		}
		if len(res["top"].([]any)) == 0 {
			t.Fatalf("%s top-10 empty", algos[i].algo)
		}
	}

	// BFS top-K is ascending (nearest vertices) and excludes
	// unreachable (-1) entries.
	_, res := doJSON(t, "GET", ts.URL+"/v1/jobs/"+ids[1]+"/result?top=5", nil)
	prev := -1.0
	for _, e := range res["top"].([]any) {
		v := e.(map[string]any)["value"].(float64)
		if v < prev || v < 0 {
			t.Fatalf("bfs top list not ascending/reachable: %v", res["top"])
		}
		prev = v
	}
}

// TestCancelMidFlight submits an effectively unbounded job — a
// whole-graph PageRank, or a root query running as a one-lane batch —
// waits for it to make progress, cancels, and observes state cancelled.
func TestCancelMidFlight(t *testing.T) {
	for _, tc := range []struct {
		algo   string
		params map[string]any
	}{
		{"pagerank", map[string]any{"iters": 1000000}},
		{"ppr", map[string]any{"iters": 1000000, "root": 0}},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: 1})
			id := submit(t, ts, "g", tc.algo, tc.params)
			pollUntil(t, ts, id, func(b map[string]any) bool {
				if b["state"] != "running" {
					return false
				}
				p, _ := b["progress"].(map[string]any)
				return p != nil && p["iteration"].(float64) >= 1
			})
			code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs/"+id+"/cancel", nil)
			if code != http.StatusOK {
				t.Fatalf("cancel: status %d", code)
			}
			body := pollUntil(t, ts, id, terminal)
			if body["state"] != "cancelled" {
				t.Fatalf("job ended %v, want cancelled", body["state"])
			}
			// Result retrieval for a cancelled job is a conflict.
			code, _ = doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", nil)
			if code != http.StatusConflict {
				t.Fatalf("result of cancelled job: status %d, want 409", code)
			}
			// The graph remains serviceable after cancellation.
			id2 := submit(t, ts, "g", "bfs", map[string]any{"root": 0})
			if body := pollUntil(t, ts, id2, terminal); body["state"] != "done" {
				t.Fatalf("post-cancel job ended %v", body["state"])
			}
		})
	}
}

// TestCacheHit verifies a repeated identical request is served from the
// LRU without re-running the engine.
func TestCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	id1 := submit(t, ts, "g", "pagerank", map[string]any{"iters": 5, "damping": 0.85})
	if body := pollUntil(t, ts, id1, terminal); body["state"] != "done" {
		t.Fatalf("first job ended %v", body["state"])
	}
	started := s.Stats().JobsStarted.Load()

	// Identical params (damping left to default) must hit the cache.
	id2 := submit(t, ts, "g", "pagerank", map[string]any{"iters": 5})
	body := pollUntil(t, ts, id2, terminal)
	if body["state"] != "done" {
		t.Fatalf("second job ended %v", body["state"])
	}
	if body["cache_hit"] != true {
		t.Fatalf("second job not served from cache: %v", body)
	}
	if got := s.Stats().JobsStarted.Load(); got != started {
		t.Fatalf("cache hit re-ran the engine: started %d -> %d", started, got)
	}
	if s.Stats().CacheHits.Load() == 0 {
		t.Fatal("cache hit counter not incremented")
	}

	// Both jobs serve identical values.
	_, r1 := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id1+"/result?top=3", nil)
	_, r2 := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id2+"/result?top=3", nil)
	if fmt.Sprint(r1["top"]) != fmt.Sprint(r2["top"]) {
		t.Fatalf("cached result differs: %v vs %v", r1["top"], r2["top"])
	}
	if r2["cache_hit"] != true {
		t.Fatalf("result of cached job not flagged: %v", r2)
	}

	// Different params must miss.
	id3 := submit(t, ts, "g", "pagerank", map[string]any{"iters": 6})
	if body := pollUntil(t, ts, id3, terminal); body["cache_hit"] == true {
		t.Fatal("different params served from cache")
	}
}

func TestGraphLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	dir := buildStoreDir(t, 8)

	code, body := doJSON(t, "POST", ts.URL+"/v1/graphs", map[string]any{"name": "h", "dir": dir})
	if code != http.StatusCreated {
		t.Fatalf("open: status %d, body %v", code, body)
	}
	if body["num_vertices"].(float64) == 0 {
		t.Fatalf("opened graph reports zero vertices: %v", body)
	}

	// Duplicate name conflicts.
	code, _ = doJSON(t, "POST", ts.URL+"/v1/graphs", map[string]any{"name": "h", "dir": dir})
	if code != http.StatusConflict {
		t.Fatalf("duplicate open: status %d, want 409", code)
	}

	code, body = doJSON(t, "GET", ts.URL+"/v1/graphs", nil)
	if code != http.StatusOK || len(body["graphs"].([]any)) != 2 {
		t.Fatalf("list: status %d, body %v", code, body)
	}

	// A job on the new graph works.
	id := submit(t, ts, "h", "wcc", nil)
	if b := pollUntil(t, ts, id, terminal); b["state"] != "done" {
		t.Fatalf("wcc on h ended %v (%v)", b["state"], b["error"])
	}

	code, _ = doJSON(t, "DELETE", ts.URL+"/v1/graphs/h", nil)
	if code != http.StatusNoContent {
		t.Fatalf("close: status %d", code)
	}
	code, _ = doJSON(t, "GET", ts.URL+"/v1/graphs/h", nil)
	if code != http.StatusNotFound {
		t.Fatalf("closed graph still visible: status %d", code)
	}
	code, _ = doJSON(t, "POST", ts.URL+"/v1/graphs/h/jobs", map[string]any{"algo": "bfs"})
	if code != http.StatusNotFound {
		t.Fatalf("submit to closed graph: status %d, want 404", code)
	}

	// Jobs already running when their graph closes fail with one named
	// error, whether they run alone or as a fused batch. Parking runMu
	// holds them between the Running transition and the engine run
	// until the close has deregistered the graph.
	for _, roots := range [][]uint32{{1}, {1, 2}} {
		code, body := doJSON(t, "POST", ts.URL+"/v1/graphs", map[string]any{"name": "h", "dir": dir})
		if code != http.StatusCreated {
			t.Fatalf("reopen: status %d, body %v", code, body)
		}
		e, _ := s.reg.get("h")
		release := holdRunSlot(s, e)
		ids := make([]string, len(roots))
		for i, r := range roots {
			ids[i] = submit(t, ts, "h", "ppr", map[string]any{"root": r})
		}
		e.runMu.Lock()
		release()
		for _, id := range ids {
			pollUntil(t, ts, id, stateIs("running"))
		}
		closed := make(chan int)
		go func() { // plain request: t.Fatal must stay on the test goroutine
			req, _ := http.NewRequest("DELETE", ts.URL+"/v1/graphs/h", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				closed <- 0
				return
			}
			resp.Body.Close()
			closed <- resp.StatusCode
		}()
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			if _, open := s.reg.get("h"); !open {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("close never deregistered the graph")
			}
		}
		e.runMu.Unlock()
		if code := <-closed; code != http.StatusNoContent {
			t.Fatalf("close: status %d", code)
		}
		for _, id := range ids {
			b := pollUntil(t, ts, id, terminal)
			if b["state"] != "failed" || b["error"] != `server: graph "h" closed` {
				t.Fatalf("width %d job on closed graph: state %v error %v", len(roots), b["state"], b["error"])
			}
		}
	}
}

// TestDuplicateDirRejected verifies one store dir cannot be opened under
// two names: per-graph run serialization keys off the registry entry, so
// two entries over one store would corrupt its attribute files.
func TestDuplicateDirRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	dir := buildStoreDir(t, 8)
	code, _ := doJSON(t, "POST", ts.URL+"/v1/graphs", map[string]any{"name": "a", "dir": dir})
	if code != http.StatusCreated {
		t.Fatalf("first open: status %d", code)
	}
	code, body := doJSON(t, "POST", ts.URL+"/v1/graphs", map[string]any{"name": "b", "dir": dir})
	if code != http.StatusConflict {
		t.Fatalf("same dir under second name: status %d, body %v", code, body)
	}
	// After closing, the dir can be opened under a new name.
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/graphs/a", nil); code != http.StatusNoContent {
		t.Fatalf("close: status %d", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/graphs", map[string]any{"name": "b", "dir": dir}); code != http.StatusCreated {
		t.Fatalf("reopen after close: status %d", code)
	}
}

// TestJobRetention verifies the job table prunes the oldest terminal
// jobs beyond RetainJobs.
func TestJobRetention(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, RetainJobs: 3})
	var ids []string
	for i := 0; i < 5; i++ {
		id := submit(t, ts, "g", "pagerank", map[string]any{"iters": i + 1})
		pollUntil(t, ts, id, terminal)
		ids = append(ids, id)
	}
	// The two oldest jobs are pruned and answer 410 (distinguishable
	// from a never-existing id's 404); the three newest remain.
	for _, id := range ids[:2] {
		if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil); code != http.StatusGone {
			t.Fatalf("pruned job %s: status %d, want 410", id, code)
		}
	}
	for _, id := range ids[2:] {
		if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil); code != http.StatusOK {
			t.Fatalf("retained job %s: status %d, want 200", id, code)
		}
	}
}

// TestCloseInvalidatesCache verifies a graph name reopened over a
// different store does not serve the old store's cached results.
func TestCloseInvalidatesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	id := submit(t, ts, "g", "pagerank", map[string]any{"iters": 5})
	pollUntil(t, ts, id, terminal)
	if s.Stats().CacheEntries.Load() == 0 {
		t.Fatal("result not cached")
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/graphs/g", nil); code != http.StatusNoContent {
		t.Fatal("close failed")
	}
	// Rebind the name to a different store; the same submission must
	// run fresh, not hit the dead store's cache.
	dir := buildStoreDir(t, 8)
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/graphs", map[string]any{"name": "g", "dir": dir}); code != http.StatusCreated {
		t.Fatal("reopen failed")
	}
	id2 := submit(t, ts, "g", "pagerank", map[string]any{"iters": 5})
	body := pollUntil(t, ts, id2, terminal)
	if body["state"] != "done" || body["cache_hit"] == true {
		t.Fatalf("resubmission after rebind: %v", body)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/jobs", map[string]any{"algo": "nope"})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown algo: status %d, body %v", code, body)
	}
	code, _ = doJSON(t, "POST", ts.URL+"/v1/graphs/g/jobs",
		map[string]any{"algo": "bfs", "params": map[string]any{"root": 1 << 30}})
	if code != http.StatusBadRequest {
		t.Fatalf("out-of-range root: status %d, want 400", code)
	}
	code, _ = doJSON(t, "GET", ts.URL+"/v1/jobs/j-99999999", nil)
	if code != http.StatusNotFound {
		t.Fatalf("missing job: status %d, want 404", code)
	}

	// Transpose-requiring algorithms are rejected at submit time on a
	// forward-only store, not asynchronously.
	dir := t.TempDir()
	g, err := nxgraph.Generate(nxgraph.RMAT(8, 8, 9))
	if err != nil {
		t.Fatal(err)
	}
	gr, err := nxgraph.Build(dir, g, nxgraph.Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	gr.Close()
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/graphs", map[string]any{"name": "fwd", "dir": dir}); code != http.StatusCreated {
		t.Fatalf("open forward-only store: status %d", code)
	}
	for _, algo := range []string{"wcc", "scc", "hits", "kcore"} {
		code, body := doJSON(t, "POST", ts.URL+"/v1/graphs/fwd/jobs", map[string]any{"algo": algo})
		if code != http.StatusBadRequest {
			t.Fatalf("%s on forward-only store: status %d (%v), want 400", algo, code, body)
		}
	}
}

// TestOversizedBodyRejected: a body over maxBodyBytes gets 413 on every
// POST that reads one, and the server keeps serving — the same request
// with a normal body succeeds right after.
func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	pad := strings.Repeat("x", maxBodyBytes)
	for _, c := range []struct {
		path string
		body map[string]any
		want int
	}{
		{"/v1/graphs/g/jobs", map[string]any{"algo": "pagerank", "params": map[string]any{"iters": 2}}, http.StatusAccepted},
		{"/v1/graphs/g/edges", map[string]any{"add": []map[string]any{{"src": 0, "dst": 1}}}, http.StatusAccepted},
		{"/v1/graphs", map[string]any{"name": "g2", "dir": buildStoreDir(t, 8)}, http.StatusCreated},
	} {
		big := map[string]any{"pad": pad}
		maps.Copy(big, c.body)
		if code, body := doJSON(t, "POST", ts.URL+c.path, big); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte pad: status %d (%v), want 413", c.path, len(pad), code, body)
		}
		if code, body := doJSON(t, "POST", ts.URL+c.path, c.body); code != c.want {
			t.Errorf("POST %s after a 413: status %d (%v), want %d", c.path, code, body, c.want)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := submit(t, ts, "g", "pagerank", map[string]any{"iters": 3})
	pollUntil(t, ts, id, terminal)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	text := string(b)
	for _, metric := range []string{
		"nxserve_jobs_submitted_total 1",
		"nxserve_jobs_completed_total 1",
		"nxserve_graphs_open 1",
		"nxserve_cache_misses_total 1",
		"nxserve_queue_depth 0",
		"# TYPE nxserve_jobs_submitted_total counter",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("metrics output missing %q", metric)
		}
	}
}

// TestQueueFull verifies backpressure: with one worker busy and a
// one-slot queue, a third submission gets 503.
func TestQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	blocker := submit(t, ts, "g", "pagerank", map[string]any{"iters": 1000000})
	pollUntil(t, ts, blocker, stateIs("running"))
	queued := submit(t, ts, "g", "pagerank", map[string]any{"iters": 999999}) // fills the queue
	code, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g/jobs",
		map[string]any{"algo": "pagerank", "params": map[string]any{"iters": 999998}})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: status %d, want 503", code)
	}
	// Cancelling the queued job frees its slot immediately — the next
	// submission must be accepted, not 503.
	doJSON(t, "POST", ts.URL+"/v1/jobs/"+queued+"/cancel", nil)
	code, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/jobs",
		map[string]any{"algo": "pagerank", "params": map[string]any{"iters": 999997}})
	if code != http.StatusAccepted {
		t.Fatalf("submit after pending cancel: status %d (%v), want 202", code, body)
	}
	// Unblock the pool so Cleanup shuts down promptly.
	doJSON(t, "POST", ts.URL+"/v1/jobs/"+blocker+"/cancel", nil)
}

// TestCloseLeaksNoGoroutines drives every kind of work — a solo job, a
// fused batch, an ingest and a compaction — then closes the server and
// waits for the goroutine count to fall back to its pre-New baseline.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	dir := buildStoreDir(t, 9)
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	s := New(Config{Workers: 2})
	if err := s.OpenGraph("g", dir, nxgraph.Options{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	solo := submit(t, ts, "g", "pagerank", map[string]any{"iters": 5})
	pollUntil(t, ts, solo, terminal)
	e, _ := s.reg.get("g")
	release := holdRunSlot(s, e)
	batch := []string{
		submit(t, ts, "g", "ppr", map[string]any{"root": 1}),
		submit(t, ts, "g", "ppr", map[string]any{"root": 2}),
	}
	release()
	for _, id := range batch {
		if b := pollUntil(t, ts, id, terminal); fusedWidth(b) != 2 {
			t.Fatalf("batch job %s: fused_width %d, want 2", id, fusedWidth(b))
		}
	}
	if code, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges",
		map[string]any{"add": []map[string]any{{"src": 1, "dst": 2}}}); code != http.StatusAccepted {
		t.Fatalf("ingest: status %d, body %v", code, body)
	}
	code, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/compact", nil)
	if code != http.StatusAccepted {
		t.Fatalf("compact: status %d, body %v", code, body)
	}
	if b := pollUntil(t, ts, body["id"].(string), terminal); b["state"] != "done" {
		t.Fatalf("compaction ended %v (%v)", b["state"], b["error"])
	}
	ts.Close()
	s.Close()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after Close, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
