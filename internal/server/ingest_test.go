package server

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	nxgraph "nxgraph"
	"nxgraph/internal/gen"
	"nxgraph/internal/graph"
)

// tinyGraph is a 5-vertex cycle with a chord whose original ids are the
// literal 0..4, so ingestion requests can address vertices without
// consulting the remap table.
func tinyGraph() *graph.EdgeList {
	g := &graph.EdgeList{NumVertices: 5}
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}} {
		g.Edges = append(g.Edges, graph.Edge{Src: e[0], Dst: e[1], Weight: 1})
	}
	return g
}

// buildTinyStoreDir writes tinyGraph's store and returns its directory.
func buildTinyStoreDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	gr, err := nxgraph.Build(dir, tinyGraph(), nxgraph.Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	gr.Close()
	return dir
}

func newIngestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return newIngestServerAt(t, cfg, buildTinyStoreDir(t))
}

// newIngestServerAt serves the store in dir as graph "g".
func newIngestServerAt(t *testing.T, cfg Config, dir string) (*Server, *httptest.Server) {
	t.Helper()
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

// pagerankValues submits a pagerank job, waits for completion, and
// returns (values, cacheHit).
func pagerankValues(t *testing.T, ts *httptest.Server) ([]float64, bool) {
	t.Helper()
	return jobValues(t, ts, "pagerank", map[string]any{"iters": 15})
}

// jobValues submits an algo job on graph "g", waits for completion, and
// returns (values, cacheHit).
func jobValues(t *testing.T, ts *httptest.Server, algo string, params map[string]any) ([]float64, bool) {
	t.Helper()
	id := submit(t, ts, "g", algo, params)
	body := pollUntil(t, ts, id, terminal)
	if body["state"] != "done" {
		t.Fatalf("job ended %v (error %v)", body["state"], body["error"])
	}
	code, res := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: status %d, body %v", code, res)
	}
	raw, _ := res["values"].([]any)
	vals := make([]float64, len(raw))
	for i, v := range raw {
		vals[i], _ = v.(float64)
	}
	hit, _ := res["cache_hit"].(bool)
	return vals, hit
}

// TestIngestServedLive is the end-to-end acceptance path: ingested
// edges change PageRank results with no restart, compaction folds them
// into the store, and post-compaction results match the overlay-served
// ones within 1e-6 and a fresh build of the same edges bit for bit. The
// "weighted" input is a weighted RMAT store with its transposed replica,
// which compaction must rebuild with both.
func TestIngestServedLive(t *testing.T) {
	for _, in := range []struct {
		name   string
		open   func(t *testing.T) (dir string, base *graph.EdgeList)
		opt    nxgraph.Options // what the store was built with
		funnel []uint64        // sources of the edges ingested into target
		target uint64
		algos  []string // compared with the fresh build after compaction
	}{
		{"tiny", func(t *testing.T) (string, *graph.EdgeList) { return buildTinyStoreDir(t), tinyGraph() },
			nxgraph.Options{P: 2}, []uint64{0, 3, 4}, 2, []string{"pagerank"}},
		{"weighted", func(t *testing.T) (string, *graph.EdgeList) {
			cfg := gen.DefaultRMAT(8, 4, 7)
			cfg.Weighted = true
			g, err := gen.RMAT(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			gr, err := nxgraph.Build(dir, g, nxgraph.Options{P: 4, Weighted: true, Transpose: true})
			if err != nil {
				t.Fatal(err)
			}
			gr.Close()
			return dir, g
		}, nxgraph.Options{P: 4, Weighted: true, Transpose: true}, []uint64{144, 8, 168}, 1, []string{"pagerank", "wcc"}},
	} {
		t.Run(in.name, func(t *testing.T) {
			dir, base := in.open(t)
			_, ts := newIngestServerAt(t, Config{Workers: 2}, dir)

			// What compaction must produce: the base edges plus the
			// funnel, built fresh in the current format.
			full := &graph.EdgeList{NumVertices: base.NumVertices, Weighted: base.Weighted, Edges: slices.Clone(base.Edges)}
			var add []map[string]any
			for _, src := range in.funnel {
				add = append(add, map[string]any{"src": src, "dst": in.target})
				full.Edges = append(full.Edges, graph.Edge{Src: uint32(src), Dst: uint32(in.target), Weight: 1})
			}
			fresh, err := nxgraph.Build(t.TempDir(), full, in.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			ids, err := fresh.RemapTable()
			if err != nil {
				t.Fatal(err)
			}
			target := slices.Index(ids, in.target)

			before, _ := pagerankValues(t, ts)

			// Funnel extra links into the target; its rank must rise.
			code, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges", map[string]any{"add": add})
			if code != http.StatusAccepted {
				t.Fatalf("ingest: status %d, body %v", code, body)
			}
			if got := body["pending_deltas"].(float64); got != float64(len(add)) {
				t.Fatalf("pending_deltas = %v, want %d", got, len(add))
			}

			overlay, hit := pagerankValues(t, ts)
			if hit {
				t.Fatal("post-ingest job served from the pre-ingest cache")
			}
			if len(overlay) != len(before) {
				t.Fatalf("vertex count changed: %d vs %d", len(overlay), len(before))
			}
			if overlay[target] <= before[target] {
				t.Fatalf("rank of vertex %d did not rise: %g -> %g", in.target, before[target], overlay[target])
			}

			// Cache works within one delta state.
			_, hit = pagerankValues(t, ts)
			if !hit {
				t.Fatal("identical re-submission missed the cache")
			}

			// Compact and compare: rebuilt-store results must match the
			// overlay within 1e-6, served from a fresh engine run (cache
			// invalidated).
			code, snap := doJSON(t, "POST", ts.URL+"/v1/graphs/g/compact", nil)
			if code != http.StatusAccepted {
				t.Fatalf("compact: status %d, body %v", code, snap)
			}
			id, _ := snap["id"].(string)
			end := pollUntil(t, ts, id, terminal)
			if end["state"] != "done" {
				t.Fatalf("compaction ended %v (error %v)", end["state"], end["error"])
			}

			code, info := doJSON(t, "GET", ts.URL+"/v1/graphs/g", nil)
			if code != http.StatusOK {
				t.Fatalf("info: status %d", code)
			}
			if pd, _ := info["pending_deltas"].(float64); pd != 0 {
				t.Fatalf("pending_deltas after compaction = %v, want 0", pd)
			}
			if ne, _ := info["num_edges"].(float64); int64(ne) != full.NumEdges() {
				t.Fatalf("num_edges after compaction = %v, want %d", ne, full.NumEdges())
			}

			after, hit := pagerankValues(t, ts)
			if hit {
				t.Fatal("post-compaction job served from the pre-compaction cache")
			}
			for v := range after {
				if math.Abs(after[v]-overlay[v]) > 1e-6 {
					t.Fatalf("vertex %d: compacted rank %g vs overlay rank %g", v, after[v], overlay[v])
				}
			}

			for _, algo := range in.algos {
				var want *nxgraph.Result
				var err error
				switch algo {
				case "pagerank":
					want, err = fresh.PageRank(0.85, 15)
				case "wcc":
					want, err = fresh.WCC()
				}
				if err != nil {
					t.Fatal(err)
				}
				got, _ := jobValues(t, ts, algo, map[string]any{"iters": 15})
				if len(got) != len(want.Attrs) {
					t.Fatalf("%s: %d values, fresh build has %d", algo, len(got), len(want.Attrs))
				}
				for v := range got {
					if math.Float64bits(got[v]) != math.Float64bits(want.Attrs[v]) {
						t.Fatalf("%s: vertex %d is %g after compaction, %g on a fresh build", algo, v, got[v], want.Attrs[v])
					}
				}
			}
		})
	}
}

// TestIngestRejectsMalformedWeights: NaN, infinite, negative and
// unrepresentable weights get a 400 before anything reaches the log.
// Non-finite values cannot even be expressed as JSON numbers, so those
// are sent as raw bodies and die in the decoder; the negative case
// reaches the handler's own validation.
func TestIngestRejectsMalformedWeights(t *testing.T) {
	_, ts := newIngestServer(t, Config{Workers: 1})

	for _, body := range []string{
		`{"add":[{"src":0,"dst":1,"weight":NaN}]}`,
		`{"add":[{"src":0,"dst":1,"weight":Infinity}]}`,
		`{"add":[{"src":0,"dst":1,"weight":-Infinity}]}`,
		`{"add":[{"src":0,"dst":1,"weight":1e40}]}`,
		`{"add":[{"src":0,"dst":1,"weight":-2}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/graphs/g/edges", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Nothing was logged: the graph still reports no pending deltas.
	code, info := doJSON(t, "GET", ts.URL+"/v1/graphs/g", nil)
	if code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	if pd, _ := info["pending_deltas"].(float64); pd != 0 {
		t.Fatalf("pending_deltas = %v after rejected batches, want 0", pd)
	}
}

// TestIngestBatchOpBound: a batch of more than 65 536 ops gets a 413
// naming the bound before anything is logged; a batch of exactly 65 536
// is accepted. The bodies are `{}` adds (edge 0->0), far under the
// byte cap, so only the op bound can refuse them.
func TestIngestBatchOpBound(t *testing.T) {
	const bound = 65536
	s, ts := newIngestServer(t, Config{Workers: 1, DeltaThreshold: -1})
	post := func(n int) (int, string) {
		t.Helper()
		body := `{"add":[{}` + strings.Repeat(`,{}`, n-1) + `]}`
		resp, err := http.Post(ts.URL+"/v1/graphs/g/edges", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	state := func() (appends string, pending float64) {
		t.Helper()
		for _, line := range strings.Split(scrape(t, s), "\n") {
			if v, ok := strings.CutPrefix(line, "nxserve_wal_appends_total "); ok {
				appends = v
			}
		}
		_, info := doJSON(t, "GET", ts.URL+"/v1/graphs/g", nil)
		pending, _ = info["pending_deltas"].(float64)
		return appends, pending
	}

	code, body := post(bound + 1)
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(body, "65536") {
		t.Fatalf("batch of %d ops: status %d, body %s; want 413 naming %d", bound+1, code, body, bound)
	}
	if appends, pending := state(); appends != "0" || pending != 0 {
		t.Fatalf("after the refused batch: wal appends %s, pending %v; want 0, 0", appends, pending)
	}
	if code, body := post(bound); code != http.StatusAccepted {
		t.Fatalf("batch of exactly %d ops: status %d, body %s; want 202", bound, code, body)
	}
	if appends, pending := state(); appends != "1" || pending != bound {
		t.Fatalf("after the accepted batch: wal appends %s, pending %v; want 1, %d", appends, pending, bound)
	}
}

// TestWALCommitWaitObserved: an acked ingest batch is one observation of
// nxserve_wal_commit_wait_seconds with the WAL on, and none with it off.
func TestWALCommitWaitObserved(t *testing.T) {
	for _, c := range []struct {
		disableWAL bool
		want       string
	}{{false, "1"}, {true, "0"}} {
		s, ts := newIngestServer(t, Config{Workers: 1, DeltaThreshold: -1, DisableWAL: c.disableWAL})
		resp, err := http.Post(ts.URL+"/v1/graphs/g/edges", "application/json",
			strings.NewReader(`{"add":[{"src":0,"dst":2}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("DisableWAL %v: ingest status %d, want 202", c.disableWAL, resp.StatusCode)
		}
		var count string
		for _, line := range strings.Split(scrape(t, s), "\n") {
			if v, ok := strings.CutPrefix(line, "nxserve_wal_commit_wait_seconds_count "); ok {
				count = v
			}
		}
		if count != c.want {
			t.Fatalf("DisableWAL %v: commit wait count %q, want %s", c.disableWAL, count, c.want)
		}
	}
}

// TestIngestRemoveThenReAdd drives the tombstone semantics over HTTP:
// removals apply before insertions within a batch.
func TestIngestRemoveThenReAdd(t *testing.T) {
	_, ts := newIngestServer(t, Config{Workers: 1})
	before, _ := pagerankValues(t, ts)

	// Remove and re-add the chord in one batch: a no-op net change.
	code, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges", map[string]any{
		"remove": []map[string]any{{"src": 1, "dst": 3}},
		"add":    []map[string]any{{"src": 1, "dst": 3}},
	})
	if code != http.StatusAccepted {
		t.Fatalf("ingest: status %d", code)
	}
	same, hit := pagerankValues(t, ts)
	if hit {
		t.Fatal("delta state changed but cache hit")
	}
	for v := range same {
		if math.Abs(same[v]-before[v]) > 1e-9 {
			t.Fatalf("vertex %d: %g vs %g after remove+re-add", v, same[v], before[v])
		}
	}

	// Now a real removal: vertex 3 loses an in-edge, its rank drops.
	code, _ = doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges", map[string]any{
		"remove": []map[string]any{{"src": 1, "dst": 3}},
	})
	if code != http.StatusAccepted {
		t.Fatalf("ingest: status %d", code)
	}
	after, _ := pagerankValues(t, ts)
	if after[3] >= before[3] {
		t.Fatalf("rank of vertex 3 did not drop: %g -> %g", before[3], after[3])
	}
}

// TestIngestNewVertexDeferred: edges naming unseen vertices are
// deferred, then materialized by compaction.
func TestIngestNewVertexDeferred(t *testing.T) {
	_, ts := newIngestServer(t, Config{Workers: 1})

	code, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges", map[string]any{
		"add": []map[string]any{{"src": 99, "dst": 0}, {"src": 0, "dst": 99}},
	})
	if code != http.StatusAccepted {
		t.Fatalf("ingest: status %d", code)
	}
	if def, _ := body["deferred"].(float64); def != 2 {
		t.Fatalf("deferred = %v, want 2", body["deferred"])
	}
	vals, _ := pagerankValues(t, ts)
	if len(vals) != 5 {
		t.Fatalf("overlay should not serve the new vertex yet: n = %d", len(vals))
	}

	code, snap := doJSON(t, "POST", ts.URL+"/v1/graphs/g/compact", nil)
	if code != http.StatusAccepted {
		t.Fatalf("compact: status %d", code)
	}
	id, _ := snap["id"].(string)
	end := pollUntil(t, ts, id, terminal)
	if end["state"] != "done" {
		t.Fatalf("compaction ended %v (error %v)", end["state"], end["error"])
	}
	vals, _ = pagerankValues(t, ts)
	if len(vals) != 6 {
		t.Fatalf("new vertex missing after compaction: n = %d", len(vals))
	}
}

// TestIngestAutoCompaction: crossing the configured threshold schedules
// a background compaction without a manual POST.
func TestIngestAutoCompaction(t *testing.T) {
	_, ts := newIngestServer(t, Config{Workers: 2, DeltaThreshold: 2})

	code, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges", map[string]any{
		"add": []map[string]any{{"src": 0, "dst": 3}, {"src": 2, "dst": 0}},
	})
	if code != http.StatusAccepted {
		t.Fatalf("ingest: status %d", code)
	}
	id, _ := body["compaction_job"].(string)
	if id == "" {
		t.Fatalf("no compaction_job in %v", body)
	}
	end := pollUntil(t, ts, id, terminal)
	if end["state"] != "done" {
		t.Fatalf("auto compaction ended %v (error %v)", end["state"], end["error"])
	}
	code, info := doJSON(t, "GET", ts.URL+"/v1/graphs/g", nil)
	if code != http.StatusOK || info["pending_deltas"] != nil {
		t.Fatalf("pending deltas remain after auto compaction: %v", info["pending_deltas"])
	}
}

// TestCompactIdempotent: a second POST while one compaction is live
// returns the same job instead of queueing another.
func TestCompactIdempotent(t *testing.T) {
	s, ts := newIngestServer(t, Config{Workers: 1})

	// Pin the single worker deterministically: hold the graph's run
	// lock so the submitted job claims the worker, flips to running,
	// and parks right before execution — the queued compaction then
	// stays pending until we release it.
	e, ok := s.reg.get("g")
	if !ok {
		t.Fatal("graph not registered")
	}
	e.runMu.Lock()
	block := submit(t, ts, "g", "pagerank", map[string]any{"iters": 10})
	pollUntil(t, ts, block, stateIs("running"))
	doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges", map[string]any{
		"add": []map[string]any{{"src": 0, "dst": 2}},
	})
	code1, snap1 := doJSON(t, "POST", ts.URL+"/v1/graphs/g/compact", nil)
	code2, snap2 := doJSON(t, "POST", ts.URL+"/v1/graphs/g/compact", nil)
	e.runMu.Unlock()
	if code1 != http.StatusAccepted {
		t.Fatalf("first compact: status %d", code1)
	}
	if code2 != http.StatusOK || snap1["id"] != snap2["id"] {
		t.Fatalf("second compact: status %d, ids %v vs %v", code2, snap1["id"], snap2["id"])
	}
	pollUntil(t, ts, block, terminal)
	pollUntil(t, ts, snap1["id"].(string), terminal)

	// Metrics surface the counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"nxserve_edges_ingested_total 1",
		"nxserve_compactions_started_total 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}
