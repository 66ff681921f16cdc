package server

import (
	"math"
	"net/http/httptest"
	"testing"

	nxgraph "nxgraph"
)

// holdRunSlot parks the graph's dispatch claim so submissions pile up in
// the queue; the returned release re-opens dispatch and wakes the
// workers. Holding the slot is how these tests make a batch of jobs
// arrive at one worker simultaneously instead of racing execution.
func holdRunSlot(s *Server, e *graphEntry) (release func()) {
	e.busy.Store(true)
	return func() {
		// Flip under the scheduler lock: a worker's scan-then-wait runs
		// entirely under it, so the release cannot slip into the window
		// between a failed scan and the cond.Wait (lost wakeup).
		s.sched.mu.Lock()
		e.busy.Store(false)
		s.sched.mu.Unlock()
		s.sched.cond.Broadcast()
	}
}

// fusedResultValues fetches a done job's full value array.
func fusedResultValues(t *testing.T, ts *httptest.Server, id string) []float64 {
	t.Helper()
	code, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", nil)
	if code != 200 {
		t.Fatalf("result %s: status %d, body %v", id, code, body)
	}
	raw, _ := body["values"].([]any)
	out := make([]float64, len(raw))
	for i, v := range raw {
		out[i], _ = v.(float64)
	}
	return out
}

// oracleGraph opens an independent build of the deterministic test store
// so expected values come from runs that share nothing with the server.
func oracleGraph(t *testing.T) *nxgraph.Graph {
	t.Helper()
	gr, err := nxgraph.Open(buildStoreDir(t, 9), nxgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gr.Close() })
	return gr
}

func fusedWidth(b map[string]any) int {
	w, _ := b["fused_width"].(float64)
	return int(w)
}

// TestFusedCoalescing: queued compatible PPR jobs execute as one fused
// run, and every job's values match an independent sequential run
// exactly.
func TestFusedCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	e, _ := s.reg.get("g")
	release := holdRunSlot(s, e)
	roots := []uint32{1, 2, 3, 4}
	ids := make([]string, len(roots))
	for i, r := range roots {
		ids[i] = submit(t, ts, "g", "ppr", map[string]any{"root": r})
	}
	release()
	for _, id := range ids {
		b := pollUntil(t, ts, id, terminal)
		if b["state"] != "done" {
			t.Fatalf("job %s: state %v, want done (%v)", id, b["state"], b["error"])
		}
		if fusedWidth(b) != len(roots) {
			t.Fatalf("job %s: fused_width %d, want %d", id, fusedWidth(b), len(roots))
		}
	}
	if got := s.stats.FusedRuns.Load(); got != 1 {
		t.Fatalf("FusedRuns = %d, want 1", got)
	}
	if got := s.stats.FusedJobs.Load(); got != int64(len(roots)) {
		t.Fatalf("FusedJobs = %d, want %d", got, len(roots))
	}
	gr := oracleGraph(t)
	for i, id := range ids {
		want, err := gr.PersonalizedPageRank(roots[i], 0.85, 20)
		if err != nil {
			t.Fatal(err)
		}
		got := fusedResultValues(t, ts, id)
		if len(got) != len(want.Attrs) {
			t.Fatalf("root %d: %d values, want %d", roots[i], len(got), len(want.Attrs))
		}
		for v := range got {
			if got[v] != want.Attrs[v] {
				t.Fatalf("root %d vertex %d: fused %v, sequential %v", roots[i], v, got[v], want.Attrs[v])
			}
		}
	}

	// A claimed batch whose siblings all turn out to be result-cache
	// hits at execution time runs the engine at width 1: not fused.
	release = holdRunSlot(s, e)
	lone := submit(t, ts, "g", "ppr", map[string]any{"root": 8})
	hitID := submit(t, ts, "g", "ppr", map[string]any{"root": 9})
	want, err := gr.PersonalizedPageRank(9, 0.85, 20)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.put(cacheKey(e.uid, 0, "ppr", Params{Damping: 0.85, Iters: 20, Root: 9}),
		&Result{Algo: "ppr", ValueLabel: "score", Values: want.Attrs})
	release()
	for _, id := range []string{lone, hitID} {
		b := pollUntil(t, ts, id, terminal)
		if b["state"] != "done" || fusedWidth(b) != 0 {
			t.Fatalf("job %s: state %v fused_width %d, want done alone", id, b["state"], fusedWidth(b))
		}
		if hit := b["cache_hit"] == true; hit != (id == hitID) {
			t.Fatalf("job %s: cache_hit %v", id, hit)
		}
	}
	if got := s.stats.FusedRuns.Load(); got != 1 {
		t.Fatalf("FusedRuns = %d after a batch of one run and cache hits, want 1", got)
	}
	if got := s.stats.FusedJobs.Load(); got != int64(len(roots)) {
		t.Fatalf("FusedJobs = %d after a batch of one run and cache hits, want %d", got, len(roots))
	}
}

// TestFusedMixedAlgosNeverFuse: only same-algorithm jobs coalesce; the
// interleaved bfs and sssp submissions each run alone.
func TestFusedMixedAlgosNeverFuse(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	e, _ := s.reg.get("g")
	release := holdRunSlot(s, e)
	ppr1 := submit(t, ts, "g", "ppr", map[string]any{"root": 1})
	bfs := submit(t, ts, "g", "bfs", map[string]any{"root": 2})
	ppr2 := submit(t, ts, "g", "ppr", map[string]any{"root": 3})
	sssp := submit(t, ts, "g", "sssp", map[string]any{"root": 4})
	release()
	for _, id := range []string{ppr1, bfs, ppr2, sssp} {
		if b := pollUntil(t, ts, id, terminal); b["state"] != "done" {
			t.Fatalf("job %s: state %v, want done (%v)", id, b["state"], b["error"])
		}
	}
	for _, id := range []string{ppr1, ppr2} {
		_, b := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil)
		if fusedWidth(b) != 2 {
			t.Fatalf("ppr job %s: fused_width %d, want 2", id, fusedWidth(b))
		}
	}
	for _, id := range []string{bfs, sssp} {
		_, b := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil)
		if fusedWidth(b) != 0 {
			t.Fatalf("job %s fused with another algorithm: fused_width %d", id, fusedWidth(b))
		}
	}
	if got := s.stats.FusedRuns.Load(); got != 1 {
		t.Fatalf("FusedRuns = %d, want 1", got)
	}
}

// TestFusedDeltaMismatchNeverFuses: jobs that acked different delta
// states never share a run, even when otherwise identical.
func TestFusedDeltaMismatchNeverFuses(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	e, _ := s.reg.get("g")
	release := holdRunSlot(s, e)
	a := submit(t, ts, "g", "ppr", map[string]any{"root": 1})
	code, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges",
		map[string]any{"add": []map[string]any{{"src": 1, "dst": 2}}})
	if code != 202 {
		t.Fatalf("ingest: status %d, body %v", code, body)
	}
	b := submit(t, ts, "g", "ppr", map[string]any{"root": 2})
	release()
	for _, id := range []string{a, b} {
		st := pollUntil(t, ts, id, terminal)
		if st["state"] != "done" {
			t.Fatalf("job %s: state %v, want done (%v)", id, st["state"], st["error"])
		}
		if fusedWidth(st) != 0 {
			t.Fatalf("job %s fused across a delta version: fused_width %d", id, fusedWidth(st))
		}
	}
	if got := s.stats.FusedRuns.Load(); got != 0 {
		t.Fatalf("FusedRuns = %d, want 0", got)
	}
}

// TestFusedCancelLeavesSiblings: cancelling one job of a batch yields a
// cancelled job while its siblings complete with values identical to
// independent sequential runs. Holding runMu parks the batch between the
// Running transition and the engine run, so the cancellation
// deterministically lands mid-batch. The solo case is the same trick at
// width 1.
func TestFusedCancelLeavesSiblings(t *testing.T) {
	for _, tc := range []struct {
		name   string
		roots  []uint32
		cancel int
	}{
		{"solo", []uint32{5}, 0},
		{"fused", []uint32{5, 6, 7}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1})
			e, _ := s.reg.get("g")
			release := holdRunSlot(s, e)
			ids := make([]string, len(tc.roots))
			for i, r := range tc.roots {
				ids[i] = submit(t, ts, "g", "ppr", map[string]any{"root": r})
			}
			e.runMu.Lock()
			release()
			victim := ids[tc.cancel]
			pollUntil(t, ts, victim, stateIs("running"))
			if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs/"+victim+"/cancel", nil); code != 200 {
				t.Fatalf("cancel: status %d, body %v", code, body)
			}
			e.runMu.Unlock()

			if b := pollUntil(t, ts, victim, terminal); b["state"] != "cancelled" {
				t.Fatalf("cancelled job: state %v, want cancelled", b["state"])
			}
			gr := oracleGraph(t)
			for i, r := range tc.roots {
				if i == tc.cancel {
					continue
				}
				b := pollUntil(t, ts, ids[i], terminal)
				if b["state"] != "done" {
					t.Fatalf("sibling %s: state %v, want done (%v)", ids[i], b["state"], b["error"])
				}
				want, err := gr.PersonalizedPageRank(r, 0.85, 20)
				if err != nil {
					t.Fatal(err)
				}
				got := fusedResultValues(t, ts, ids[i])
				for v := range got {
					if got[v] != want.Attrs[v] {
						t.Fatalf("sibling root %d vertex %d: %v, want %v", r, v, got[v], want.Attrs[v])
					}
				}
			}
		})
	}
}

// TestFusedDisabled: a job submitted only after the previous one
// finished finds no company, runs alone as a one-lane run, and is
// bitwise equal to the library's single-query entry point (unreachable
// +Inf served as -1).
func TestFusedDisabled(t *testing.T) {
	for _, algo := range []string{"ppr", "bfs", "sssp"} {
		t.Run(algo, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1})
			roots := []uint32{1, 2}
			gr := oracleGraph(t)
			for i := range roots {
				id := submit(t, ts, "g", algo, map[string]any{"root": roots[i]})
				st := pollUntil(t, ts, id, terminal)
				if st["state"] != "done" || fusedWidth(st) != 0 {
					t.Fatalf("job %s: state %v fused_width %d, want done alone", id, st["state"], fusedWidth(st))
				}
				var want *nxgraph.Result
				var err error
				switch algo {
				case "ppr":
					want, err = gr.PersonalizedPageRank(roots[i], 0.85, 20)
				case "bfs":
					want, err = gr.BFS(roots[i])
				case "sssp":
					want, err = gr.SSSP(roots[i])
				}
				if err != nil {
					t.Fatal(err)
				}
				got := fusedResultValues(t, ts, id)
				if len(got) != len(want.Attrs) {
					t.Fatalf("root %d: %d values, want %d", roots[i], len(got), len(want.Attrs))
				}
				for v, w := range want.Attrs {
					if math.IsInf(w, 1) {
						w = -1
					}
					if math.Float64bits(got[v]) != math.Float64bits(w) {
						t.Fatalf("root %d vertex %d: served %v, library %v", roots[i], v, got[v], w)
					}
				}
			}
			if got := s.stats.FusedRuns.Load(); got != 0 {
				t.Fatalf("FusedRuns = %d, want 0", got)
			}
		})
	}
}

// TestFusedRunFollowsMemoryBudget: the memory budget bounds a fused run
// as it bounds a lone one. A graph whose budget is 4·n·8 bytes — two
// lanes' ping-pong — runs a coalesced batch of four PPR jobs as MPU with
// Q = ⌊4·n·8 / (2·n·8·4) · P⌋ = 2 of the store's P = 4, and every job's
// values still equal a sequential run bit for bit.
func TestFusedRunFollowsMemoryBudget(t *testing.T) {
	dir := buildStoreDir(t, 9)
	gr := oracleGraph(t)
	s := New(Config{Workers: 1})
	if err := s.OpenGraph("lean", dir, nxgraph.Options{MemoryBudget: 4 * int64(gr.NumVertices()) * 8}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	if gr.P() != 4 {
		t.Fatalf("test store has P = %d, want 4", gr.P())
	}
	e, _ := s.reg.get("lean")
	release := holdRunSlot(s, e)
	roots := []uint32{1, 2, 3, 4}
	ids := make([]string, len(roots))
	for i, r := range roots {
		ids[i] = submit(t, ts, "lean", "ppr", map[string]any{"root": r})
	}
	release()
	for i, id := range ids {
		b := pollUntil(t, ts, id, terminal)
		if b["state"] != "done" || fusedWidth(b) != len(roots) {
			t.Fatalf("job %s: state %v fused_width %d, want done at width %d (%v)", id, b["state"], fusedWidth(b), len(roots), b["error"])
		}
		code, res := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result?top=1", nil)
		if code != 200 || res["strategy"] != "mpu" {
			t.Fatalf("job %s: status %d, strategy %v; want mpu", id, code, res["strategy"])
		}
		want, err := gr.PersonalizedPageRank(roots[i], 0.85, 20)
		if err != nil {
			t.Fatal(err)
		}
		got := fusedResultValues(t, ts, id)
		if len(got) != len(want.Attrs) {
			t.Fatalf("root %d: %d values, want %d", roots[i], len(got), len(want.Attrs))
		}
		for v := range got {
			if math.Float64bits(got[v]) != math.Float64bits(want.Attrs[v]) {
				t.Fatalf("root %d vertex %d: fused %v, sequential %v", roots[i], v, got[v], want.Attrs[v])
			}
		}
	}
}
