package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	nxgraph "nxgraph"
)

// FuzzPostBodies posts arbitrary bytes as the body of the two POST routes
// that decode client JSON against an open graph: job submission and edge
// ingestion. The server holds tinyGraph with its WAL in a temp dir. No
// body may panic the server or earn a 5xx, except 503 for a full job
// queue, and a rejected ingest must leave the pending delta count as it
// was. The open-graph body (POST /v1/graphs) is left out on purpose: its
// "dir" is a filesystem path, so fuzzing it would open arbitrary paths
// on the host.
func FuzzPostBodies(f *testing.F) {
	for _, s := range []struct {
		edges bool
		body  string
	}{
		{false, `{"algo":"pagerank","params":{"iters":3}}`},
		{false, `{"algo":"ppr","params":{"root":0,"iters":2,"damping":0.5}}`},
		{false, `{"algo":"bfs","params":{"root":4}}`},
		{false, `{"algo":"sssp","params":{"root":99}}`},
		{false, `{"algo":"wcc","params":{"iters":-1}}`},
		{false, `{"algo":"nope"}`},
		{true, `{"add":[{"src":0,"dst":2,"weight":2}]}`},
		{true, `{"add":[{"src":7,"dst":0}],"remove":[{"src":1,"dst":3}]}`},
		{true, `{"add":[{"src":0,"dst":1,"weight":-2}]}`},
		{true, `{"add":[{"src":0,"dst":1,"weight":NaN}]}`},
		{true, `{"remove":[]}`},
		{true, `{"add":[{"src":-1,"dst":1}]}`},
		{true, `[]`},
	} {
		f.Add(s.edges, []byte(s.body))
	}

	dir := f.TempDir()
	gr, err := nxgraph.Build(dir, tinyGraph(), nxgraph.Options{P: 2})
	if err != nil {
		f.Fatal(err)
	}
	gr.Close()
	s := New(Config{Workers: 1, DeltaThreshold: -1,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err := s.OpenGraph("g", dir, nxgraph.Options{}); err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	e, _ := s.reg.get("g")

	f.Fuzz(func(t *testing.T, edges bool, body []byte) {
		route := "/v1/graphs/g/jobs"
		if edges {
			route = "/v1/graphs/g/edges"
		}
		before := e.deltaCount()
		resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s %q: %v", route, body, err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		code := resp.StatusCode
		if code >= 500 && !(code == http.StatusServiceUnavailable && !edges &&
			strings.Contains(string(got), ErrQueueFull.Error())) {
			t.Fatalf("POST %s %q: status %d %s", route, body, code, got)
		}
		if edges && code != http.StatusAccepted {
			if after := e.deltaCount(); after != before {
				t.Fatalf("rejected ingest %q (status %d) moved pending deltas %d -> %d", body, code, before, after)
			}
		}
		if !edges && code == http.StatusAccepted {
			// Cancel what was accepted so an unbounded run cannot hold
			// the only worker for the rest of the fuzz run.
			var snap struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(got, &snap); err != nil || snap.ID == "" {
				t.Fatalf("accepted job %q: body %s", body, got)
			}
			resp, err := http.Post(ts.URL+"/v1/jobs/"+snap.ID+"/cancel", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	})
}
