package server

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	nxgraph "nxgraph"
	"nxgraph/internal/metrics"
	"nxgraph/internal/testutil"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the live exposition")

const goldenPath = "testdata/metrics.golden"

// goVersionRe matches the build-info label that differs by toolchain.
var goVersionRe = regexp.MustCompile(`go_version="[^"]*"`)

// expositionFamilies splits a text exposition into one block per family
// (its HELP, TYPE and sample lines), keyed by family name.
func expositionFamilies(t *testing.T, text string) map[string]string {
	t.Helper()
	out := map[string]string{}
	var name string
	for _, line := range strings.SplitAfter(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ = strings.Cut(rest, " ")
			if _, dup := out[name]; dup {
				t.Fatalf("family %s rendered twice", name)
			}
		}
		if name == "" {
			t.Fatalf("line %q precedes the first HELP", line)
		}
		out[name] += line
	}
	return out
}

// scrape renders /metrics through the server's full handler.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	return rec.Body.String()
}

// TestMetricsGolden pins every /metrics family — HELP, TYPE and samples —
// byte for byte against testdata/metrics.golden: the first scrape of a
// fresh server with the checked-in v1 store open, go_version masked.
// Families are compared by name, so the order they are declared in is
// free; the golden lists them sorted. Run with -update after adding a
// family on purpose.
func TestMetricsGolden(t *testing.T) {
	st, _ := testutil.V1Store(t)
	st.Close()
	s := New(Config{Workers: 1})
	t.Cleanup(s.Close)
	if err := s.OpenGraph("g", st.Disk().Root(), nxgraph.Options{}); err != nil {
		t.Fatal(err)
	}
	got := expositionFamilies(t, goVersionRe.ReplaceAllString(scrape(t, s), `go_version="(masked)"`))
	if *updateGolden {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			b.WriteString(got[name])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := expositionFamilies(t, string(raw))
	for name, block := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("family %s missing from /metrics", name)
		} else if g != block {
			t.Errorf("family %s differs:\ngot:\n%swant:\n%s", name, g, block)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("family %s is not in %s", name, goldenPath)
		}
	}
}

// sampleValue returns the value of the sample line named name in an
// exposition, failing t when there is none.
func sampleValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("sample %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("no sample %s in:\n%s", name, text)
	return 0
}

// TestQueueWaitObserved runs a job behind a blocker on one worker: both
// are observed when a worker starts them, and the second one's wait is
// the blocker's run.
func TestQueueWaitObserved(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	blocker := submit(t, ts, "g", "pagerank", map[string]any{"iters": 1000000})
	pollUntil(t, ts, blocker, stateIs("running"))
	queued := submit(t, ts, "g", "pagerank", map[string]any{"iters": 3})
	time.Sleep(5 * time.Millisecond)
	doJSON(t, "POST", ts.URL+"/v1/jobs/"+blocker+"/cancel", nil)
	pollUntil(t, ts, queued, stateIs("done"))

	text := scrape(t, s)
	if n := sampleValue(t, text, "nxserve_queue_wait_seconds_count"); n != 2 {
		t.Errorf("queue-wait count %g, want 2", n)
	}
	if sum := sampleValue(t, text, "nxserve_queue_wait_seconds_sum"); sum < 0.005 {
		t.Errorf("queue-wait sum %gs, want at least the 5ms the second job queued", sum)
	}
}

// TestConcurrentScrapes scrapes /metrics from four goroutines while PPR
// jobs and an ingest batch run: every payload must be a valid exposition.
// Under -race this covers the registry's scrape serialization and the
// block-cache snapshot its func families share.
func TestConcurrentScrapes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					if n == 0 {
						t.Error("scraper never scraped")
					}
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				err = metrics.ValidateExposition(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("scrape %d: %v", n, err)
					return
				}
			}
		}()
	}
	var ids []string
	for root := range 6 {
		ids = append(ids, submit(t, ts, "g", "ppr", map[string]any{"root": root}))
	}
	if code, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges",
		map[string]any{"add": []map[string]any{{"src": 1, "dst": 2}, {"src": 3, "dst": 4}}}); code != http.StatusAccepted {
		t.Errorf("ingest: status %d, body %v", code, body)
	}
	ids = append(ids, submit(t, ts, "g", "ppr", map[string]any{"root": 7}))
	for _, id := range ids {
		if b := pollUntil(t, ts, id, terminal); b["state"] != "done" {
			t.Errorf("job %s ended %v (%v)", id, b["state"], b["error"])
		}
	}
	close(stop)
	wg.Wait()
}

// docFamilyRe matches a metrics-table row of docs/http-api.md and
// captures the family it names.
var docFamilyRe = regexp.MustCompile("(?m)^\\| `(nxserve_[^`]*)` \\|")

// TestMetricsDocumented holds docs/http-api.md's table and /metrics to
// each other in both directions: every family the server exposes has a
// row giving its name, type and help string, and every row names a
// family the server exposes.
func TestMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/http-api.md")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1})
	t.Cleanup(s.Close)
	live := expositionFamilies(t, scrape(t, s))
	for name, block := range live {
		lines := strings.SplitN(block, "\n", 3)
		help := strings.TrimPrefix(lines[0], "# HELP "+name+" ")
		typ := strings.TrimPrefix(lines[1], "# TYPE "+name+" ")
		if row := fmt.Sprintf("| `%s` | %s | %s |", name, typ, help); !strings.Contains(string(doc), row) {
			t.Errorf("docs/http-api.md lacks the row %s", row)
		}
	}
	for _, m := range docFamilyRe.FindAllStringSubmatch(string(doc), -1) {
		if _, ok := live[m[1]]; !ok {
			t.Errorf("docs/http-api.md documents %s, which /metrics does not expose", m[1])
		}
	}
}
