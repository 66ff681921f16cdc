package metrics

import (
	"io"
	"strings"
	"sync"
	"testing"
)

func TestServerStatsPrometheus(t *testing.T) {
	s := NewServerStats()
	s.JobsSubmitted.Add(3)
	s.JobsCancelled.Add(1)
	s.CacheHits.Add(2)
	s.QueueDepth.Store(5)
	s.JobDuration.Observe(0.5)
	s.IngestBatch.Observe(128)

	out := render(t, s.Registry)
	for _, want := range []string{
		"# HELP nxserve_jobs_submitted_total ",
		"# TYPE nxserve_jobs_submitted_total counter",
		"nxserve_jobs_submitted_total 3",
		"nxserve_jobs_cancelled_total 1",
		"nxserve_cache_hits_total 2",
		"# TYPE nxserve_queue_depth gauge",
		"nxserve_queue_depth 5",
		"nxserve_jobs_failed_total 0",
		"nxserve_job_duration_seconds_count 1",
		"nxserve_ingest_batch_edges_sum 128",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestServerHistogramsExposition(t *testing.T) {
	s := NewServerStats()
	s.JobDuration.Observe(0.5)
	s.IngestBatch.Observe(128)
	out := render(t, s.Registry)
	for _, want := range []string{
		"# TYPE nxserve_job_duration_seconds histogram",
		`nxserve_job_duration_seconds_bucket{le="+Inf"} 1`,
		"nxserve_job_duration_seconds_sum 0.5",
		"# TYPE nxserve_ingest_batch_edges histogram",
		`nxserve_ingest_batch_edges_bucket{le="+Inf"} 1`,
		"nxserve_ingest_batch_edges_count 1",
		"# TYPE nxserve_queue_wait_seconds histogram",
		"nxserve_queue_wait_seconds_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFuncFamiliesShareOneScrapeSnapshot(t *testing.T) {
	r := &Registry{}
	var snap, reads int64
	r.OnScrape(func() { reads++; snap = reads * 10 })
	r.CounterFunc("a_total", "a", func() int64 { return snap })
	r.GaugeFunc("b", "b", func() int64 { return snap + 1 })
	out := render(t, r)
	if reads != 1 || !strings.Contains(out, "a_total 10\n") || !strings.Contains(out, "b 11\n") {
		t.Fatalf("after one scrape: %d hook calls, exposition:\n%s", reads, out)
	}
	// Concurrent scrapes are serialized, so the hook's unguarded state
	// is safe (run with -race).
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if reads != 5 {
		t.Fatalf("hook ran %d times over 5 scrapes", reads)
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := &Registry{}
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("second declaration of x_total did not panic")
		}
	}()
	r.Gauge("x_total", "x again")
}

func TestBuildInfoEscaping(t *testing.T) {
	r := &Registry{}
	r.BuildInfo("b_info", "build", "v1\"2\\3\n4")
	if out := render(t, r); !strings.Contains(out, `b_info{version="v1\"2\\3\n4",go_version="go`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
	r = &Registry{}
	r.BuildInfo("b_info", "build", "")
	if out := render(t, r); !strings.Contains(out, `version="dev"`) {
		t.Fatalf("empty version not reported as dev:\n%s", out)
	}
}
