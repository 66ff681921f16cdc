package main

import (
	"math"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// quickRun runs one workload in one mode on a scale-12 graph.
func quickRun(t *testing.T, name string, seed int64, traced bool) *report {
	t.Helper()
	cfg := runConfig{seed: seed, seconds: 0.4, traced: traced, quick: true, outDir: t.TempDir()}
	for _, wl := range workloads {
		if wl.name == name {
			cfg.wl = wl
		}
	}
	cfg.wl.scale = 12
	scratch, err := newScratch(cfg.outDir, name)
	if err != nil {
		t.Fatal(err)
	}
	defer scratch.remove()
	rep, err := run(cfg, scratch)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", name, traced, err)
	}
	return rep
}

// TestManifestMatchesProgram holds BENCHMARK.json against the metric
// lists the program emits and against the limits of the driver's
// contract.
func TestManifestMatchesProgram(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, wl := range m.Workloads {
		if wl.Name != workloads[i].name || !nameRE.MatchString(wl.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, wl.Name, workloads[i].name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d", len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	hasSetup := false
	for i, e := range m.EndToEnd {
		if got := (metricDecl{e.Name, e.Unit, e.Better}); got != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %v, the program declares %v", i, got, endToEnd[i])
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		hasSetup = hasSetup || e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower"
	}
	for i, e := range m.PerLayer {
		if got := (metricDecl{e.Name, e.Unit, e.Better}); got != perLayer[i] {
			t.Errorf("per_layer[%d] = %v, the program declares %v", i, got, perLayer[i])
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) is malformed or declared twice", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	// 4 + 22 runs per workload, each a window plus about 15 s of set-up,
	// oracle and probes, and two builds, inside the driver's 3420 s.
	if total := (4+22*len(m.Workloads))*(m.RunSeconds+15) + 120; total > 3420 {
		t.Errorf("run_seconds = %d gives an estimated %d s for the driver's runs, over 3420", m.RunSeconds, total)
	}
}

// TestQuickRunsEmitDeclaredMetrics runs every workload in both modes and
// checks the report carries exactly the declared metrics, finite, with
// their units, and no failed operation.
func TestQuickRunsEmitDeclaredMetrics(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			rep := quickRun(t, wl.name, 7, traced)
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			if len(rep.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(rep.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", wl.name, traced, d.Name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.name, d.Name, m.Value)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
		}
	}
}

// TestExactCountersRepeat checks that the metrics that are counts of the
// input, not timings, repeat for a seed and move with it.
func TestExactCountersRepeat(t *testing.T) {
	exactEndToEnd := []string{"store_bytes_per_edge"}
	exactLayer := []string{"storage.encoded_bytes_per_edge", "storage.decoded_bytes_per_edge", "preprocess.written_bytes_per_edge",
		"algorithms.pagerank_iters", "algorithms.wcc_iters", "algorithms.bfs_iters", "diskio.read_bytes_per_edge"}
	for _, c := range []struct {
		traced bool
		names  []string
	}{{false, exactEndToEnd}, {true, exactLayer}} {
		a, b, other := quickRun(t, "batch-warm", 7, c.traced), quickRun(t, "batch-warm", 7, c.traced), quickRun(t, "batch-warm", 8, c.traced)
		differs := false
		for _, name := range c.names {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %v then %v for the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
			differs = differs || a.Metrics[name].Value != other.Metrics[name].Value
		}
		if !differs {
			t.Errorf("traced=%v: seed 8 reproduced every exact counter of seed 7; inputs do not follow the seed", c.traced)
		}
	}
}
