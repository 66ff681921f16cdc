// nxbench regenerates the paper's tables and figures (§IV) on scaled
// stand-in datasets. Each experiment prints a text table whose rows
// mirror the corresponding paper artifact. It is the one source of the
// paper's numbers; the repository's own speed numbers come from
// benchmark/ (see docs/adr/ADR-010-one-way-per-number.md).
//
// Usage:
//
//	nxbench -exp all
//	nxbench -exp table4,fig7 -scale-delta -2 -threads 8
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"nxgraph/internal/bench"
	"nxgraph/internal/metrics"
)

// experiments names the paper artifacts -exp selects, in output order.
var experiments = []string{"table2", "fig6", "table4", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "table5", "table6"}

func main() {
	var (
		exps       = flag.String("exp", "all", "comma-separated experiments ("+strings.Join(experiments, ",")+") or 'all'")
		scaleDelta = flag.Int("scale-delta", 0, "dataset scale adjustment (negative shrinks)")
		threads    = flag.Int("threads", 4, "worker threads")
		iters      = flag.Int("iters", 10, "PageRank iterations")
		seed       = flag.Int64("seed", 42, "generator seed")
		cacheMB    = flag.Int("cache-mb", -1, "sub-shard block cache budget in MiB per engine (-1 = derive from each experiment's budget, 0 = disable)")
		l2Frac     = flag.Float64("cache-l2-frac", 0, "fraction of each cache budget held as encoded blobs (0 or negative = none, the default: fastest on page-cached files; 0.5-0.9 wins where a read costs more than a decode, see docs/adr/ADR-008)")
		quiet      = flag.Bool("q", false, "suppress progress logging")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	)
	flag.Parse()

	want := map[string]bool{}
	all := *exps == "all"
	for _, e := range strings.Split(*exps, ",") {
		e = strings.TrimSpace(e)
		if !all && !slices.Contains(experiments, e) {
			fmt.Fprintf(os.Stderr, "nxbench: unknown experiment %q (want %s, or all)\n", e, strings.Join(experiments, ","))
			os.Exit(2)
		}
		want[e] = true
	}
	sel := func(name string) bool { return all || want[name] }

	s := bench.NewSuite()
	s.ScaleDelta = *scaleDelta
	s.Threads = *threads
	s.PageRankIters = *iters
	s.Seed = *seed
	switch {
	case *cacheMB > 0:
		s.CacheBytes = int64(*cacheMB) << 20
	case *cacheMB == 0:
		s.CacheBytes = -1 // disable
	}
	s.CacheL2Frac = *l2Frac
	if !*quiet {
		s.Log = os.Stderr
	}
	defer s.Close()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nxbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "nxbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	show := func(t *metrics.Table, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "nxbench:", err)
			os.Exit(1)
		}
		t.Render(os.Stdout)
		fmt.Println()
	}

	if sel("table2") {
		show(s.TableII(), nil)
	}
	if sel("fig6") {
		show(s.Fig6(12), nil)
	}
	if sel("table4") {
		show(s.Table4())
	}
	if sel("fig7") {
		show(s.Fig7(nil))
	}
	if sel("fig8") {
		show(s.Fig8(nil, nil))
	}
	if sel("fig9") {
		show(s.Fig9(nil))
	}
	if sel("fig10") {
		show(s.Fig10(nil))
	}
	if sel("fig11") {
		show(s.Fig11())
	}
	if sel("fig12") {
		show(s.Fig12())
	}
	if sel("table5") {
		show(s.Table5())
	}
	if sel("table6") {
		show(s.Table6())
	}
	if sum := s.CacheSummary(); sum != "" {
		fmt.Println(sum)
	}
	if sum := s.CompressionSummary(); sum != "" {
		fmt.Println(sum)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nxbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle live-heap accounting before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "nxbench:", err)
			os.Exit(1)
		}
	}
}
