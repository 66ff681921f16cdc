// nxrun executes a graph algorithm over a DSSS store built by nxpre.
//
// Usage:
//
//	nxrun -store /data/mygraph -algo pagerank -iters 10
//	nxrun -store /data/mygraph -algo bfs -root 0
//	nxrun -store /data/mygraph -algo scc -strategy dpu -mem 1GiB
//	nxrun -store /data/mygraph -algo pagerank -trace
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	nxgraph "nxgraph"
	"nxgraph/internal/metrics"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is nxrun with its arguments and output streams passed in. It
// returns the exit code — 2 for a usage error, 1 for a failed run — so
// that every deferred cleanup (the CPU profile's flush, the heap
// profile, closing the store) runs before the process exits.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nxrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		store    = fs.String("store", "", "store directory (from nxpre)")
		algo     = fs.String("algo", "pagerank", "pagerank | ppr | bfs | sssp | wcc | scc | hits | kcore")
		iters    = fs.Int("iters", 10, "iterations (pagerank, hits)")
		damping  = fs.Float64("damping", 0.85, "PageRank damping")
		root     = fs.Uint64("root", 0, "root vertex (bfs, sssp, ppr), dense id")
		threads  = fs.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		mem      = fs.String("mem", "0", "memory budget (e.g. 512MiB; 0 = unlimited)")
		cacheMB  = fs.Int("cache-mb", -1, "sub-shard block cache budget in MiB (-1 = derive from -mem, 0 = disable)")
		strategy = fs.String("strategy", "auto", "auto | spu | dpu | mpu")
		profile  = fs.String("disk", "none", "simulated disk: none | ssd | hdd")
		topk     = fs.Int("top", 10, "print top-K vertices (pagerank, hits)")
		showTr   = fs.Bool("trace", false, "print per-iteration compute-vs-stall breakdown")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *store == "" {
		fmt.Fprintln(stderr, "nxrun: -store is required")
		return 2
	}
	if *root > math.MaxUint32 {
		fmt.Fprintf(stderr, "nxrun: -root %d exceeds the largest vertex id %d\n", *root, uint32(math.MaxUint32))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "nxrun:", err)
		return 1
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, "nxrun:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "nxrun:", err)
			}
		}()
	}
	budget, err := metrics.ParseBytes(*mem)
	if err != nil {
		fmt.Fprintln(stderr, "nxrun:", err)
		return 2
	}
	opt := nxgraph.Options{Threads: *threads, MemoryBudget: budget}
	switch {
	case *cacheMB > 0:
		opt.CacheBytes = int64(*cacheMB) << 20
	case *cacheMB == 0:
		opt.CacheBytes = -1 // disable
	}
	switch *strategy {
	case "auto":
		opt.Strategy = nxgraph.Auto
	case "spu":
		opt.Strategy = nxgraph.SPU
	case "dpu":
		opt.Strategy = nxgraph.DPU
	case "mpu":
		opt.Strategy = nxgraph.MPU
	default:
		fmt.Fprintf(stderr, "nxrun: unknown strategy %q\n", *strategy)
		return 2
	}
	switch *profile {
	case "none":
	case "ssd":
		opt.Profile = nxgraph.SSD
	case "hdd":
		opt.Profile = nxgraph.HDD
	default:
		fmt.Fprintf(stderr, "nxrun: unknown disk profile %q\n", *profile)
		return 2
	}

	g, err := nxgraph.Open(*store, opt)
	if err != nil {
		return fail(err)
	}
	defer g.Close()
	fmt.Fprintf(stdout, "graph: %d vertices, %d edges, P=%d\n", g.NumVertices(), g.NumEdges(), g.P())

	printResult := func(res *nxgraph.Result) {
		fmt.Fprintf(stdout, "%s: %d iterations in %s (%.1f MTEPS), strategy=%s, io: read %d B, written %d B\n",
			*algo, res.Iterations, res.Elapsed.Round(1e6), res.MTEPS(), res.Strategy,
			res.IO.BytesRead, res.IO.BytesWritten)
		if sum := g.CacheStats().Summary(); sum != "" {
			fmt.Fprintf(stdout, "%s, %s resident\n", sum, metrics.Bytes(g.CacheStats().ResidentBytes))
		}
		if *showTr && res.Trace != nil {
			metrics.StepTable("per-iteration trace", res.Trace.Steps()).Render(stdout)
		}
	}
	printTop := func(vals []float64, label string) {
		type kv struct {
			v uint32
			x float64
		}
		top := make([]kv, 0, len(vals))
		for v, x := range vals {
			top = append(top, kv{uint32(v), x})
		}
		sort.Slice(top, func(i, j int) bool { return top[i].x > top[j].x })
		k := *topk
		if k > len(top) {
			k = len(top)
		}
		fmt.Fprintf(stdout, "top %d by %s:\n", k, label)
		for i := 0; i < k; i++ {
			fmt.Fprintf(stdout, "  #%-3d vertex %-10d %.6g\n", i+1, top[i].v, top[i].x)
		}
	}

	switch *algo {
	case "pagerank":
		res, err := g.PageRank(*damping, *iters)
		if err != nil {
			return fail(err)
		}
		printResult(res)
		printTop(res.Attrs, "rank")
	case "bfs":
		res, err := g.BFS(uint32(*root))
		if err != nil {
			return fail(err)
		}
		printResult(res)
		reach, maxd := 0, 0.0
		for _, d := range res.Attrs {
			if !math.IsInf(d, 1) {
				reach++
				if d > maxd {
					maxd = d
				}
			}
		}
		fmt.Fprintf(stdout, "reached %d/%d vertices, max depth %d\n", reach, len(res.Attrs), int(maxd))
	case "sssp":
		res, err := g.SSSP(uint32(*root))
		if err != nil {
			return fail(err)
		}
		printResult(res)
	case "wcc":
		res, err := g.WCC()
		if err != nil {
			return fail(err)
		}
		printResult(res)
		comps := map[uint32]int{}
		for _, l := range res.Attrs {
			comps[uint32(l)]++
		}
		fmt.Fprintf(stdout, "%d weakly connected components\n", len(comps))
	case "scc":
		res, err := g.SCC()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "scc: %d components in %d rounds (%d engine iterations) in %s\n",
			res.NumComponents(), res.Rounds, res.Iterations, res.Elapsed.Round(1e6))
	case "hits":
		auth, _, err := g.HITS(*iters)
		if err != nil {
			return fail(err)
		}
		printTop(auth, "authority")
	case "ppr":
		res, err := g.PersonalizedPageRank(uint32(*root), *damping, *iters)
		if err != nil {
			return fail(err)
		}
		printResult(res)
		printTop(res.Attrs, "proximity")
	case "kcore":
		res, err := g.KCore()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "kcore: degeneracy %d in %d passes (%d engine iterations) in %s\n",
			res.MaxCore, res.Passes, res.Iterations, res.Elapsed.Round(1e6))
	default:
		fmt.Fprintf(stderr, "nxrun: unknown algorithm %q\n", *algo)
		return 2
	}
	return 0
}
