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
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	nxgraph "nxgraph"
	"nxgraph/internal/metrics"
)

func main() {
	var (
		store    = flag.String("store", "", "store directory (from nxpre)")
		algo     = flag.String("algo", "pagerank", "pagerank | ppr | bfs | sssp | wcc | scc | hits | kcore")
		iters    = flag.Int("iters", 10, "iterations (pagerank, hits)")
		damping  = flag.Float64("damping", 0.85, "PageRank damping")
		root     = flag.Uint64("root", 0, "root vertex (bfs, sssp), dense id")
		threads  = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		mem      = flag.String("mem", "0", "memory budget (e.g. 512MiB; 0 = unlimited)")
		cacheMB  = flag.Int("cache-mb", -1, "sub-shard block cache budget in MiB (-1 = derive from -mem, 0 = disable)")
		strategy = flag.String("strategy", "auto", "auto | spu | dpu | mpu")
		lockSync = flag.Bool("lock", false, "use interval-lock sync instead of callback")
		profile  = flag.String("disk", "none", "simulated disk: none | ssd | hdd")
		topk     = flag.Int("top", 10, "print top-K vertices (pagerank, hits)")
		showTr   = flag.Bool("trace", false, "print per-iteration compute-vs-stall breakdown")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()
	if *store == "" {
		fmt.Fprintln(os.Stderr, "nxrun: -store is required")
		os.Exit(2)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nxrun:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "nxrun:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nxrun:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "nxrun:", err)
			}
		}()
	}
	budget, err := metrics.ParseBytes(*mem)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nxrun:", err)
		os.Exit(2)
	}
	opt := nxgraph.Options{Threads: *threads, MemoryBudget: budget, LockSync: *lockSync}
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
		fmt.Fprintf(os.Stderr, "nxrun: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	switch *profile {
	case "none":
	case "ssd":
		opt.Profile = nxgraph.SSD
	case "hdd":
		opt.Profile = nxgraph.HDD
	default:
		fmt.Fprintf(os.Stderr, "nxrun: unknown disk profile %q\n", *profile)
		os.Exit(2)
	}

	g, err := nxgraph.Open(*store, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nxrun:", err)
		os.Exit(1)
	}
	defer g.Close()
	fmt.Printf("graph: %d vertices, %d edges, P=%d\n", g.NumVertices(), g.NumEdges(), g.P())

	printResult := func(res *nxgraph.Result) {
		fmt.Printf("%s: %d iterations in %s (%.1f MTEPS), strategy=%s, io: read %d B, written %d B\n",
			*algo, res.Iterations, res.Elapsed.Round(1e6), res.MTEPS(), res.Strategy,
			res.IO.BytesRead, res.IO.BytesWritten)
		if sum := g.CacheStats().Summary(); sum != "" {
			fmt.Printf("%s, %s resident\n", sum, metrics.Bytes(g.CacheStats().ResidentBytes))
		}
		if *showTr && res.Trace != nil {
			metrics.StepTable("per-iteration trace", res.Trace.Steps()).Render(os.Stdout)
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
		fmt.Printf("top %d by %s:\n", k, label)
		for i := 0; i < k; i++ {
			fmt.Printf("  #%-3d vertex %-10d %.6g\n", i+1, top[i].v, top[i].x)
		}
	}

	switch *algo {
	case "pagerank":
		res, err := g.PageRank(*damping, *iters)
		exitOn(err)
		printResult(res)
		printTop(res.Attrs, "rank")
	case "bfs":
		res, err := g.BFS(uint32(*root))
		exitOn(err)
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
		fmt.Printf("reached %d/%d vertices, max depth %d\n", reach, len(res.Attrs), int(maxd))
	case "sssp":
		res, err := g.SSSP(uint32(*root))
		exitOn(err)
		printResult(res)
	case "wcc":
		res, err := g.WCC()
		exitOn(err)
		printResult(res)
		comps := map[uint32]int{}
		for _, l := range res.Attrs {
			comps[uint32(l)]++
		}
		fmt.Printf("%d weakly connected components\n", len(comps))
	case "scc":
		res, err := g.SCC()
		exitOn(err)
		fmt.Printf("scc: %d components in %d rounds (%d engine iterations) in %s\n",
			res.NumComponents(), res.Rounds, res.Iterations, res.Elapsed.Round(1e6))
	case "hits":
		auth, _, err := g.HITS(*iters)
		exitOn(err)
		printTop(auth, "authority")
	case "ppr":
		res, err := g.PersonalizedPageRank(uint32(*root), *damping, *iters)
		exitOn(err)
		printResult(res)
		printTop(res.Attrs, "proximity")
	case "kcore":
		res, err := g.KCore()
		exitOn(err)
		fmt.Printf("kcore: degeneracy %d in %d passes (%d engine iterations) in %s\n",
			res.MaxCore, res.Passes, res.Iterations, res.Elapsed.Round(1e6))
	default:
		fmt.Fprintf(os.Stderr, "nxrun: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nxrun:", err)
		os.Exit(1)
	}
}
