// nxpre preprocesses a text edge list into a DSSS store (degreeing +
// sharding, paper §III-A).
//
// Usage:
//
//	nxpre -in graph.txt -store /data/mygraph -p 12 -transpose
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	nxgraph "nxgraph"
)

func main() {
	var (
		in        = flag.String("in", "", "input edge list (src dst [weight] per line)")
		store     = flag.String("store", "", "output store directory")
		p         = flag.Int("p", 12, "number of vertex intervals (P)")
		weighted  = flag.Bool("weighted", false, "retain edge weights")
		transpose = flag.Bool("transpose", false, "also materialize reverse edges (needed by wcc/scc/hits/kcore)")
		verify    = flag.Bool("verify", false, "verify every store invariant after building")
	)
	flag.Parse()
	if *in == "" || *store == "" {
		fmt.Fprintln(os.Stderr, "nxpre: -in and -store are required")
		flag.Usage()
		os.Exit(2)
	}
	start := time.Now()
	g, err := nxgraph.BuildFromFile(*store, *in, nxgraph.Options{
		P: *p, Weighted: *weighted, Transpose: *transpose,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nxpre:", err)
		os.Exit(1)
	}
	defer g.Close()
	if *verify {
		if err := g.Verify(); err != nil {
			fmt.Fprintln(os.Stderr, "nxpre: verification failed:", err)
			os.Exit(1)
		}
		fmt.Println("nxpre: store verified")
	}
	fmt.Printf("nxpre: store %s ready in %s: %d vertices, %d edges, P=%d\n",
		*store, time.Since(start).Round(time.Millisecond), g.NumVertices(), g.NumEdges(), g.P())
}
