package algorithms_test

import (
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/dynamic"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/graph"
	"nxgraph/internal/refalgo"
	"nxgraph/internal/testutil"
)

// TestSCCAndKCoreMatchOracleUnderDeltas runs SCC and KCore — the two
// algorithms whose programs hold a vertex mask — over a transposed store
// with pending adds and base-edge removals, so both replicas carry
// overlay cells and tombstoned base cells whose dirty destinations fold
// from their surviving edges (some of them from none). Both must match
// the oracle on base − removed + added at SPU, MPU and DPU, on four
// workers and on one (internal/engine's
// TestSCCAndKCoreMatchOracleUnderDeltasInSmallTasks runs it with small
// tasks).
func TestSCCAndKCoreMatchOracleUnderDeltas(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 17))
	if err != nil {
		t.Fatal(err)
	}
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4, Transpose: true})
	ids, err := st.IDMap()
	if err != nil {
		t.Fatal(err)
	}
	n := oracle.NumVertices
	log, err := dynamic.NewDeltaLog(st)
	if err != nil {
		t.Fatal(err)
	}
	// Remove every copy of every seventh base pair and every in-edge of
	// a few vertices (whose dirty destinations then keep no edge), then
	// add edges that close new cycles.
	removed := map[[2]uint32]bool{}
	for i, ed := range oracle.Edges {
		if i%7 == 0 || ed.Dst%61 == 5 {
			removed[[2]uint32{ed.Src, ed.Dst}] = true
		}
	}
	for p := range removed {
		log.Remove(ids[p[0]], ids[p[1]])
	}
	mutated := &graph.EdgeList{NumVertices: n}
	for _, ed := range oracle.Edges {
		if !removed[[2]uint32{ed.Src, ed.Dst}] {
			mutated.Edges = append(mutated.Edges, ed)
		}
	}
	for i := uint32(0); i < n/2; i++ {
		src, dst := (i*37+11)%n, (i*53+7)%n
		log.Add(ids[src], ids[dst], 1)
		mutated.Edges = append(mutated.Edges, graph.Edge{Src: src, Dst: dst, Weight: 1})
	}
	wantSCC := refalgo.SCC(graph.BuildAdjacency(mutated))
	wantCore := refalgo.KCore(mutated)

	for _, cc := range configCases {
		if cc.name == "spu-streamed" {
			continue // redundant with spu-callback here
		}
		t.Run(cc.name, func(t *testing.T) {
			e, err := engine.New(st, engine.Config{
				Threads:      cc.threads,
				MemoryBudget: cc.budget(n),
				Strategy:     cc.strategy,
			})
			if err != nil {
				t.Fatal(err)
			}
			e.SetOverlayProvider(log.Overlay)
			scc, err := algorithms.SCC(e)
			if err != nil {
				t.Fatalf("SCC: %v", err)
			}
			testutil.SamePartition(t, scc.Components, wantSCC)
			kc, err := algorithms.KCore(e)
			if err != nil {
				t.Fatalf("KCore: %v", err)
			}
			for v := range wantCore {
				if kc.Core[v] != wantCore[v] {
					t.Fatalf("vertex %d: core %d, want %d", v, kc.Core[v], wantCore[v])
				}
			}
		})
	}
}
