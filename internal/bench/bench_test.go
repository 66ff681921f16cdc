package bench

import (
	"math"
	"strings"
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/metrics"
	"nxgraph/internal/testutil"
)

// tinySuite shrinks every dataset far enough that the full experiment
// matrix runs in CI time.
func tinySuite(t *testing.T) *Suite {
	t.Helper()
	s := NewSuite()
	s.ScaleDelta = -8
	s.Threads = 2
	s.PageRankIters = 2
	t.Cleanup(s.Close)
	return s
}

func checkTable(t *testing.T, tab *metrics.Table, err error, minRows int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() < minRows {
		t.Fatalf("table has %d rows, want at least %d:\n%s", tab.Rows(), minRows, tab)
	}
	if !strings.Contains(tab.String(), "==") {
		t.Fatal("table missing title")
	}
}

func TestTableII(t *testing.T) {
	checkTable(t, tinySuite(t).TableII(), nil, 16)
}

func TestFig6(t *testing.T) {
	checkTable(t, tinySuite(t).Fig6(8), nil, 8)
}

func TestTable4(t *testing.T) {
	tab, err := tinySuite(t).Table4()
	checkTable(t, tab, err, 3)
}

// TestSrcSortedAblationMatchesResults: Table IV's source-sorted side
// computes the engine's PageRank on the same store — to rounding, as it
// associates each destination's sum differently.
func TestSrcSortedAblationMatchesResults(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{4, 12} {
		st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: p})
		e, err := engine.New(st, engine.Config{Strategy: engine.SPU, Threads: 3})
		if err != nil {
			t.Fatal(err)
		}
		want, err := algorithms.PageRank(e, 0.85, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := srcSortedPageRank(st, 0.85, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.Attrs {
			if math.Abs(got[v]-want.Attrs[v]) > 1e-12 {
				t.Fatalf("P=%d: orderings disagree at %d: %v vs %v", p, v, got[v], want.Attrs[v])
			}
		}
	}
}

func TestFig7(t *testing.T) {
	tab, err := tinySuite(t).Fig7([]int{2, 4})
	checkTable(t, tab, err, 2)
}

func TestFig8(t *testing.T) {
	tab, err := tinySuite(t).Fig8([]int{1, 2}, []float64{0.5})
	checkTable(t, tab, err, 9)
}

// The comparison figures give each cell three systems (nxgraph,
// graphchi-like, turbograph-like) over the three real-graph stand-ins.

func TestFig9(t *testing.T) {
	tab, err := tinySuite(t).Fig9([]float64{0.5, 1})
	checkTable(t, tab, err, 3*2*3) // graphs × budgets × systems
}

func TestFig10(t *testing.T) {
	tab, err := tinySuite(t).Fig10([]int{2})
	checkTable(t, tab, err, 3*1*3) // graphs × thread counts × systems
}

func TestFig11(t *testing.T) {
	tab, err := tinySuite(t).Fig11()
	checkTable(t, tab, err, 5*3) // mesh scales × systems
}

func TestFig12(t *testing.T) {
	tab, err := tinySuite(t).Fig12()
	// Per graph: nxgraph's bfs, scc and wcc (3), then each of the two
	// baselines' bfs, scc (n/a) and wcc (2·3 = 6).
	checkTable(t, tab, err, 3*(3+6))
}

func TestTable5(t *testing.T) {
	tab, err := tinySuite(t).Table5()
	checkTable(t, tab, err, 7)
}

func TestTable6(t *testing.T) {
	tab, err := tinySuite(t).Table6()
	checkTable(t, tab, err, 5)
}
