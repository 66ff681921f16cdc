package engine

import (
	"errors"
	"testing"

	"nxgraph/internal/gen"
	"nxgraph/internal/storage"
	"nxgraph/internal/testutil"
)

func overlayTestStore(t *testing.T) *storage.Store {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(6, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 2})
	return st
}

// TestOverlayProviderErrorFailsRun: a failing snapshot must surface at
// NewRun instead of silently serving the base graph.
func TestOverlayProviderErrorFailsRun(t *testing.T) {
	st := overlayTestStore(t)
	e, err := New(st, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	e.SetOverlayProvider(func() (Overlay, error) { return nil, boom })
	if _, err := e.NewRun(degProg{}, Forward); !errors.Is(err, boom) {
		t.Fatalf("NewRun error = %v, want %v", err, boom)
	}
}

// degProg is a trivial program (sums in-neighbour degree shares once).
type degProg struct{}

func (degProg) Name() string                                     { return "deg" }
func (degProg) Zero() float64                                    { return 0 }
func (degProg) Init(v uint32) (float64, bool)                    { return 1, true }
func (degProg) Gather(a float64, d uint32, w float32) float64    { return a }
func (degProg) Sum(a, b float64) float64                         { return a + b }
func (degProg) Apply(v uint32, old, acc float64) (float64, bool) { return acc, false }
