package engine

import (
	"errors"
	"strings"
	"testing"

	"nxgraph/internal/gen"
	"nxgraph/internal/storage"
	"nxgraph/internal/testutil"
)

// stubOverlay is a minimal Overlay for provider-plumbing tests.
type stubOverlay struct {
	out, in []uint32
}

func (s *stubOverlay) Cell(i, j int, transpose bool) *storage.SubShard  { return nil }
func (s *stubOverlay) CellTombstones(i, j int, transpose bool) []uint64 { return nil }
func (s *stubOverlay) Degrees() (out, in []uint32)                      { return s.out, s.in }
func (s *stubOverlay) DeltaEdges() int64                                { return 0 }

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

// TestOverlayRejectsSrcSortedAblation: the Table IV ablation path has no
// overlay hook and must refuse rather than drop deltas.
func TestOverlayRejectsSrcSortedAblation(t *testing.T) {
	st := overlayTestStore(t)
	e, err := New(st, Config{Threads: 1, Order: SrcSortedCoarse, Strategy: SPU})
	if err != nil {
		t.Fatal(err)
	}
	out, in, err := st.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	e.SetOverlayProvider(func() (Overlay, error) { return &stubOverlay{out, in}, nil })
	_, err = e.NewRun(degProg{}, Forward)
	if err == nil || !strings.Contains(err.Error(), "source-sorted") {
		t.Fatalf("NewRun error = %v, want source-sorted rejection", err)
	}
	// A nil snapshot keeps the ablation path usable.
	e.SetOverlayProvider(func() (Overlay, error) { return nil, nil })
	run, err := e.NewRun(degProg{}, Forward)
	if err != nil {
		t.Fatalf("NewRun with empty overlay: %v", err)
	}
	run.Close()
}

// degProg is a trivial program (sums in-neighbour degree shares once).
type degProg struct{}

func (degProg) Name() string                                     { return "deg" }
func (degProg) Zero() float64                                    { return 0 }
func (degProg) Init(v uint32) (float64, bool)                    { return 1, true }
func (degProg) Gather(a float64, d uint32, w float32) float64    { return a }
func (degProg) Sum(a, b float64) float64                         { return a + b }
func (degProg) Apply(v uint32, old, acc float64) (float64, bool) { return acc, false }
