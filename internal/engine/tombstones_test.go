package engine

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"nxgraph/internal/graph"
	"nxgraph/internal/storage"
)

// TestSplitRuns: whatever the dirty set, the visited ranges tile
// [k0, k1) exactly once, in ascending order, with every in-range dirty
// index visited alone and flagged, and no clean run containing one.
func TestSplitRuns(t *testing.T) {
	type rng struct {
		a, b  int
		dirty bool
	}
	cases := []struct {
		name   string
		dirty  []int
		k0, k1 int
		want   []rng
	}{
		{"no tombstones", nil, 3, 9, []rng{{3, 9, false}}},
		{"none in range", []int{1, 2, 9, 40}, 3, 9, []rng{{3, 9, false}}},
		{"dirty at k0", []int{3}, 3, 9, []rng{{3, 4, true}, {4, 9, false}}},
		{"dirty at k1-1", []int{8}, 3, 9, []rng{{3, 8, false}, {8, 9, true}}},
		{"dirty just outside both ends", []int{2, 9}, 3, 9, []rng{{3, 9, false}}},
		{"adjacent", []int{5, 6}, 3, 9, []rng{{3, 5, false}, {5, 6, true}, {6, 7, true}, {7, 9, false}}},
		{"interior", []int{0, 6, 20}, 3, 9, []rng{{3, 6, false}, {6, 7, true}, {7, 9, false}}},
		{"all dirty", []int{3, 4, 5}, 3, 6, []rng{{3, 4, true}, {4, 5, true}, {5, 6, true}}},
		{"single destination, dirty", []int{7}, 7, 8, []rng{{7, 8, true}}},
		{"empty range", []int{4}, 4, 4, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []rng
			splitRuns(tc.dirty, tc.k0, tc.k1, func(a, b int, dirty bool) {
				got = append(got, rng{a, b, dirty})
			})
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ranges = %v, want %v", got, tc.want)
			}
			k := tc.k0
			for _, r := range got {
				if r.a != k || r.b <= r.a {
					t.Fatalf("ranges %v do not tile [%d,%d) in order", got, tc.k0, tc.k1)
				}
				k = r.b
			}
			if k != tc.k1 && tc.k1 > tc.k0 {
				t.Fatalf("ranges %v stop at %d, want %d", got, k, tc.k1)
			}
		})
	}
}

// TestResolveTombs: keys resolve to the indices of the destinations they
// name (first, interior with two keys, last), each with a one-destination
// cell of exactly its surviving edges in edge order and with their
// weights — empty when every edge goes — and a cell without keys, or
// whose keys name no destination of the sub-shard, stays on the nil
// path.
func TestResolveTombs(t *testing.T) {
	var ss *storage.SubShard
	edges := []graph.Edge{{Src: 1, Dst: 10, Weight: 1}, {Src: 2, Dst: 10, Weight: 2}, {Src: 7, Dst: 10, Weight: 3},
		{Src: 2, Dst: 12, Weight: 4}, {Src: 3, Dst: 12, Weight: 5}, {Src: 1, Dst: 15, Weight: 6},
		{Src: 9, Dst: 15, Weight: 7}, {Src: 4, Dst: 19, Weight: 8}}
	if err := storage.BuildSubShards(edges, 20, 1, true, func(_ int, s *storage.SubShard) error {
		ss = s
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := resolveTombs(nil, ss); got != nil {
		t.Fatalf("no keys: got %+v, want nil", got)
	}
	if got := resolveTombs([]uint64{TombKey(5, 11), TombKey(5, 30)}, ss); got != nil {
		t.Fatalf("keys naming absent destinations: got %+v, want nil", got)
	}
	keys := []uint64{TombKey(2, 10), TombKey(2, 12), TombKey(3, 12), TombKey(4, 19)}
	tb := resolveTombs(keys, ss)
	if tb == nil || !reflect.DeepEqual(tb.dirty, []int{0, 1, 3}) {
		t.Fatalf("dirty = %+v, want [0 1 3]", tb)
	}
	want := []storage.SubShard{
		{Dsts: []uint32{10}, Offsets: []uint32{0, 2}, Srcs: []uint32{1, 7}, Weights: []float32{1, 3}},
		{Dsts: []uint32{12}, Offsets: []uint32{0, 0}, Srcs: []uint32{}, Weights: []float32{}},
		{Dsts: []uint32{19}, Offsets: []uint32{0, 0}, Srcs: []uint32{}, Weights: []float32{}},
	}
	for x := range want {
		c := tb.cells[x]
		if !slices.Equal(c.Dsts, want[x].Dsts) || !slices.Equal(c.Offsets, want[x].Offsets) ||
			!slices.Equal(c.Srcs, want[x].Srcs) || !slices.Equal(c.Weights, want[x].Weights) || c.Weights == nil {
			t.Errorf("cell %d = %+v, want %+v", x, c, want[x])
		}
	}

	// gather hands a dirty destination its survivor cell, as destination
	// 0 with the hub window shifted to its entry, and clean runs the base
	// cell.
	const L = 2
	hub := make([]float64, ss.NumDsts()*L)
	var calls []string
	kernel := func(c *storage.SubShard, h []float64, k0, k1 int) {
		calls = append(calls, fmt.Sprintf("%d-%d:base=%v,dst=%d,hub=%d", k0, k1, c == ss, c.Dsts[k0], len(h)))
		if h != nil {
			h[k0*L] = float64(c.Dsts[k0])
		}
	}
	tb.gather(ss, hub, L, 0, 4, kernel)
	if want := []string{"0-1:base=false,dst=10,hub=2", "0-1:base=false,dst=12,hub=2",
		"2-3:base=true,dst=15,hub=8", "0-1:base=false,dst=19,hub=2"}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("gather calls = %v, want %v", calls, want)
	}
	if want := []float64{10, 0, 12, 0, 15, 0, 19, 0}; !slices.Equal(hub, want) {
		t.Fatalf("hub = %v, want %v", hub, want)
	}
	calls = nil
	tb.gather(ss, nil, L, 1, 3, kernel)
	if want := []string{"0-1:base=false,dst=12,hub=0", "2-3:base=true,dst=15,hub=0"}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("accumulator-side gather calls = %v, want %v", calls, want)
	}
	calls = nil
	(*cellTombs)(nil).gather(ss, nil, L, 0, 4, kernel)
	if want := []string{"0-4:base=true,dst=10,hub=0"}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("nil gather calls = %v, want %v", calls, want)
	}
}
