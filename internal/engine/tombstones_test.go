package engine

import (
	"fmt"
	"reflect"
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
// name (first, interior with a parallel pair, last), the predicate
// matches exactly the listed pairs, and a cell without keys — or whose
// keys name no destination of the sub-shard — stays on the nil path.
func TestResolveTombs(t *testing.T) {
	var ss *storage.SubShard
	edges := []graph.Edge{{Src: 1, Dst: 10}, {Src: 2, Dst: 10}, {Src: 2, Dst: 12},
		{Src: 3, Dst: 12}, {Src: 1, Dst: 15}, {Src: 9, Dst: 15}, {Src: 4, Dst: 19}}
	if err := storage.BuildSubShards(edges, 20, 1, false, func(_ int, s *storage.SubShard) error {
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
	keys := []uint64{TombKey(1, 10), TombKey(2, 12), TombKey(3, 12), TombKey(4, 19)}
	tb := resolveTombs(keys, ss)
	if tb == nil || !reflect.DeepEqual(tb.dirty, []int{0, 1, 3}) {
		t.Fatalf("dirty = %+v, want [0 1 3]", tb)
	}
	dead := map[[2]uint32]bool{{1, 10}: true, {2, 12}: true, {3, 12}: true, {4, 19}: true}
	for k, d := range ss.Dsts {
		for _, s := range ss.Srcs[ss.Offsets[k]:ss.Offsets[k+1]] {
			if got := tb.del(s, d); got != dead[[2]uint32{s, d}] {
				t.Errorf("del(%d,%d) = %v, want %v", s, d, got, !got)
			}
		}
	}

	// gather hands the predicate to dirty destinations only.
	var calls []string
	tb.gather(0, 4, func(del delPred, k0, k1 int) {
		calls = append(calls, fmt.Sprintf("%d-%d:%v", k0, k1, del != nil))
	})
	if want := []string{"0-1:true", "1-2:true", "2-3:false", "3-4:true"}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("gather calls = %v, want %v", calls, want)
	}
	calls = nil
	(*cellTombs)(nil).gather(0, 4, func(del delPred, k0, k1 int) {
		calls = append(calls, fmt.Sprintf("%d-%d:%v", k0, k1, del != nil))
	})
	if want := []string{"0-4:false"}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("nil gather calls = %v, want %v", calls, want)
	}
}
