package dynamic_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/dynamic"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/preprocess"
	"nxgraph/internal/storage"
	"nxgraph/internal/testutil"
)

// baseEdgeSet indexes the base store's edges by dense pair, with each
// pair's copy count.
func baseEdgeSet(t *testing.T, st *storage.Store) map[[2]uint32]int {
	t.Helper()
	set := make(map[[2]uint32]int)
	if err := st.ForEachEdge(func(s, d uint32, _ float32) error {
		set[[2]uint32{s, d}]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return set
}

// tombstoneKeys counts the keys ov lists over all cells of one replica.
func tombstoneKeys(ov engine.Overlay, p int, transpose bool) int {
	n := 0
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			n += len(ov.CellTombstones(i, j, transpose))
		}
	}
	return n
}

// TestRemoveOfPendingAddLeavesNoTombstone is the regression test for
// compile marking a cell as carrying deletes for every removed pair: a
// removal that only cancels a pending insertion kills no base edge, so
// it must leave no tombstone in either replica and change neither the
// degrees nor the edge delta — the snapshot equals the one compiled
// without the add/remove pair, and serves exactly what Rebuild builds.
func TestRemoveOfPendingAddLeavesNoTombstone(t *testing.T) {
	base, err := gen.RMAT(gen.DefaultRMAT(8, 6, 13))
	if err != nil {
		t.Fatal(err)
	}
	const P = 4
	st, _ := testutil.BuildStore(t, base, testutil.StoreOptions{P: P, Transpose: true})
	ids, err := st.IDMap()
	if err != nil {
		t.Fatal(err)
	}
	edges := baseEdgeSet(t, st)
	m := st.Meta()
	// (a, b): absent from the base. (c, d): absent too, and d has no
	// in-edge from c's interval, so the surviving insertion is d's whole
	// fold for that row and the overlay matches Rebuild bit for bit.
	var a, b, c, d uint32
	found := 0
	for s := uint32(0); s < m.NumVertices && found < 2; s++ {
		for v := m.NumVertices - 1; v > 0 && found < 2; v-- {
			if s == v || edges[[2]uint32{s, v}] > 0 {
				continue
			}
			if found == 0 {
				a, b, found = s, v, 1
				continue
			}
			rowEmpty := v != b
			for pair := range edges {
				if pair[1] == v && m.IntervalOf(pair[0]) == m.IntervalOf(s) {
					rowEmpty = false
					break
				}
			}
			if rowEmpty {
				c, d, found = s, v, 2
			}
		}
	}
	if found < 2 {
		t.Fatal("fixture graph too dense to place the pairs")
	}

	log, err := dynamic.NewDeltaLog(st)
	if err != nil {
		t.Fatal(err)
	}
	log.Add(ids[a], ids[b], 1)
	log.Remove(ids[a], ids[b])
	// Nothing servable: the removal cancelled the only insertion and
	// there is no base copy to tombstone.
	if ov, err := log.Overlay(); err != nil || ov != nil {
		t.Fatalf("add+remove of an absent pair: overlay = %v, %v; want nil, nil", ov, err)
	}
	log.Add(ids[c], ids[d], 1)
	ov, err := log.Overlay()
	if err != nil || ov == nil {
		t.Fatalf("overlay = %v, %v", ov, err)
	}
	control, err := dynamic.NewDeltaLog(st)
	if err != nil {
		t.Fatal(err)
	}
	control.Add(ids[c], ids[d], 1)
	cov, err := control.Overlay()
	if err != nil {
		t.Fatal(err)
	}
	if n := tombstoneKeys(ov, P, false) + tombstoneKeys(ov, P, true); n != 0 {
		t.Fatalf("%d tombstone keys for a removal with no base copy, want 0", n)
	}
	if !reflect.DeepEqual(ov, cov) {
		t.Fatal("snapshot differs from the one compiled without the add/remove pair")
	}
	if ov.DeltaEdges() != 1 {
		t.Fatalf("DeltaEdges = %d, want 1", ov.DeltaEdges())
	}

	rb := rebuiltStore(t, log, preprocess.Options{P: P, Transpose: true})
	want := ranksByOrig(t, mustEngine(t, rb, engine.Config{Threads: 2}), rb)
	got := ranksByOrig(t, overlayEngine(t, st, log, engine.Config{Threads: 2}), st)
	for id, w := range want {
		if math.Float64bits(w) != math.Float64bits(got[id]) {
			t.Fatalf("vertex %d: rank %v via overlay, %v after rebuild", id, got[id], w)
		}
	}
	wres, err := algorithms.WCC(mustEngine(t, rb, engine.Config{Threads: 2}))
	if err != nil {
		t.Fatal(err)
	}
	gres, err := algorithms.WCC(overlayEngine(t, st, log, engine.Config{Threads: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wres.Attrs, gres.Attrs) {
		t.Fatal("WCC labels via overlay differ from the rebuilt store's")
	}
}

// TestOverlayMemoSkipsResolvedCells: resolving a removed pair's base
// copies reads its forward cell once per log lifetime. A re-compile
// after an append reads nothing when every removed pair is already
// resolved, and only the new pair's cell otherwise.
func TestOverlayMemoSkipsResolvedCells(t *testing.T) {
	base, err := gen.RMAT(gen.DefaultRMAT(9, 8, 17))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := testutil.BuildStore(t, base, testutil.StoreOptions{P: 4, Transpose: true})
	ids, err := st.IDMap()
	if err != nil {
		t.Fatal(err)
	}
	m := st.Meta()
	real := testutil.BaseEdgesByCell(t, st, 2)
	pairIn := func(i, j, nth int) (uint64, uint64) {
		t.Helper()
		if len(real[i*m.P+j]) <= nth {
			t.Fatalf("cell (%d,%d) has too few destinations for the fixture", i, j)
		}
		return real[i*m.P+j][nth][0], real[i*m.P+j][nth][1]
	}
	bytesRead := func() int64 { return st.Disk().Stats().Snapshot().BytesRead }
	cellBytes := func(i, j int) int64 { return m.SubShards[i*m.P+j].Length }

	log, err := dynamic.NewDeltaLog(st)
	if err != nil {
		t.Fatal(err)
	}
	s0, d0 := pairIn(0, 1, 0)
	s1, d1 := pairIn(2, 3, 0)
	log.Remove(s0, d0)
	log.Remove(s1, d1)
	before := bytesRead()
	first, err := log.Overlay()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bytesRead()-before, cellBytes(0, 1)+cellBytes(2, 3); got != want {
		t.Fatalf("first compile read %d bytes, want the two touched cells (%d)", got, want)
	}

	// Insertions, and a repeat of a resolved removal: no base read.
	log.Add(ids[3], ids[9], 1)
	log.Remove(s0, d0)
	before = bytesRead()
	second, err := log.Overlay()
	if err != nil {
		t.Fatal(err)
	}
	if got := bytesRead() - before; got != 0 {
		t.Fatalf("re-compile with every removal resolved read %d bytes, want 0", got)
	}
	if second == first || second.DeltaEdges() != first.DeltaEdges()+1 {
		t.Fatalf("re-compile did not pick up the append (DeltaEdges %d -> %d)", first.DeltaEdges(), second.DeltaEdges())
	}

	// A removal in an unseen cell reads that cell and nothing else; a
	// second pair of an already-read cell still has to be looked up.
	s2, d2 := pairIn(1, 1, 0)
	s3, d3 := pairIn(0, 1, 1)
	log.Remove(s2, d2)
	log.Remove(s3, d3)
	before = bytesRead()
	third, err := log.Overlay()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bytesRead()-before, cellBytes(1, 1)+cellBytes(0, 1); got != want {
		t.Fatalf("third compile read %d bytes, want %d", got, want)
	}
	if got := tombstoneKeys(third, m.P, false); got != 4 {
		t.Fatalf("%d forward tombstone keys, want 4", got)
	}
	if got := tombstoneKeys(third, m.P, true); got != 4 {
		t.Fatalf("%d transposed tombstone keys, want 4", got)
	}

	// The memoized counts must be the ones a fresh log resolves.
	fresh, err := dynamic.NewDeltaLog(st)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Remove(s0, d0)
	fresh.Remove(s1, d1)
	fresh.Add(ids[3], ids[9], 1)
	fresh.Remove(s2, d2)
	fresh.Remove(s3, d3)
	fov, err := fresh.Overlay()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third, fov) {
		t.Fatal("incrementally compiled snapshot differs from a fresh log's")
	}
}

// TestOverlayConcurrentCompile: concurrent Overlay calls racing each
// other and an appender share the memo safely (run under -race) and
// every snapshot they return is one a serial compile of some log prefix
// would have produced.
func TestOverlayConcurrentCompile(t *testing.T) {
	base, err := gen.RMAT(gen.DefaultRMAT(9, 8, 23))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := testutil.BuildStore(t, base, testutil.StoreOptions{P: 4, Transpose: true})
	var victims [][2]uint64
	for _, cell := range testutil.BaseEdgesByCell(t, st, 1) {
		victims = append(victims, cell...)
	}
	if len(victims) < 8 {
		t.Fatalf("only %d non-empty cells", len(victims))
	}
	log, err := dynamic.NewDeltaLog(st)
	if err != nil {
		t.Fatal(err)
	}
	log.Remove(victims[0][0], victims[0][1])

	// Each victim is a distinct pair with at least one base copy, so a
	// snapshot of the first k removals has DeltaEdges <= -k, and the
	// final one lists exactly len(victims) keys.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				ov, err := log.Overlay()
				if err != nil {
					t.Error(err)
					return
				}
				if ov == nil || ov.DeltaEdges() > -1 {
					t.Errorf("overlay %v with a pending base removal", ov)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, v := range victims[1:] {
			log.Remove(v[0], v[1])
		}
	}()
	wg.Wait()
	ov, err := log.Overlay()
	if err != nil {
		t.Fatal(err)
	}
	if got := tombstoneKeys(ov, 4, false); got != len(victims) {
		t.Fatalf("%d tombstone keys after the race, want %d", got, len(victims))
	}
	fresh, err := dynamic.NewDeltaLog(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range victims {
		fresh.Remove(v[0], v[1])
	}
	fov, err := fresh.Overlay()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ov, fov) {
		t.Fatal("snapshot compiled under contention differs from a serial compile")
	}
}
