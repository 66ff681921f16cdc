package main

import (
	"math/rand"

	"nxgraph/internal/dynamic"
)

// One ingest batch: adds, and removes naming earlier adds.
const (
	ingestAdds    = 116
	ingestRemoves = 12
)

// ingestBatch is the body of one POST /edges, in generated vertex ids.
type ingestBatch struct {
	adds, removes [][2]uint64
}

// makeIngestBatches returns the first n batches of the serve-mixed
// ingest traffic: adds between vertices the store knows, on pairs the
// base graph does not hold and no earlier batch added, plus removes that
// each name one earlier, still present add — so every add inserts
// exactly one edge and every remove deletes exactly one. All batches are
// made before the window, so that the index of the base graph's edges
// this needs is garbage by the time live_heap_mb is sampled.
func makeIngestBatches(bs *builtStore, seed int64, n int) ([]ingestBatch, error) {
	base, err := bs.oracleGraph()
	if err != nil {
		return nil, err
	}
	taken := make(map[[2]uint64]bool, len(base.Edges))
	for _, e := range base.Edges {
		taken[[2]uint64{bs.ids[e.Src], bs.ids[e.Dst]}] = true
	}
	rng := rand.New(rand.NewSource(seed))
	var live [][2]uint64 // added and not yet removed
	batches := make([]ingestBatch, n)
	for i := range batches {
		b := &batches[i]
		for len(b.removes) < ingestRemoves && len(live) > 0 {
			k := rng.Intn(len(live))
			b.removes = append(b.removes, live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for len(b.adds) < ingestAdds {
			p := [2]uint64{bs.ids[rng.Intn(len(bs.ids))], bs.ids[rng.Intn(len(bs.ids))]}
			if taken[p] {
				continue
			}
			taken[p] = true
			b.adds = append(b.adds, p)
		}
		live = append(live, b.adds...)
	}
	return batches, nil
}

// survivingAdds lists the adds of the sent batches that no sent batch
// removed. A pair is added at most once, so a removed pair stays removed.
func survivingAdds(sent []ingestBatch) [][2]uint64 {
	removed := map[[2]uint64]bool{}
	for _, b := range sent {
		for _, p := range b.removes {
			removed[p] = true
		}
	}
	var live [][2]uint64
	for _, b := range sent {
		for _, p := range b.adds {
			if !removed[p] {
				live = append(live, p)
			}
		}
	}
	return live
}

// ops renders the batch as delta-log ops, removals first as the ingest
// endpoint orders them.
func (b ingestBatch) ops() []dynamic.Op {
	ops := make([]dynamic.Op, 0, len(b.adds)+len(b.removes))
	for _, p := range b.removes {
		ops = append(ops, dynamic.Op{Remove: true, Src: p[0], Dst: p[1]})
	}
	for _, p := range b.adds {
		ops = append(ops, dynamic.Op{Src: p[0], Dst: p[1], Weight: 1})
	}
	return ops
}
