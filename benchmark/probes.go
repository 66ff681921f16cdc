package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	nxgraph "nxgraph"
	"nxgraph/internal/dynamic"
	"nxgraph/internal/storage"
	"nxgraph/internal/wal"
)

// Probe sizes. A probe times one module's exported function from a
// single goroutine and reports the median of a few repeats.
const (
	probeSweeps    = 5    // sweeps over all P² cells
	probeFusedReps = 3    // repeats of 16 solo queries + 1 fused batch
	fusedWidth     = 16   // the scheduler's default fused width cap
	overlayOps     = 4096 // pending ops compiled by the overlay probe
	walAppends     = 200  // appends per WAL probe
)

// rankByOutDegree orders the vertices by out-degree, highest first, ties
// to the lower id.
func rankByOutDegree(out []uint32) []uint32 {
	vs := make([]uint32, len(out))
	for v := range vs {
		vs[v] = uint32(v)
	}
	sort.Slice(vs, func(i, j int) bool {
		if out[vs[i]] != out[vs[j]] {
			return out[vs[i]] > out[vs[j]]
		}
		return vs[i] < vs[j]
	})
	return vs
}

// runProbes fills every probe row: set-up, storage, fused speed-up,
// overlay build, WAL append, and the ledger row that ties the storage
// probes to the traced run's block loads. gr is a library handle on the
// workload's store.
func runProbes(cfg runConfig, scratch *scratchDir, bs *builtStore, gr *nxgraph.Graph, led *engineLedger, v map[string]float64) error {
	v["gen.generate_s"] = bs.genS
	v["preprocess.build_edges_per_s"] = float64(bs.numEdges) / bs.buildS / 1e6
	v["preprocess.written_bytes_per_edge"] = float64(bs.writtenBytes) / float64(bs.numEdges)

	nsPerDecodedByte, err := probeStorage(gr.Engine().Store(), v)
	if err != nil {
		return fmt.Errorf("storage probe: %w", err)
	}
	// Had every missed block cost what the probes say a read plus a
	// decode costs, this share of the prefetch goroutines' busy time
	// would be explained; the rest is cache bookkeeping and contention.
	v["ledger.block_load_explained_share"] = ratio(nsPerDecodedByte*float64(led.missBytes), float64(led.missLoadUS)*1e3)

	if err := probeFused(gr, bs.byOutDegree[:min(fusedWidth, len(bs.byOutDegree))], v); err != nil {
		return fmt.Errorf("fused probe: %w", err)
	}
	if err := probeOverlay(gr.Engine().Store(), bs, cfg.seed, v); err != nil {
		return fmt.Errorf("overlay probe: %w", err)
	}
	if err := probeWAL(scratch, cfg.seed, v); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	return nil
}

// probeStorage times ReadSubShardRaw, DecodeSubShardBlob and
// EncodeSubShardAs over every cell of both replicas and returns the
// read+decode cost per decoded byte.
func probeStorage(st *storage.Store, v map[string]float64) (float64, error) {
	m := st.Meta()
	var readNS, decodeNS, encodeNS []float64
	var edges, encoded, decoded int64
	for sweep := 0; sweep < probeSweeps; sweep++ {
		var rd, dec, enc time.Duration
		edges, encoded, decoded = 0, 0, 0
		for _, transpose := range []bool{false, true} {
			if transpose && !m.HasTranspose {
				continue
			}
			for i := 0; i < m.P; i++ {
				for j := 0; j < m.P; j++ {
					t0 := time.Now()
					blob, err := st.ReadSubShardRaw(i, j, transpose)
					t1 := time.Now()
					if err != nil {
						return 0, err
					}
					ss, err := st.DecodeSubShardBlob(blob)
					t2 := time.Now()
					if err != nil {
						return 0, err
					}
					again := storage.EncodeSubShardAs(ss, m.Weighted, m.Version)
					t3 := time.Now()
					rd, dec, enc = rd+t1.Sub(t0), dec+t2.Sub(t1), enc+t3.Sub(t2)
					edges += int64(ss.NumEdges())
					encoded += int64(len(blob))
					decoded += ss.MemBytes()
					if len(blob) > 0 && len(again) != len(blob) {
						return 0, fmt.Errorf("SS[%d][%d] re-encodes to %d bytes, stored as %d", i, j, len(again), len(blob))
					}
				}
			}
		}
		readNS = append(readNS, float64(rd.Nanoseconds())/float64(edges))
		decodeNS = append(decodeNS, float64(dec.Nanoseconds())/float64(edges))
		encodeNS = append(encodeNS, float64(enc.Nanoseconds())/float64(edges))
	}
	v["storage.read_raw_ns_per_edge"] = median(readNS)
	v["storage.decode_ns_per_edge"] = median(decodeNS)
	v["storage.encode_ns_per_edge"] = median(encodeNS)
	v["storage.encoded_bytes_per_edge"] = float64(encoded) / float64(edges)
	v["storage.decoded_bytes_per_edge"] = float64(decoded) / float64(edges)
	return (median(readNS) + median(decodeNS)) * float64(edges) / float64(decoded), nil
}

// probeFused compares 16 solo queries with one fused batch of the same
// 16 roots, for both fusable programs the server coalesces.
func probeFused(gr *nxgraph.Graph, roots []uint32, v map[string]float64) error {
	type pair struct {
		name  string
		solo  func(root uint32) error
		fused func() error
	}
	pairs := []pair{
		{"ppr",
			func(r uint32) error { _, err := gr.PersonalizedPageRank(r, damping, pagerankIters); return err },
			func() error { _, err := gr.PersonalizedPageRankBatch(roots, damping, pagerankIters); return err }},
		{"bfs",
			func(r uint32) error { _, err := gr.BFS(r); return err },
			func() error { _, err := gr.BFSBatch(roots); return err }},
	}
	for _, p := range pairs {
		var solo, fused []float64
		for rep := 0; rep < probeFusedReps; rep++ {
			for _, r := range roots {
				t0 := time.Now()
				if err := p.solo(r); err != nil {
					return err
				}
				solo = append(solo, time.Since(t0).Seconds())
			}
			t0 := time.Now()
			if err := p.fused(); err != nil {
				return err
			}
			fused = append(fused, time.Since(t0).Seconds())
		}
		// Base of the ratio: the fused batch's median wall time.
		v["engine.fused16_"+p.name+"_speedup"] = ratio(float64(len(roots))*median(solo), median(fused))
	}
	return nil
}

// probeOverlay times DeltaLog.Overlay compiling 4096 pending ops over
// the workload's store: what the first query after an ingest ack pays.
func probeOverlay(st *storage.Store, bs *builtStore, seed int64, v map[string]float64) error {
	batches, err := makeIngestBatches(bs, seed, overlayOps/(ingestAdds+ingestRemoves))
	if err != nil {
		return err
	}
	var ops []dynamic.Op
	for _, b := range batches {
		ops = append(ops, b.ops()...)
	}
	var ms []float64
	for rep := 0; rep < probeSweeps; rep++ {
		log, err := dynamic.NewDeltaLog(st)
		if err != nil {
			return err
		}
		log.Append(ops...)
		t0 := time.Now()
		if _, err := log.Overlay(); err != nil {
			return err
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	v["dynamic.overlay_build_ms_p50"] = median(ms)
	return nil
}

// probeWAL times Append of one ingest-sized batch on a scratch log under
// the server's default policy (group commit, fsync per batch): one
// appender, then two at once, which is where group commit can share an
// fsync.
func probeWAL(scratch *scratchDir, seed int64, v map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))
	batch := make([]dynamic.Op, ingestAdds+ingestRemoves)
	for i := range batch {
		batch[i] = dynamic.Op{Remove: i < ingestRemoves, Src: rng.Uint64() >> 40, Dst: rng.Uint64() >> 40, Weight: 1}
	}
	for _, appenders := range []int{1, 2} {
		dir := scratch.next("wal")
		log, err := wal.Open(dir, wal.Options{Policy: wal.SyncBatch})
		if err != nil {
			return err
		}
		var (
			wg   sync.WaitGroup
			mine = make([][]float64, appenders)
			errs = make([]error, appenders)
		)
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for i := 0; i < walAppends/appenders && errs[a] == nil; i++ {
					t0 := time.Now()
					_, errs[a] = log.Append(batch)
					mine[a] = append(mine[a], float64(time.Since(t0).Nanoseconds())/1e3)
				}
			}(a)
		}
		wg.Wait()
		if err := log.Close(); err != nil {
			return err
		}
		var us []float64
		for a := range mine {
			if errs[a] != nil {
				return errs[a]
			}
			us = append(us, mine[a]...)
		}
		if appenders == 1 {
			v["wal.append_us_p50"] = median(us)
			var bytes int64
			segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
			if err != nil {
				return err
			}
			for _, seg := range segs {
				if fi, err := os.Stat(seg); err == nil {
					bytes += fi.Size()
				}
			}
			v["wal.bytes_per_op"] = float64(bytes) / float64(len(us)*len(batch))
		} else {
			v["wal.append_us_p50_x2"] = median(us)
		}
	}
	return nil
}
