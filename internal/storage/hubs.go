package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"nxgraph/internal/diskio"
)

// HubStore holds the DPU/MPU hubs (paper §III-B2): for each hub-bearing
// sub-shard SS[i][j], hub H[i][j] stores the sub-shard's distinct
// destination ids together with the Sum-accumulated partial attribute each
// destination received from source interval i. The ToHub phase writes
// hubs; the FromHub phase reads and folds them into the destination
// interval.
//
// Each hub has a fixed region in the hub file, sized from the sub-shard's
// distinct-destination count; an entry holds the destination id and one
// partial per lane, Bv + L·Ba bytes as in the paper's I/O model (Table
// II) with Ba·L bytes per vertex. Like AttrStore, a HubStore is one run's
// private scratch file: concurrent runs on a store never share hubs.
type HubStore struct {
	f       *diskio.File
	meta    *Meta
	lanes   int
	entry   int64   // bytes per entry: uint32 dst id (Bv = 4) + L float64 values
	offsets []int64 // P*P+1 region boundaries, row-major index i*P+j
	infos   []SubShardInfo
}

// CreateHubs creates one run's hub file for the forward or transposed
// sub-shard set and the given number of lanes, in the store's directory
// and on its disk. A hub must be written before it is read.
func (s *Store) CreateHubs(transpose bool, lanes int) (*HubStore, error) {
	infos := s.meta.SubShards
	if transpose {
		if !s.meta.HasTranspose {
			return nil, fmt.Errorf("storage: store has no transpose replica")
		}
		infos = s.meta.TSubShards
	}
	P, entry := s.meta.P, 4+8*int64(lanes)
	offsets := make([]int64, P*P+1)
	for k, info := range infos {
		offsets[k+1] = offsets[k] + info.Dsts*entry
	}
	f, err := s.disk.CreateScratch(s.dir)
	if err != nil {
		return nil, err
	}
	return &HubStore{f: f, meta: &s.meta, lanes: lanes, entry: entry, offsets: offsets, infos: infos}, nil
}

// Close releases the hub file, and with it the file's bytes.
func (h *HubStore) Close() error { return h.f.Close() }

// Write stores hub H[i][j]: the sub-shard's distinct destination ids and
// their accumulated values, L lane-minor values per destination (value l
// of entry t at vals[t*L+l]).
func (h *HubStore) Write(i, j int, dsts []uint32, vals []float64) error {
	k := i*h.meta.P + j
	want := h.infos[k].Dsts
	if int64(len(dsts)) != want || int64(len(vals)) != want*int64(h.lanes) {
		return fmt.Errorf("storage: hub (%d,%d) has %d dsts of %d lanes, got %d/%d values", i, j, want, h.lanes, len(dsts), len(vals))
	}
	if want == 0 {
		return nil
	}
	buf := make([]byte, want*h.entry)
	p := 0
	for t, d := range dsts {
		binary.LittleEndian.PutUint32(buf[p:], d)
		for _, v := range vals[t*h.lanes : (t+1)*h.lanes] {
			binary.LittleEndian.PutUint64(buf[p+4:], math.Float64bits(v))
			p += 8
		}
		p += 4
	}
	if _, err := h.f.WriteAt(buf, h.offsets[k]); err != nil {
		return fmt.Errorf("storage: write hub (%d,%d): %w", i, j, err)
	}
	return nil
}

// Read loads hub H[i][j] into fresh slices laid out as Write takes them.
func (h *HubStore) Read(i, j int) (dsts []uint32, vals []float64, err error) {
	k := i*h.meta.P + j
	count := h.infos[k].Dsts
	if count == 0 {
		return nil, nil, nil
	}
	buf := make([]byte, count*h.entry)
	if _, err := h.f.ReadAt(buf, h.offsets[k]); err != nil {
		return nil, nil, fmt.Errorf("storage: read hub (%d,%d): %w", i, j, err)
	}
	dsts = make([]uint32, count)
	vals = make([]float64, count*int64(h.lanes))
	p := 0
	for t := range dsts {
		dsts[t] = binary.LittleEndian.Uint32(buf[p:])
		for x := t * h.lanes; x < (t+1)*h.lanes; x++ {
			vals[x] = math.Float64frombits(binary.LittleEndian.Uint64(buf[p+4:]))
			p += 8
		}
		p += 4
	}
	return dsts, vals, nil
}
