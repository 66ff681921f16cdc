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
// distinct-destination count, so a hub entry costs Ba+Bv bytes exactly as
// in the paper's I/O model (Table II). Like AttrStore, a HubStore is one
// run's private scratch file: concurrent runs on a store never share hubs.
type HubStore struct {
	f       *diskio.File
	meta    *Meta
	offsets []int64 // P*P+1 region boundaries, row-major index i*P+j
	infos   []SubShardInfo
}

const hubEntryBytes = 12 // uint32 dst id (Bv=4) + float64 value (Ba=8)

// CreateHubs creates one run's hub file for the forward or transposed
// sub-shard set, in the store's directory and on its disk. A hub must be
// written before it is read.
func (s *Store) CreateHubs(transpose bool) (*HubStore, error) {
	infos := s.meta.SubShards
	if transpose {
		if !s.meta.HasTranspose {
			return nil, fmt.Errorf("storage: store has no transpose replica")
		}
		infos = s.meta.TSubShards
	}
	P := s.meta.P
	offsets := make([]int64, P*P+1)
	for k, info := range infos {
		offsets[k+1] = offsets[k] + info.Dsts*hubEntryBytes
	}
	f, err := s.disk.CreateScratch(s.dir)
	if err != nil {
		return nil, err
	}
	return &HubStore{f: f, meta: &s.meta, offsets: offsets, infos: infos}, nil
}

// Close releases the hub file, and with it the file's bytes.
func (h *HubStore) Close() error { return h.f.Close() }

// Write stores hub H[i][j]: parallel slices of destination ids and
// accumulated values, exactly as many as the sub-shard's distinct
// destinations.
func (h *HubStore) Write(i, j int, dsts []uint32, vals []float64) error {
	k := i*h.meta.P + j
	want := h.infos[k].Dsts
	if int64(len(dsts)) != want || int64(len(vals)) != want {
		return fmt.Errorf("storage: hub (%d,%d) has %d dsts, got %d/%d values",
			i, j, want, len(dsts), len(vals))
	}
	if want == 0 {
		return nil
	}
	buf := make([]byte, want*hubEntryBytes)
	p := 0
	for t := range dsts {
		binary.LittleEndian.PutUint32(buf[p:], dsts[t])
		binary.LittleEndian.PutUint64(buf[p+4:], math.Float64bits(vals[t]))
		p += hubEntryBytes
	}
	if _, err := h.f.WriteAt(buf, h.offsets[k]); err != nil {
		return fmt.Errorf("storage: write hub (%d,%d): %w", i, j, err)
	}
	return nil
}

// Read loads hub H[i][j] into freshly allocated slices.
func (h *HubStore) Read(i, j int) (dsts []uint32, vals []float64, err error) {
	k := i*h.meta.P + j
	count := h.infos[k].Dsts
	if count == 0 {
		return nil, nil, nil
	}
	buf := make([]byte, count*hubEntryBytes)
	if _, err := h.f.ReadAt(buf, h.offsets[k]); err != nil {
		return nil, nil, fmt.Errorf("storage: read hub (%d,%d): %w", i, j, err)
	}
	dsts = make([]uint32, count)
	vals = make([]float64, count)
	p := 0
	for t := int64(0); t < count; t++ {
		dsts[t] = binary.LittleEndian.Uint32(buf[p:])
		vals[t] = math.Float64frombits(binary.LittleEndian.Uint64(buf[p+4:]))
		p += hubEntryBytes
	}
	return dsts, vals, nil
}
