package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"nxgraph/internal/diskio"
)

// AttrStore holds one run's on-disk float64 attributes, L lane-minor
// values per vertex (lane l of vertex v at v*L+l, the run's slab
// layout): the on-disk intervals of DPU and MPU (paper §III-B2), Ba·L
// bytes per vertex. LoadFromDisk/SaveToDisk in Algorithm 6 map to
// ReadInterval and WriteInterval. Each AttrStore is one run's private
// scratch file (see diskio.Disk.CreateScratch), so concurrent runs never
// share one and nothing is left in the store once it closes.
type AttrStore struct {
	f     *diskio.File
	meta  *Meta
	lanes int
}

// CreateAttrs creates an empty attribute file for one run of the given
// number of lanes, in the store's directory and on its disk, so its
// traffic is the store's. An interval must be written before it is read.
func (s *Store) CreateAttrs(lanes int) (*AttrStore, error) {
	f, err := s.disk.CreateScratch(s.dir)
	if err != nil {
		return nil, err
	}
	return &AttrStore{f: f, meta: &s.meta, lanes: lanes}, nil
}

// Close releases the attribute file, and with it the file's bytes.
func (a *AttrStore) Close() error { return a.f.Close() }

// span checks that n values fill interval k and returns its byte offset.
func (a *AttrStore) span(k, n int) (int64, error) {
	lo, hi := a.meta.IntervalRange(k)
	if n != int(hi-lo)*a.lanes {
		return 0, fmt.Errorf("storage: interval %d has %d vertices of %d lanes, buffer has %d values", k, hi-lo, a.lanes, n)
	}
	return int64(lo) * 8 * int64(a.lanes), nil
}

// ReadInterval loads interval k's attributes into dst, which must have
// exactly IntervalLen(k)·L entries.
func (a *AttrStore) ReadInterval(k int, dst []float64) error {
	off, err := a.span(k, len(dst))
	if err != nil || len(dst) == 0 {
		return err
	}
	buf := make([]byte, 8*len(dst))
	if _, err := a.f.ReadAt(buf, off); err != nil {
		return fmt.Errorf("storage: read interval %d: %w", k, err)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// WriteInterval stores interval k's attributes from src, which must have
// exactly IntervalLen(k)·L entries.
func (a *AttrStore) WriteInterval(k int, src []float64) error {
	off, err := a.span(k, len(src))
	if err != nil || len(src) == 0 {
		return err
	}
	buf := make([]byte, 8*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	if _, err := a.f.WriteAt(buf, off); err != nil {
		return fmt.Errorf("storage: write interval %d: %w", k, err)
	}
	return nil
}
