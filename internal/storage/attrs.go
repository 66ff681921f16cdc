package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"nxgraph/internal/diskio"
)

// AttrStore holds one run's on-disk per-vertex float64 attributes,
// addressed by dense id. It backs the on-disk intervals of DPU and MPU
// (paper §III-B2): LoadFromDisk/SaveToDisk in Algorithm 6 map to
// ReadInterval and WriteInterval here. The attributes belong to the run,
// not to the store: each AttrStore is a private scratch file (see
// diskio.Disk.CreateScratch), so concurrent runs never share one, and
// nothing is left in the store once it closes.
type AttrStore struct {
	f    *diskio.File
	meta *Meta
}

// CreateAttrs creates an empty attribute file for one run, in the store's
// directory and on its disk, so its traffic is the store's. An interval
// must be written before it is read.
func (s *Store) CreateAttrs() (*AttrStore, error) {
	f, err := s.disk.CreateScratch(s.dir)
	if err != nil {
		return nil, err
	}
	return &AttrStore{f: f, meta: &s.meta}, nil
}

// Close releases the attribute file, and with it the file's bytes.
func (a *AttrStore) Close() error { return a.f.Close() }

// ReadInterval loads interval k's attributes into dst, which must have
// exactly IntervalLen(k) entries.
func (a *AttrStore) ReadInterval(k int, dst []float64) error {
	lo, hi := a.meta.IntervalRange(k)
	if len(dst) != int(hi-lo) {
		return fmt.Errorf("storage: interval %d has %d vertices, buffer has %d", k, hi-lo, len(dst))
	}
	if lo == hi {
		return nil
	}
	buf := make([]byte, 8*(hi-lo))
	if _, err := a.f.ReadAt(buf, int64(lo)*8); err != nil {
		return fmt.Errorf("storage: read interval %d: %w", k, err)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// WriteInterval stores interval k's attributes from src, which must have
// exactly IntervalLen(k) entries.
func (a *AttrStore) WriteInterval(k int, src []float64) error {
	lo, hi := a.meta.IntervalRange(k)
	if len(src) != int(hi-lo) {
		return fmt.Errorf("storage: interval %d has %d vertices, buffer has %d", k, hi-lo, len(src))
	}
	if lo == hi {
		return nil
	}
	buf := make([]byte, 8*(hi-lo))
	for i, v := range src {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	if _, err := a.f.WriteAt(buf, int64(lo)*8); err != nil {
		return fmt.Errorf("storage: write interval %d: %w", k, err)
	}
	return nil
}
