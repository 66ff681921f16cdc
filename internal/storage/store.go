package storage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"nxgraph/internal/diskio"
)

func float32bits(f float32) uint32     { return math.Float32bits(f) }
func float32frombits(b uint32) float32 { return math.Float32frombits(b) }

// Store is an opened DSSS store.
type Store struct {
	disk *diskio.Disk
	dir  string
	meta Meta

	shards  *diskio.File
	tshards *diskio.File // nil unless HasTranspose
}

// Open opens the store rooted at dir on disk and validates its meta.
func Open(disk *diskio.Disk, dir string) (*Store, error) {
	raw, err := os.ReadFile(disk.Path(dir + "/" + MetaFile))
	if err != nil {
		return nil, fmt.Errorf("storage: read meta: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("storage: parse meta: %w", err)
	}
	if err := meta.Validate(); err != nil {
		// A store of another format version fails before any shard byte
		// is read — the version error names the offending path here and
		// the store's files stay untouched (no partial reads).
		return nil, fmt.Errorf("storage: open %s: %w", disk.Path(dir), err)
	}
	s := &Store{disk: disk, dir: dir, meta: meta}
	if s.shards, err = disk.Open(dir + "/" + ShardsFile); err != nil {
		return nil, err
	}
	if err := checkShardFile(s.shards, disk.Path(dir+"/"+ShardsFile), meta.Version, "sub_shards", meta.SubShards); err != nil {
		s.shards.Close()
		return nil, err
	}
	if meta.HasTranspose {
		if s.tshards, err = disk.Open(dir + "/" + TShardsFile); err != nil {
			s.shards.Close()
			return nil, err
		}
		if err := checkShardFile(s.tshards, disk.Path(dir+"/"+TShardsFile), meta.Version, "t_sub_shards", meta.TSubShards); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// checkShardFile verifies a shard file's magic, that its embedded
// format version matches the meta document's (the two are written
// together; disagreement means a corrupt or hand-mixed store), and that
// every blob the meta's field indexes lies inside the file.
func checkShardFile(f *diskio.File, path string, version int, field string, infos []SubShardInfo) error {
	size, err := f.Size()
	if err != nil {
		return fmt.Errorf("storage: %s: %w", path, err)
	}
	for i, info := range infos {
		if info.Offset > size || info.Length > size-info.Offset {
			return fmt.Errorf("storage: %s: %s[%d] spans [%d, +%d), past the file's %d bytes",
				path, field, i, info.Offset, info.Length, size)
		}
	}
	var hdr [8]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("storage: read shard header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:4]); got != ShardMagic {
		return fmt.Errorf("storage: %s: shard file magic %#x, want %#x", path, got, ShardMagic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != uint32(version) {
		return fmt.Errorf("storage: %s: shard file format version %d, meta.json says %d"+
			" — store is corrupt or mixed; rebuild it from its edge list with nxpre",
			path, v, version)
	}
	return nil
}

// Close releases the store's file handles.
func (s *Store) Close() error {
	var first error
	if s.shards != nil {
		if err := s.shards.Close(); err != nil {
			first = err
		}
		s.shards = nil
	}
	if s.tshards != nil {
		if err := s.tshards.Close(); err != nil && first == nil {
			first = err
		}
		s.tshards = nil
	}
	return first
}

// Meta returns the store's meta document.
func (s *Store) Meta() *Meta { return &s.meta }

// Disk returns the disk the store lives on.
func (s *Store) Disk() *diskio.Disk { return s.disk }

// Dir returns the store's directory (disk-relative).
func (s *Store) Dir() string { return s.dir }

// ReadSubShard loads and decodes SS[i][j]. With transpose set it reads
// from the transposed replica (whose [i][j] is the transpose matrix's
// own indexing).
func (s *Store) ReadSubShard(i, j int, transpose bool) (*SubShard, error) {
	blob, err := s.ReadSubShardRaw(i, j, transpose)
	if err != nil {
		return nil, err
	}
	ss, err := s.DecodeSubShardBlob(blob)
	if err != nil {
		return nil, fmt.Errorf("storage: SS[%d][%d]: %w", i, j, err)
	}
	return ss, nil
}

// ReadSubShardRaw reads SS[i][j]'s encoded blob without decoding it, so
// the engine can decode a block-cache miss into recycled arrays. Empty
// sub-shards return a nil blob and cost no disk read.
func (s *Store) ReadSubShardRaw(i, j int, transpose bool) ([]byte, error) {
	P := s.meta.P
	if i < 0 || i >= P || j < 0 || j >= P {
		return nil, fmt.Errorf("storage: sub-shard (%d,%d) out of range P=%d", i, j, P)
	}
	infos, f := s.meta.SubShards, s.shards
	if transpose {
		if !s.meta.HasTranspose {
			return nil, fmt.Errorf("storage: store has no transpose replica")
		}
		infos, f = s.meta.TSubShards, s.tshards
	}
	info := infos[i*P+j]
	if info.Length == 0 {
		return nil, nil
	}
	buf := make([]byte, info.Length)
	if _, err := f.ReadAt(buf, info.Offset); err != nil {
		return nil, fmt.Errorf("storage: read SS[%d][%d]: %w", i, j, err)
	}
	return buf, nil
}

// DecodeSubShardBlob decodes a blob returned by ReadSubShardRaw into
// fresh arrays (see DecodeSubShardInto): the decode an engine miss runs,
// less the recycled arrays.
func (s *Store) DecodeSubShardBlob(blob []byte) (*SubShard, error) {
	return DecodeSubShardInto(nil, blob, s.meta.Weighted)
}

// Degrees reads the degree file: out-degrees then in-degrees, each n
// uint32s.
func (s *Store) Degrees() (out, in []uint32, err error) {
	f, err := s.disk.Open(s.dir + "/" + DegreeFile)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	n := int(s.meta.NumVertices)
	buf := make([]byte, 8*n)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, nil, fmt.Errorf("storage: read degrees: %w", err)
	}
	out = make([]uint32, n)
	in = make([]uint32, n)
	for v := 0; v < n; v++ {
		out[v] = binary.LittleEndian.Uint32(buf[4*v:])
		in[v] = binary.LittleEndian.Uint32(buf[4*(n+v):])
	}
	return out, in, nil
}

// IDMap reads the id→original-index map (n uint64s).
func (s *Store) IDMap() ([]uint64, error) {
	f, err := s.disk.Open(s.dir + "/" + IDMapFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	n := int(s.meta.NumVertices)
	buf := make([]byte, 8*n)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, fmt.Errorf("storage: read idmap: %w", err)
	}
	out := make([]uint64, n)
	for v := 0; v < n; v++ {
		out[v] = binary.LittleEndian.Uint64(buf[8*v:])
	}
	return out, nil
}

// SubShardsOfColumn returns the row indices i of the non-empty sub-shards
// in shard S[j], ascending.
func (s *Store) SubShardsOfColumn(j int, transpose bool) []int {
	P := s.meta.P
	infos := s.meta.SubShards
	if transpose {
		infos = s.meta.TSubShards
	}
	var rows []int
	for i := 0; i < P; i++ {
		if infos[i*P+j].Edges > 0 {
			rows = append(rows, i)
		}
	}
	return rows
}

// EdgeBytesOnDisk returns the total encoded size of all sub-shards, i.e.
// m·Be for the Table II accounting.
func (s *Store) EdgeBytesOnDisk(transpose bool) int64 {
	infos := s.meta.SubShards
	if transpose {
		infos = s.meta.TSubShards
	}
	var total int64
	for _, info := range infos {
		total += info.Length
	}
	return total
}

// CompressionRatio reports the store's total encoded sub-shard bytes
// (both replicas) against what a fixed-width CSR encoding of the same
// sub-shards would occupy (see encodedSize) — the factor every cold read
// saves.
func (s *Store) CompressionRatio() (encoded, fixedWidth int64) {
	infoSets := [][]SubShardInfo{s.meta.SubShards}
	if s.meta.HasTranspose {
		infoSets = append(infoSets, s.meta.TSubShards)
	}
	for _, infos := range infoSets {
		for _, info := range infos {
			if info.Length == 0 {
				continue
			}
			encoded += info.Length
			fixedWidth += encodedSize(int(info.Dsts), int(info.Edges), s.meta.Weighted)
		}
	}
	return encoded, fixedWidth
}

// ForEachEdge streams every edge of the (forward) graph in physical
// sub-shard order, calling fn(src, dst, weight): cells row-major, and
// within a cell the destinations in count-class order — one in-edge,
// two, three, then four or more, ascending by id within each class —
// each with its sources ascending. Unweighted stores report weight 1.
// Iteration stops at the first error.
func (s *Store) ForEachEdge(fn func(src, dst uint32, w float32) error) error {
	P := s.meta.P
	for i := 0; i < P; i++ {
		for j := 0; j < P; j++ {
			ss, err := s.ReadSubShard(i, j, false)
			if err != nil {
				return err
			}
			for k := range ss.Dsts {
				for t := ss.Offsets[k]; t < ss.Offsets[k+1]; t++ {
					w := float32(1)
					if ss.Weights != nil {
						w = ss.Weights[t]
					}
					if err := fn(ss.Srcs[t], ss.Dsts[k], w); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
