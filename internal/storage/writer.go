package storage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"

	"nxgraph/internal/diskio"
)

// Writer builds a DSSS store. Sub-shards must be appended in physical
// (row-major) order: for i = 0..P-1, for j = 0..P-1, append SS[i][j].
// When writing a transposed replica, call BeginTranspose after the forward
// set and append another full P² sequence. Finish writes the meta
// document; the store is immutable from then on.
type Writer struct {
	disk *diskio.Disk
	dir  string
	meta Meta

	f         *diskio.File
	off       int64
	idx       int  // sub-shards appended in the current set
	transpose bool // currently writing the transposed set
	finished  bool
}

// NewWriter creates (truncating) a store at dir, in FormatVersion.
func NewWriter(disk *diskio.Disk, dir, name string, numVertices uint32, numEdges int64, p int, weighted bool) (*Writer, error) {
	if p <= 0 {
		return nil, fmt.Errorf("storage: P must be positive, got %d", p)
	}
	if err := os.MkdirAll(disk.Path(dir), 0o755); err != nil {
		return nil, fmt.Errorf("storage: create store dir: %w", err)
	}
	w := &Writer{disk: disk, dir: dir, meta: Meta{
		Magic:       MetaMagic,
		Version:     FormatVersion,
		Name:        name,
		NumVertices: numVertices,
		NumEdges:    numEdges,
		P:           p,
		Weighted:    weighted,
		SubShards:   make([]SubShardInfo, p*p),
	}}
	f, err := disk.Create(dir + "/" + ShardsFile)
	if err != nil {
		return nil, err
	}
	w.f = f
	if err := w.writeHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (w *Writer) writeHeader() error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], ShardMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(w.meta.Version))
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("storage: write shard header: %w", err)
	}
	w.off = int64(len(hdr))
	return nil
}

// AppendSubShard appends the next sub-shard in row-major order. ss may
// be empty (zero destinations).
func (w *Writer) AppendSubShard(ss *SubShard) error {
	if w.finished {
		return fmt.Errorf("storage: append after Finish")
	}
	P := w.meta.P
	if w.idx >= P*P {
		return fmt.Errorf("storage: too many sub-shards (P=%d)", P)
	}
	infos := w.meta.SubShards
	if w.transpose {
		infos = w.meta.TSubShards
	}
	info := SubShardInfo{Edges: int64(ss.NumEdges()), Dsts: int64(ss.NumDsts())}
	if ss.NumDsts() > 0 {
		blob := EncodeSubShard(ss, w.meta.Weighted)
		if _, err := w.f.WriteAt(blob, w.off); err != nil {
			return fmt.Errorf("storage: write sub-shard: %w", err)
		}
		info.Offset = w.off
		info.Length = int64(len(blob))
		w.off += info.Length
	}
	infos[w.idx] = info
	w.idx++
	return nil
}

// BeginTranspose finishes the forward sub-shard set and starts the
// transposed one, written to its own file.
func (w *Writer) BeginTranspose() error {
	if w.finished {
		return fmt.Errorf("storage: BeginTranspose after Finish")
	}
	if w.transpose {
		return fmt.Errorf("storage: BeginTranspose called twice")
	}
	P := w.meta.P
	if w.idx != P*P {
		return fmt.Errorf("storage: forward set has %d sub-shards, want %d", w.idx, P*P)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("storage: close shards: %w", err)
	}
	f, err := w.disk.Create(w.dir + "/" + TShardsFile)
	if err != nil {
		return err
	}
	w.f = f
	if err := w.writeHeader(); err != nil {
		return err
	}
	w.meta.HasTranspose = true
	w.meta.TSubShards = make([]SubShardInfo, P*P)
	w.transpose = true
	w.idx = 0
	return nil
}

// WriteDegrees stores the out- and in-degree arrays (each n entries).
func (w *Writer) WriteDegrees(out, in []uint32) error {
	n := int(w.meta.NumVertices)
	if len(out) != n || len(in) != n {
		return fmt.Errorf("storage: degree arrays have %d/%d entries, want %d", len(out), len(in), n)
	}
	f, err := w.disk.Create(w.dir + "/" + DegreeFile)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 8*n)
	for v := 0; v < n; v++ {
		binary.LittleEndian.PutUint32(buf[4*v:], out[v])
		binary.LittleEndian.PutUint32(buf[4*(n+v):], in[v])
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("storage: write degrees: %w", err)
	}
	return nil
}

// WriteIDMap stores the id→original-index map.
func (w *Writer) WriteIDMap(ids []uint64) error {
	n := int(w.meta.NumVertices)
	if len(ids) != n {
		return fmt.Errorf("storage: idmap has %d entries, want %d", len(ids), n)
	}
	f, err := w.disk.Create(w.dir + "/" + IDMapFile)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 8*n)
	for v := 0; v < n; v++ {
		binary.LittleEndian.PutUint64(buf[8*v:], ids[v])
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("storage: write idmap: %w", err)
	}
	return nil
}

// Finish validates counts and writes meta.json.
func (w *Writer) Finish() error {
	if w.finished {
		return fmt.Errorf("storage: Finish called twice")
	}
	P := w.meta.P
	if w.idx != P*P {
		return fmt.Errorf("storage: current set has %d sub-shards, want %d", w.idx, P*P)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("storage: close shards: %w", err)
	}
	w.finished = true
	if err := w.meta.Validate(); err != nil {
		return fmt.Errorf("storage: finish: %w", err)
	}
	raw, err := json.MarshalIndent(&w.meta, "", " ")
	if err != nil {
		return fmt.Errorf("storage: marshal meta: %w", err)
	}
	if err := os.WriteFile(w.disk.Path(w.dir+"/"+MetaFile), raw, 0o644); err != nil {
		return fmt.Errorf("storage: write meta: %w", err)
	}
	return nil
}

// Abort closes and best-effort removes a partially-written store.
func (w *Writer) Abort() {
	if w.f != nil {
		w.f.Close()
	}
	_ = os.RemoveAll(w.disk.Path(w.dir))
}
