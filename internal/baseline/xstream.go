package baseline

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"nxgraph/internal/diskio"
	"nxgraph/internal/engine"
	"nxgraph/internal/graph"
)

// XStream reimplements X-Stream's edge-centric scatter–gather model (Roy
// et al., SOSP'13; paper §V-B): vertices are split into K streaming
// partitions whose state fits in memory; edges are grouped by *source*
// partition and kept completely unsorted. Every iteration:
//
//	scatter — stream each partition's edges against its resident vertex
//	          state, appending (dst, value) update records to the
//	          destination partition's update file;
//	gather  — stream each partition's update file, folding values into
//	          its vertices.
//
// The update files make X-Stream's per-iteration traffic the largest of
// the compared systems (m·Be + m·(Bv+Ba) written and re-read), which is
// why it trails in the paper's Tables V and VI.
type XStream struct {
	disk    *diskio.Disk
	dir     string
	n       uint32
	m       int64
	k       int
	bounds  []uint32
	deg     []uint32
	edges   *diskio.File
	grpOff  []int64 // per source partition, k+1
	attrs   *diskio.File
	threads int
}

const (
	xsEdgeBytes   = 8  // src u32 + dst u32
	xsUpdateBytes = 12 // dst u32 + value f64
)

// NewXStream builds the streaming-partition representation. The memory
// budget fixes K = ⌈2n·Ba/BM⌉ (vertex state plus working buffers),
// minimum 1.
func NewXStream(disk *diskio.Disk, dir string, g *graph.EdgeList, budget int64, threads int) (*XStream, error) {
	if threads <= 0 {
		threads = 1
	}
	k := 1
	if budget > 0 {
		need := 2 * int64(g.NumVertices) * 8
		k = int((need + budget - 1) / budget)
		if k < 1 {
			k = 1
		}
		if k > int(g.NumVertices) {
			k = int(g.NumVertices)
		}
	}
	s := &XStream{
		disk: disk, dir: dir, n: g.NumVertices, m: int64(len(g.Edges)),
		k: k, bounds: intervals(g.NumVertices, k), deg: g.OutDegrees(),
		threads: threads,
	}
	groups := make([][]graph.Edge, k)
	for _, e := range g.Edges {
		i := intervalOf(s.bounds, e.Src)
		groups[i] = append(groups[i], e) // unsorted within partition
	}
	f, err := disk.Create(dir + "/edges.dat")
	if err != nil {
		return nil, err
	}
	s.edges = f
	s.grpOff = make([]int64, k+1)
	var off int64
	for i, grp := range groups {
		s.grpOff[i] = off
		buf := make([]byte, xsEdgeBytes*len(grp))
		for r, e := range grp {
			binary.LittleEndian.PutUint32(buf[xsEdgeBytes*r:], e.Src)
			binary.LittleEndian.PutUint32(buf[xsEdgeBytes*r+4:], e.Dst)
		}
		if len(buf) > 0 {
			if _, err := f.WriteAt(buf, off*xsEdgeBytes); err != nil {
				return nil, fmt.Errorf("baseline: xstream write edges: %w", err)
			}
		}
		off += int64(len(grp))
	}
	s.grpOff[k] = off
	attrs, err := disk.Create(dir + "/attrs.bin")
	if err != nil {
		return nil, err
	}
	s.attrs = attrs
	return s, nil
}

func (s *XStream) Name() string        { return "xstream-like" }
func (s *XStream) NumVertices() uint32 { return s.n }
func (s *XStream) NumEdges() int64     { return s.m }

// Close releases the system's files.
func (s *XStream) Close() error {
	err1 := s.edges.Close()
	err2 := s.attrs.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// RunProgram implements System.
func (s *XStream) RunProgram(p engine.Program, maxIters int) (*Result, error) {
	start := time.Now()
	io0 := s.disk.Stats().Snapshot()
	st := newRunState(p, s.deg, s.n)
	if err := writeAttrFile(s.attrs, st.curr, 0); err != nil {
		return nil, err
	}
	res := &Result{}
	for it := 0; maxIters <= 0 || it < maxIters; it++ {
		st.beginIteration()
		// Scatter phase: one update file per destination partition.
		upd := make([]*diskio.File, s.k)
		updW := make([]*bufio.Writer, s.k)
		for t := 0; t < s.k; t++ {
			f, err := s.disk.Create(fmt.Sprintf("%s/updates_%d.dat", s.dir, t))
			if err != nil {
				return nil, err
			}
			upd[t] = f
			updW[t] = bufio.NewWriterSize(f, 1<<16)
		}
		closeUpd := func() {
			for _, f := range upd {
				if f != nil {
					f.Close()
				}
			}
		}
		var rec [xsUpdateBytes]byte
		for i := 0; i < s.k; i++ {
			// Resident vertex state for partition i.
			lo, hi := s.bounds[i], s.bounds[i+1]
			src := make([]float64, hi-lo)
			if err := readAttrFile(s.attrs, src, lo); err != nil {
				closeUpd()
				return nil, err
			}
			r0, r1 := s.grpOff[i], s.grpOff[i+1]
			if r1 <= r0 {
				continue
			}
			buf := make([]byte, (r1-r0)*xsEdgeBytes)
			if _, err := s.edges.ReadAt(buf, r0*xsEdgeBytes); err != nil {
				closeUpd()
				return nil, fmt.Errorf("baseline: xstream read edges: %w", err)
			}
			res.EdgesTraversed += r1 - r0
			for r := 0; r < len(buf); r += xsEdgeBytes {
				sv := binary.LittleEndian.Uint32(buf[r:])
				dv := binary.LittleEndian.Uint32(buf[r+4:])
				val := p.Gather(src[sv-lo], s.deg[sv], 1)
				t := intervalOf(s.bounds, dv)
				binary.LittleEndian.PutUint32(rec[0:], dv)
				binary.LittleEndian.PutUint64(rec[4:], math.Float64bits(val))
				if _, err := updW[t].Write(rec[:]); err != nil {
					closeUpd()
					return nil, fmt.Errorf("baseline: xstream write update: %w", err)
				}
			}
		}
		for t := 0; t < s.k; t++ {
			if err := updW[t].Flush(); err != nil {
				closeUpd()
				return nil, fmt.Errorf("baseline: xstream flush updates: %w", err)
			}
		}
		// Gather phase.
		changed := false
		for t := 0; t < s.k; t++ {
			lo, hi := s.bounds[t], s.bounds[t+1]
			if _, err := upd[t].Seek(0, io.SeekStart); err != nil {
				closeUpd()
				return nil, err
			}
			br := bufio.NewReaderSize(upd[t], 1<<16)
			for {
				var u [xsUpdateBytes]byte
				if _, err := io.ReadFull(br, u[:]); err == io.EOF {
					break
				} else if err != nil {
					closeUpd()
					return nil, fmt.Errorf("baseline: xstream read update: %w", err)
				}
				dv := binary.LittleEndian.Uint32(u[0:])
				val := math.Float64frombits(binary.LittleEndian.Uint64(u[4:]))
				st.acc[dv] = p.Sum(st.acc[dv], val)
			}
			if st.applyAll(lo, hi) {
				changed = true
			}
			if err := writeAttrFile(s.attrs, st.curr[lo:hi], lo); err != nil {
				closeUpd()
				return nil, err
			}
		}
		closeUpd()
		res.Iterations++
		if !changed {
			break
		}
	}
	res.Attrs = append([]float64(nil), st.curr...)
	res.IO = s.disk.Stats().Snapshot().Sub(io0)
	res.Elapsed = time.Since(start)
	return res, nil
}
