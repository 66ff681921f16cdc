package storage

import "fmt"

// Verify checks the full set of DSSS invariants of an opened store:
//
//   - every sub-shard decodes and its destinations lie in interval j,
//     sources in interval i;
//   - destinations strictly ascend inside a sub-shard, sources ascend
//     inside each destination's list;
//   - per-sub-shard edge/destination counts match the meta index;
//   - edge totals match the meta document;
//   - the degree file agrees with the edges (forward set);
//   - the transposed replica (when present) holds the reversed multiset
//     (verified by total and per-interval-pair counts).
//
// It reads every byte of the store; intended for preprocessing
// validation (nxpre -verify) and the failure-injection tests.
func Verify(s *Store) error {
	m := s.Meta()
	out := make([]uint64, m.NumVertices)
	in := make([]uint64, m.NumVertices)
	pairCount := map[[2]int]int64{}
	var total int64
	for i := 0; i < m.P; i++ {
		for j := 0; j < m.P; j++ {
			info := m.SubShardAt(i, j)
			ss, err := s.ReadSubShard(i, j, false)
			if err != nil {
				return fmt.Errorf("storage: verify SS[%d][%d]: %w", i, j, err)
			}
			if int64(ss.NumEdges()) != info.Edges || int64(ss.NumDsts()) != info.Dsts {
				return fmt.Errorf("storage: verify SS[%d][%d]: counts %d/%d, index says %d/%d",
					i, j, ss.NumEdges(), ss.NumDsts(), info.Edges, info.Dsts)
			}
			// Re-encoding the decoded sub-shard must reproduce the indexed
			// blob length exactly — a canonical-order sub-shard has one v2
			// encoding, so drift between writer and codec shows up here.
			if info.Length > 0 {
				if got := int64(len(EncodeSubShardV2(ss, m.Weighted))); got != info.Length {
					return fmt.Errorf("storage: verify SS[%d][%d]: re-encodes to %d bytes, index says %d",
						i, j, got, info.Length)
				}
			}
			ilo, ihi := m.IntervalRange(i)
			jlo, jhi := m.IntervalRange(j)
			var prevDst int64 = -1
			for k := range ss.Dsts {
				d := ss.Dsts[k]
				if d < jlo || d >= jhi {
					return fmt.Errorf("storage: verify SS[%d][%d]: dst %d outside [%d,%d)", i, j, d, jlo, jhi)
				}
				if int64(d) <= prevDst {
					return fmt.Errorf("storage: verify SS[%d][%d]: dsts not strictly ascending at %d", i, j, k)
				}
				prevDst = int64(d)
				var prevSrc int64 = -1
				for t := ss.Offsets[k]; t < ss.Offsets[k+1]; t++ {
					sv := ss.Srcs[t]
					if sv < ilo || sv >= ihi {
						return fmt.Errorf("storage: verify SS[%d][%d]: src %d outside [%d,%d)", i, j, sv, ilo, ihi)
					}
					if int64(sv) < prevSrc {
						return fmt.Errorf("storage: verify SS[%d][%d]: srcs of dst %d not ascending", i, j, d)
					}
					prevSrc = int64(sv)
					out[sv]++
					in[d]++
				}
			}
			total += info.Edges
			pairCount[[2]int{i, j}] += info.Edges
		}
	}
	if total != m.NumEdges {
		return fmt.Errorf("storage: verify: %d edges in sub-shards, meta says %d", total, m.NumEdges)
	}
	degOut, degIn, err := s.Degrees()
	if err != nil {
		return fmt.Errorf("storage: verify degrees: %w", err)
	}
	for v := uint32(0); v < m.NumVertices; v++ {
		if uint64(degOut[v]) != out[v] || uint64(degIn[v]) != in[v] {
			return fmt.Errorf("storage: verify: vertex %d degree file says %d/%d, edges say %d/%d",
				v, degOut[v], degIn[v], out[v], in[v])
		}
		if out[v] == 0 && in[v] == 0 {
			return fmt.Errorf("storage: verify: vertex %d is isolated (degreer should have dropped it)", v)
		}
	}
	if !m.HasTranspose {
		return nil
	}
	var ttotal int64
	for i := 0; i < m.P; i++ {
		for j := 0; j < m.P; j++ {
			ss, err := s.ReadSubShard(i, j, true)
			if err != nil {
				return fmt.Errorf("storage: verify transpose SS[%d][%d]: %w", i, j, err)
			}
			ttotal += int64(ss.NumEdges())
			pairCount[[2]int{j, i}] -= int64(ss.NumEdges())
		}
	}
	if ttotal != m.NumEdges {
		return fmt.Errorf("storage: verify: transpose holds %d edges, want %d", ttotal, m.NumEdges)
	}
	for pair, c := range pairCount {
		if c != 0 {
			return fmt.Errorf("storage: verify: interval pair %v: forward/transpose mismatch by %d edges", pair, c)
		}
	}
	return nil
}
