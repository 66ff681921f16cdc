package storage

import "fmt"

// Verify checks the full set of DSSS invariants of an opened store:
//
//   - every sub-shard decodes and its destinations lie in interval j,
//     sources in interval i;
//   - destinations strictly ascend inside each count class, each run's
//     length matches its class, no two classes list one destination,
//     and sources ascend inside each destination's list;
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
			// blob length exactly — a sub-shard in builder order has one
			// encoding, so drift between writer and codec shows up here.
			if info.Length > 0 {
				if got := int64(len(EncodeSubShard(ss, m.Weighted))); got != info.Length {
					return fmt.Errorf("storage: verify SS[%d][%d]: re-encodes to %d bytes, index says %d",
						i, j, got, info.Length)
				}
			}
			ilo, ihi := m.IntervalRange(i)
			jlo, jhi := m.IntervalRange(j)
			b := ss.Classes()
			for c := range NumClasses {
				for k := b[c]; k < b[c+1]; k++ {
					if err := verifyDst(ss, k, c, ilo, ihi, jlo, jhi, out, in); err != nil {
						return fmt.Errorf("storage: verify SS[%d][%d]: %w", i, j, err)
					}
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

// verifyDst checks destination k of ss, of count class c: its id lies in
// [jlo, jhi) and ascends past the class's previous one, no other class
// lists it, its run has the class's count, and its sources lie in
// [ilo, ihi) and ascend. It counts the run's edges into out and in.
func verifyDst(ss *SubShard, k, c int, ilo, ihi, jlo, jhi uint32, out, in []uint64) error {
	d, lo, hi := ss.Dsts[k], ss.Offsets[k], ss.Offsets[k+1]
	switch b := ss.Classes(); {
	case d < jlo || d >= jhi:
		return fmt.Errorf("dst %d outside [%d,%d)", d, jlo, jhi)
	case k > b[c] && d <= ss.Dsts[k-1]:
		return fmt.Errorf("dsts of class %d not strictly ascending at %d", c+1, k)
	case hi <= lo || classOf(int(hi-lo)) != c:
		return fmt.Errorf("dst %d of class %d has %d in-edges", d, c+1, int(hi)-int(lo))
	}
	if x, _ := ss.Find(d); x != k {
		return fmt.Errorf("dst %d listed at %d and at %d", d, x, k)
	}
	for t := lo; t < hi; t++ {
		s := ss.Srcs[t]
		if s < ilo || s >= ihi {
			return fmt.Errorf("src %d outside [%d,%d)", s, ilo, ihi)
		}
		if t > lo && s < ss.Srcs[t-1] {
			return fmt.Errorf("srcs of dst %d not ascending", d)
		}
		out[s]++
		in[d]++
	}
	return nil
}
