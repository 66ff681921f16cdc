// Package model implements the paper's analytic I/O models: the per-
// iteration read/write amounts of Table II for all four update strategies,
// and the MPU-vs-TurboGraph-like ratio curve of Figure 6.
//
// All quantities are bytes per iteration. Parameters follow Table I:
// n vertices, m edges, Ba attribute bytes, Bv vertex-id bytes, Be edge
// bytes, BM memory budget, d average sub-shard destination in-degree,
// P intervals, Q resident intervals.
package model

import "math"

// Params carries the graph and machine constants of the model.
type Params struct {
	N  float64 // number of vertices
	M  float64 // number of edges
	Ba float64 // bytes per vertex attribute
	Bv float64 // bytes per vertex id
	Be float64 // bytes per edge
	BM float64 // memory budget in bytes
	D  float64 // average destination in-degree within hub-bearing sub-shards
}

// YahooWeb returns the constants the paper uses for Figure 6: the
// Yahoo-web graph with 4-byte ids, 8-byte attributes, ~4-byte compressed
// edges and d = 15.
func YahooWeb() Params {
	return Params{
		N:  7.20e8,
		M:  6.63e9,
		Ba: 8,
		Bv: 4,
		Be: 4,
		D:  15,
	}
}

// IO is a read/write pair in bytes.
type IO struct {
	Read  float64
	Write float64
}

// Total returns read + write bytes.
func (io IO) Total() float64 { return io.Read + io.Write }

// SPU returns Table II row "SPU": reads stream the sub-shards not held in
// memory (m·Be − (BM − 2n·Ba), floored at zero), writes are zero. Valid
// only when BM ≥ 2n·Ba (or BM = 0 meaning unlimited).
func SPU(p Params) IO {
	read := p.M*p.Be - (p.BM - 2*p.N*p.Ba)
	if p.BM == 0 || read < 0 {
		read = 0
	}
	return IO{Read: read}
}

// DPU returns Table II row "DPU": edges plus one interval pass plus hub
// traffic on the read side; hub traffic plus one interval pass on the
// write side.
func DPU(p Params) IO {
	hub := p.M * (p.Ba + p.Bv) / p.D
	return IO{
		Read:  p.M*p.Be + hub + p.N*p.Ba,
		Write: hub + p.N*p.Ba,
	}
}

// MPUFraction returns (1 − BM/(2n·Ba)), the fraction of intervals that
// cannot be resident, clamped to [0, 1].
func MPUFraction(p Params) float64 {
	f := 1 - p.BM/(2*p.N*p.Ba)
	return math.Min(1, math.Max(0, f))
}

// MPU returns Table II row "MPU". At BM = 0 it equals DPU; at
// BM ≥ 2n·Ba it equals SPU with all edges streamed.
func MPU(p Params) IO {
	f := MPUFraction(p)
	hub := p.M * f * f * (p.Ba + p.Bv) / p.D
	return IO{
		Read:  p.M*p.Be + hub + f*p.N*p.Ba,
		Write: hub + f*p.N*p.Ba,
	}
}

// TurboGraphLike returns Table II row "TurboGraph-like" at the strategy's
// own optimal partitioning P = 2n·Ba/BM: every destination-interval pass
// re-reads all interval attributes.
func TurboGraphLike(p Params) IO {
	return IO{
		Read:  p.M*p.Be + 2*math.Pow(p.N*p.Ba, 2)/p.BM + p.N*p.Ba,
		Write: p.N * p.Ba,
	}
}

// Fig6Ratio returns total-I/O(MPU) / total-I/O(TurboGraph-like) at memory
// budget bm, the quantity plotted in Figure 6.
func Fig6Ratio(p Params, bm float64) float64 {
	p.BM = bm
	den := TurboGraphLike(p).Total()
	if den == 0 {
		return 0
	}
	return MPU(p).Total() / den
}

// Fig6Series samples the Figure 6 curve at `points` budgets spanning
// (0, 2n·Ba], returning parallel slices of budget bytes and ratios.
func Fig6Series(p Params, points int) (budgets, ratios []float64) {
	maxBM := 2 * p.N * p.Ba
	for i := 1; i <= points; i++ {
		bm := maxBM * float64(i) / float64(points)
		budgets = append(budgets, bm)
		ratios = append(ratios, Fig6Ratio(p, bm))
	}
	return budgets, ratios
}

// ImplDPU adjusts the paper's DPU read model to this implementation: the
// FromHub phase re-reads each destination interval's previous attributes
// so Apply can fold old values (the paper's Algorithm 6 initializes
// intervals in memory instead), adding one extra n·Ba read pass. The
// engine's measured-I/O tests assert against this variant:
// TestDPUIOMatchesTableII to the byte, TestMPUIOBetweenSPUAndDPU (through
// ImplMPU) within [0.5, 1]×.
func ImplDPU(p Params) IO {
	io := DPU(p)
	io.Read += p.N * p.Ba
	return io
}

// ImplMPU is the implementation variant of MPU (extra old-attribute read
// for the non-resident destination intervals).
func ImplMPU(p Params) IO {
	io := MPU(p)
	io.Read += MPUFraction(p) * p.N * p.Ba
	return io
}
