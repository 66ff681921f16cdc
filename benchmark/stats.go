package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics, or 0 for an empty sample. xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b with 0/0 = 0, so a layer that did no work reports 0
// rather than NaN (NaN is not valid JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartileSpread is the driver's steadiness measure: the distance
// between the first and third quartile as a share of the median, with
// the quartiles Python's statistics.quantiles(values, n=4) gives
// (exclusive method: positions at k(n+1)/4 in the sorted sample).
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(math.Floor(pos))
		frac := pos - float64(j)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := at(2)
	return ratio(at(3)-at(1), math.Abs(med))
}
