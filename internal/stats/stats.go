// Package stats provides the small set of statistical helpers used across
// the MP-DASH reproduction: means, percentiles, and empirical CDFs.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// HarmonicMean returns the harmonic mean of xs. FESTIVE uses the harmonic
// mean of recent chunk throughputs as its bandwidth estimator because it is
// robust to large outliers. Non-positive samples are skipped; if no positive
// sample exists the result is 0.
func HarmonicMean(xs []float64) float64 {
	var inv float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		inv += 1 / x
		n++
	}
	if n == 0 || inv == 0 {
		return 0
	}
	return float64(n) / inv
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns ErrEmpty on empty input.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// NearestRank returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample by the nearest-rank definition — the element at index
// ceil(q·n)−1, clamped — or 0 for an empty sample. Unlike Percentile it
// always returns an observed value; the swarm report and the miss budget
// gate on it.
func NearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// CDFPoint is a single (value, cumulative fraction) point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF returns the empirical cumulative distribution of xs as a sorted list
// of points, one per sample, with Fraction = rank/n.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pts := make([]CDFPoint, len(sorted))
	n := float64(len(sorted))
	for i, v := range sorted {
		pts[i] = CDFPoint{Value: v, Fraction: float64(i+1) / n}
	}
	return pts
}

// FractionAtMost returns the empirical fraction of samples <= v.
func FractionAtMost(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x <= v {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Min returns the minimum of xs, or ErrEmpty.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs, or ErrEmpty.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
