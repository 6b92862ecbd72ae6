package main

import (
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a percentile for the
// benchmark to call it supported: p90 needs 100 samples, the median 20.
// An unsupported percentile is still printed, with its sample count, but
// -compare and -repeat report it as unresolved.
const minTailSamples = 10

// percentile returns the p-th percentile (0 <= p <= 100) of the samples
// by linear interpolation between order statistics; 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// supported reports whether n samples leave at least minTailSamples beyond
// the p-th percentile on its thinner side.
func supported(n int, p float64) bool {
	tail := math.Min(p, 100-p) / 100
	return float64(n)*tail >= minTailSamples
}

// spread is max/min - 1 over the values: the run-to-run disagreement
// -repeat holds against a metric's bound. 0 for fewer than two values.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo <= 0 {
		return math.Inf(1)
	}
	return hi/lo - 1
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, computed the way the acceptance check does
// (Python's statistics.quantiles(values, n=4), exclusive method).
func iqrShare(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return math.Inf(1)
	}
	return (q(3) - q(1)) / math.Abs(med)
}
