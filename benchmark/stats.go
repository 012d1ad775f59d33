package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, so the value is always one that was measured.
// It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(p, len(xs))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples. The epsilon keeps 99.9 % of 10000 at rank 9990 although
// the product is not exact in floating point.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the tails the report may quote, highest last.
var tailPercentiles = []float64{90, 99, 99.9}

// highestTail returns the highest of tailPercentiles that still has at
// least ten samples beyond it, and its value. ok is false when even
// the lowest candidate has fewer than ten samples beyond it, in which
// case no tail is quoted.
func highestTail(xs []float64) (p, v float64, ok bool) {
	for _, cand := range tailPercentiles {
		if len(xs)-rank(cand, len(xs)) >= 10 {
			p, v, ok = cand, percentile(xs, cand), true
		}
	}
	return p, v, ok
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is what the acceptance rule for
// this benchmark is stated in. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median: the run-to-run spread every bound is
// judged against. It is 0 for fewer than two samples or a zero median.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
