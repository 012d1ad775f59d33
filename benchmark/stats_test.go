package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the functions must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %g, want 0", got)
	}
}

// The quoted tail is the highest percentile that still has ten samples
// beyond it.
func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{50, 0, false},
		{99, 0, false}, // p90 of 99 is rank 90: nine beyond
		{100, 90, true},
		{999, 90, true}, // p99 of 999 is rank 990: nine beyond
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, v, ok := highestTail(seq(c.n))
		if ok != c.ok || p != c.wantP {
			t.Errorf("n=%d: p%g ok=%t, want p%g ok=%t", c.n, p, ok, c.wantP, c.ok)
		}
		if ok && v != percentile(seq(c.n), p) {
			t.Errorf("n=%d: tail value %g is not p%g", c.n, v, p)
		}
	}
}

// Reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got, want := quartileSpread(seq(10)), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %g, want %g", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %g, want 0", got)
	}
}
