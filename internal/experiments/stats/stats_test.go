package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); got != 5 {
		t.Fatalf("mean = %v", got)
	}
	if got := s.Std(); math.Abs(got-2.138) > 0.001 {
		t.Fatalf("std = %v", got)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestEmptySampleSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Std() != 0 || s.CI90() != 0 || s.Min() != 0 ||
		s.Max() != 0 || s.Percentile(50) != 0 || s.RelativeError90() != 0 {
		t.Fatal("empty sample should be all zeros")
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := s.Percentile(pa), s.Percentile(pb)
		return va <= vb && va >= s.Min() && vb <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCI90CoversTrueMean(t *testing.T) {
	// Draw repeated samples from N(10, 2); the 90% CI should contain the
	// true mean roughly 90% of the time.
	rng := rand.New(rand.NewSource(77))
	const trials = 400
	covered := 0
	for i := 0; i < trials; i++ {
		var s Sample
		for j := 0; j < 15; j++ {
			s.Add(10 + rng.NormFloat64()*2)
		}
		if math.Abs(s.Mean()-10) <= s.CI90() {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.85 || rate > 0.95 {
		t.Fatalf("CI90 coverage = %.3f, want ≈ 0.90", rate)
	}
}

func TestTCritical(t *testing.T) {
	if tCritical90(1) != 6.314 {
		t.Fatal("df=1")
	}
	if tCritical90(200) != 1.645 {
		t.Fatal("df=200")
	}
	if got := tCritical90(17); got != 1.753 { // nearest smaller: 15
		t.Fatalf("df=17 → %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table II", "#Test", "STB In Use (s)", "PC (s)")
	tb.AddRow(1, 3.338, 0.162)
	tb.AddRow(12, 38858.298, 1886.214)
	out := tb.String()
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "#Test") {
		t.Fatalf("missing title/headers:\n%s", out)
	}
	if !strings.Contains(out, "3.338") {
		t.Fatalf("missing cell:\n%s", out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestTableDurationCells(t *testing.T) {
	tb := NewTable("", "w")
	tb.AddRow(1500 * time.Millisecond)
	if !strings.Contains(tb.String(), "1.500s") {
		t.Fatalf("duration cell: %s", tb.String())
	}
}

func TestFigureRendering(t *testing.T) {
	fig := NewFigure("Figure 6", "phi", "efficiency")
	s1 := fig.AddSeries("n/N=1")
	s10 := fig.AddSeries("n/N=10")
	for _, x := range []float64{1, 10, 100} {
		s1.Add(x, x/200)
		s10.Add(x, x/100)
	}
	out := fig.String()
	if !strings.Contains(out, "n/N=1") || !strings.Contains(out, "n/N=10") {
		t.Fatalf("missing series labels:\n%s", out)
	}
	if !strings.Contains(out, "Figure 6") {
		t.Fatalf("missing title:\n%s", out)
	}
}

func TestRelativeError(t *testing.T) {
	var s Sample
	for i := 0; i < 10; i++ {
		s.Add(100)
	}
	if s.RelativeError90() != 0 {
		t.Fatal("zero-variance sample should have zero relative error")
	}
	s.Add(200)
	if s.RelativeError90() <= 0 {
		t.Fatal("relative error should be positive with variance")
	}
}
