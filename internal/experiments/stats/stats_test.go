package stats

import (
	"strings"
	"testing"
	"time"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if len(s.xs) != 8 {
		t.Fatalf("N = %d", len(s.xs))
	}
	if got := s.Mean(); got != 5 {
		t.Fatalf("mean = %v", got)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestEmptySampleSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should be all zeros")
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
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
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
