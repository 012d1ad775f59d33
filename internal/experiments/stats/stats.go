// Package stats provides the measurement toolkit used by the
// experiment harness: summary statistics over observations and
// plain-text table/series rendering in the style of the paper's tables
// and figures.
package stats

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Sample accumulates observations.
type Sample struct {
	xs []float64
}

// Add appends one observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Min returns the smallest observation (0 for empty).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation (0 for empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Table renders aligned plain-text tables in the style of the paper.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.3fs", v.Seconds())
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.3e", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// Series is one labelled curve of a figure: (x, y) points.
type Series struct {
	Label string
	X, Y  []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a set of series sharing axes, rendered as aligned columns
// (one x column, one y column per series) — the textual equivalent of
// the paper's plots, directly plottable.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure creates an empty figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries registers and returns a new labelled series.
func (f *Figure) AddSeries(label string) *Series {
	s := &Series{Label: label}
	f.Series = append(f.Series, s)
	return s
}

// String renders the figure as a column table keyed by the x values of
// the first series (all series must share x values).
func (f *Figure) String() string {
	if len(f.Series) == 0 {
		return f.Title + " (empty)\n"
	}
	headers := []string{f.XLabel}
	for _, s := range f.Series {
		headers = append(headers, s.Label)
	}
	t := NewTable(fmt.Sprintf("%s — %s vs %s", f.Title, f.YLabel, f.XLabel), headers...)
	base := f.Series[0]
	for i, x := range base.X {
		row := make([]any, 0, len(f.Series)+1)
		row = append(row, formatFloat(x))
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, s.Y[i])
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}
