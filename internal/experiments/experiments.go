// Package experiments regenerates every table and figure of the paper's
// evaluation (plus the ablations DESIGN.md calls out). Each experiment
// is a Runner keyed by ID; cmd/oddci-sim drives them from the command
// line and the repository benchmarks wrap them via testing.B.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"oddci/internal/experiments/stats"
)

// Config tunes a run.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Quick shrinks sweeps for CI and benchmarks.
	Quick bool
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Figs   []*stats.Figure
	Notes  []string
}

// Render writes the result as text.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		fmt.Fprintln(w, t.String())
	}
	for _, f := range r.Figs {
		fmt.Fprintln(w, f.String())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner executes one experiment.
type Runner func(Config) (*Result, error)

type entry struct {
	id    string
	title string
	run   Runner
}

var registry []entry

func register(id, title string, run Runner) {
	registry = append(registry, entry{id, title, run})
}

// IDs lists registered experiment IDs in registration order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (*Result, error) {
	for _, e := range registry {
		if e.id == id {
			res, err := e.run(cfg)
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", id, err)
			}
			res.ID, res.Title = e.id, e.title
			return res, nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
}

// RunAll executes every experiment in order.
func RunAll(cfg Config) ([]*Result, error) {
	var out []*Result
	for _, e := range registry {
		res, err := Run(e.id, cfg)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
