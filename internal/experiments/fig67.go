package experiments

import (
	"fmt"
	"math"

	"oddci/internal/analytic"
	"oddci/internal/experiments/stats"
	"oddci/internal/sim"
)

func init() {
	register("fig6", "Figure 6: efficiency vs suitability Φ for n/N ∈ {1,10,100,1000}", runFig6)
	register("fig7", "Figure 7: makespan vs suitability Φ (same scenario)", runFig7)
}

// fig67Phis returns the Φ sweep (log-spaced 1..10⁵).
func fig67Phis(quick bool) []float64 {
	if quick {
		return []float64{1, 10, 100, 1000, 10000, 100000}
	}
	var phis []float64
	for e := 0.0; e <= 5.0; e += 0.25 {
		phis = append(phis, math.Pow(10, e))
	}
	return phis
}

var fig67Ratios = []float64{1, 10, 100, 1000}

// desValidation runs the DES at sampled points and reports deviation
// from the closed form.
func desValidation(cfg Config, metric func(p analytic.Params, r sim.JobResult) (got, want float64)) (*stats.Table, error) {
	nodes := 200
	phis := []float64{10, 1000, 100000}
	ratios := []float64{10, 100}
	if cfg.Quick {
		nodes = 50
		phis = []float64{1000}
	}
	tbl := stats.NewTable("DES cross-validation (N="+fmt.Sprint(nodes)+")",
		"n/N", "Φ", "DES", "analytic", "deviation %")
	for _, ratio := range ratios {
		for _, phi := range phis {
			p := analytic.Figure6Defaults(ratio, float64(nodes)).WithPhi(phi)
			res, err := sim.RunJob(sim.JobConfig{
				Nodes:        nodes,
				Tasks:        int(ratio) * nodes,
				ImageBytes:   int64(p.ImageBits / 8),
				Beta:         p.Beta,
				Delta:        p.Delta,
				TaskInBytes:  int(p.TaskInBits / 8),
				TaskOutBytes: int(p.TaskOutBits / 8),
				TaskSeconds:  p.TaskSeconds,
				Seed:         cfg.Seed + int64(ratio*7) + int64(phi),
			})
			if err != nil {
				return nil, err
			}
			got, want := metric(p, res)
			dev := (got - want) / want * 100
			tbl.AddRow(ratio, phi, got, want, dev)
		}
	}
	return tbl, nil
}

func runFig6(cfg Config) (*Result, error) {
	fig := stats.NewFigure("Efficiency of an OddCI-DTV instance, (s+r)=1 KB", "phi", "efficiency")
	for _, ratio := range fig67Ratios {
		s := fig.AddSeries(fmt.Sprintf("n/N=%g", ratio))
		for _, phi := range fig67Phis(cfg.Quick) {
			p := analytic.Figure6Defaults(ratio, 10000).WithPhi(phi)
			s.Add(phi, p.Efficiency())
		}
	}
	val, err := desValidation(cfg, func(p analytic.Params, r sim.JobResult) (float64, float64) {
		return r.Efficiency, p.Efficiency()
	})
	if err != nil {
		return nil, err
	}
	notes := []string{
		"E rises with Φ and with n/N; n/N ≥ 100 yields E ≳ 0.9 for Φ ≥ 10³ — the paper's headline reading of Figure 6",
		"Φ = p·δ/(s+r) (the paper's printed formula is inverted relative to its own numeric anchors; see DESIGN.md)",
		"DES deviations at small n/N stem from join-phase discreteness: with ~1 task per node the slowest joiner (2 cycles) sets the makespan while the closed form charges the 1.5-cycle mean",
	}
	return &Result{Figs: []*stats.Figure{fig}, Tables: []*stats.Table{val}, Notes: notes}, nil
}

func runFig7(cfg Config) (*Result, error) {
	fig := stats.NewFigure("Makespan of an OddCI-DTV instance (log y)", "phi", "makespan seconds")
	for _, ratio := range fig67Ratios {
		s := fig.AddSeries(fmt.Sprintf("n/N=%g", ratio))
		for _, phi := range fig67Phis(cfg.Quick) {
			p := analytic.Figure6Defaults(ratio, 10000).WithPhi(phi)
			s.Add(phi, p.Makespan())
		}
	}
	val, err := desValidation(cfg, func(p analytic.Params, r sim.JobResult) (float64, float64) {
		return r.Makespan.Seconds(), p.Makespan()
	})
	if err != nil {
		return nil, err
	}
	notes := []string{
		"high efficiency buys long makespans: at fixed n/N the makespan grows ~linearly in Φ once compute dominates the wakeup term — the efficiency/latency compromise §5.2.2 discusses",
	}
	return &Result{Figs: []*stats.Figure{fig}, Tables: []*stats.Table{val}, Notes: notes}, nil
}
