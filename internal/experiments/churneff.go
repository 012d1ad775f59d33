package experiments

import (
	"fmt"
	"time"

	"oddci/internal/analytic"
	"oddci/internal/experiments/stats"
	"oddci/internal/sim"
)

func init() {
	register("churn-eff", "Extension: efficiency under viewer churn (relaxing §5.2.1's stable-N assumption)", runChurnEff)
}

// runChurnEff sweeps churn harshness × suitability and reports the gap
// between the measured efficiency and the stable-population closed form
// — quantifying how much of Figure 6 survives real viewer behaviour.
func runChurnEff(cfg Config) (*Result, error) {
	const (
		nodes = 100
		ratio = 20
	)
	type regime struct {
		name    string
		on, off time.Duration
	}
	regimes := []regime{
		{"stable (no churn)", 0, 0},
		{"calm (2h/5m)", 2 * time.Hour, 5 * time.Minute},
		{"evening (30m/5m)", 30 * time.Minute, 5 * time.Minute},
		{"zapping (10m/3m)", 10 * time.Minute, 3 * time.Minute},
	}
	phis := []float64{100, 1000, 10000}
	if cfg.Quick {
		regimes = []regime{regimes[0], regimes[2]}
		phis = []float64{1000}
	}

	tbl := stats.NewTable(
		fmt.Sprintf("Efficiency under churn (N=%d, n/N=%d)", nodes, ratio),
		"regime", "Φ", "efficiency", "vs stable model", "tasks lost", "departures")
	for _, rg := range regimes {
		for _, phi := range phis {
			p := analytic.Figure6Defaults(ratio, nodes).WithPhi(phi)
			base := sim.JobConfig{
				Nodes:        nodes,
				Tasks:        ratio * nodes,
				ImageBytes:   int64(p.ImageBits / 8),
				Beta:         p.Beta,
				Delta:        p.Delta,
				TaskInBytes:  int(p.TaskInBits / 8),
				TaskOutBytes: int(p.TaskOutBits / 8),
				TaskSeconds:  p.TaskSeconds,
				Seed:         cfg.Seed + int64(phi),
			}
			var eff float64
			var lost, departures int
			if rg.on == 0 {
				res, err := sim.RunJob(base)
				if err != nil {
					return nil, err
				}
				eff = res.Efficiency
			} else {
				res, err := sim.RunChurnJob(sim.ChurnJobConfig{
					JobConfig: base, MeanOn: rg.on, MeanOff: rg.off,
				})
				if err != nil {
					return nil, err
				}
				eff, lost, departures = res.Efficiency, res.TasksLost, res.Departures
			}
			model := p.Efficiency()
			tbl.AddRow(rg.name, phi, eff, fmt.Sprintf("%.1f%%", eff/model*100), lost, departures)
		}
	}
	return &Result{
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"churn hurts most when task times approach session lengths (high Φ): lost work plus lease latency compound; short tasks barely notice churn",
			"the paper's Figure 6 assumes nodes stay for the whole job (§5.2.1); this extension quantifies the optimism of that assumption",
		},
	}, nil
}
