package experiments

import (
	"fmt"
	"math"
	"time"

	"oddci/internal/experiments/stats"
	"oddci/internal/fleet"
)

func init() {
	register("fleet", "Extension: availability, ramp-up and quorum of a 10^5–10^6-node churning fleet vs the analytic model", runFleet)
}

// runFleet runs the struct-of-arrays fleet engine (internal/fleet) at
// two power-cycle regimes: its defaults, 3 h on / 1 h off, and 10 min on
// / 5 min off, where most power periods end inside the window. Each run
// checks its own availability, ramp-up and quorum samples against
// internal/analytic; the table reports the simulated and model values,
// the worst ramp-up sample as a share of its tolerance, and whether
// every bound held. Everything is virtual time, so nothing here reads
// the host clock.
func runFleet(cfg Config) (*Result, error) {
	sizes := []int{100_000, 1_000_000}
	if cfg.Quick {
		sizes = []int{20_000}
	}
	regimes := []struct {
		name    string
		on, off time.Duration
	}{
		{"3h on / 1h off (default)", 0, 0},
		{"10m on / 5m off", 10 * time.Minute, 5 * time.Minute},
	}
	tbl := stats.NewTable("SoA fleet: one wakeup of a 10 MB image on a 1 Mbps carousel (C = 80 s)",
		"regime", "N", "avail model", "avail sim", "worst ramp err/tol", "quorum sim", "quorum model", "bounds")
	for _, rg := range regimes {
		for _, n := range sizes {
			r, err := fleet.Run(fleet.Config{Nodes: n, Seed: cfg.Seed, MeanOn: rg.on, MeanOff: rg.off})
			if err != nil {
				return nil, err
			}
			var avail, worst float64
			for _, p := range r.Avail {
				avail += p.Sim / float64(len(r.Avail))
			}
			for _, p := range r.Ramp {
				worst = max(worst, math.Abs(p.Sim-p.Model)/p.Tol)
			}
			bounds := "hold"
			if err := r.Validate(); err != nil {
				bounds = err.Error()
			}
			tbl.AddRow(rg.name, n, r.Availability, avail, worst,
				quorumSeconds(r.QuorumSimSeconds), quorumSeconds(r.QuorumModelSeconds), bounds)
		}
	}
	return &Result{
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"quorum: the first instant 80% of the nodes on at the wakeup have loaded the image and are still on; the model inverts analytic.RampUpWithChurn",
			"under 10m on / 5m off the churn-adjusted ramp peaks below the quorum: by t = 2C = 160 s, when every node still on has loaded, only e^(-160/600) = 77% of the wakeup-time nodes are still on",
		},
	}, nil
}

// quorumSeconds renders a quorum time: "never" for a quorum not reached
// in the window (simulated) or not reachable (model).
func quorumSeconds(s float64) string {
	if s < 0 || math.IsInf(s, 1) {
		return "never"
	}
	return fmt.Sprintf("%.1fs", s)
}
