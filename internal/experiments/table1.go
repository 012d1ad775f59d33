package experiments

import (
	"fmt"
	"time"

	"oddci/internal/baseline"
	"oddci/internal/experiments/stats"
	"oddci/internal/simtime"
)

func init() {
	register("table1", "Table I quantified: image-staging setup time vs population size", runTable1)
}

// runTable1 turns the paper's qualitative requirements table into
// numbers: the time until the *last* of N nodes holds the 8 MB
// application image, per technology. Parameters are era-appropriate:
// β = 1 Mbps spare broadcast capacity, a desktop-grid master on a
// 1 Gbps uplink with 10 Mbps workers, an IaaS region booting 100 VMs
// concurrently (2 min each) from a fat store, and an overlay multicast
// with fanout 8 on worker links.
func runTable1(cfg Config) (*Result, error) {
	const imageBytes = 8 << 20
	oddci := baseline.OddCI{ImageBytes: imageBytes, BetaBps: 1e6}
	grid := baseline.Unicast{ImageBytes: imageBytes, UplinkBps: 1e9, DeltaBps: 10e6}
	iaas := baseline.IaaS{ImageBytes: imageBytes, DeltaBps: 1e9, Boot: 2 * time.Minute, Concurrency: 100}
	tree := baseline.MulticastTree{ImageBytes: imageBytes, DeltaBps: 10e6, Fanout: 8}

	ns := []int{100, 1000, 10000, 100000, 1000000}
	if cfg.Quick {
		ns = []int{100, 10000, 1000000}
	}
	tbl := stats.NewTable(
		"Setup time (last node ready, seconds) — image 8 MB",
		"N", "OddCI (β=1Mbps)", "Desktop grid (1Gbps uplink)", "IaaS (C=100, 2min boot)", "Multicast tree (k=8)")
	fig := stats.NewFigure("Table I scalability", "N", "setup seconds")
	so := fig.AddSeries("oddci")
	sg := fig.AddSeries("desktop-grid")
	si := fig.AddSeries("iaas")
	sm := fig.AddSeries("multicast")

	var crossover string
	prevGridWins := true
	for _, n := range ns {
		ro, err := oddci.Analytic(n)
		if err != nil {
			return nil, err
		}
		rg, err := grid.Analytic(n)
		if err != nil {
			return nil, err
		}
		ri, err := iaas.Analytic(n)
		if err != nil {
			return nil, err
		}
		rm, err := tree.Analytic(n)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(n, ro.Last.Seconds(), rg.Last.Seconds(), ri.Last.Seconds(), rm.Last.Seconds())
		so.Add(float64(n), ro.Last.Seconds())
		sg.Add(float64(n), rg.Last.Seconds())
		si.Add(float64(n), ri.Last.Seconds())
		sm.Add(float64(n), rm.Last.Seconds())
		gridWins := rg.Last < ro.Last
		if prevGridWins && !gridWins && crossover == "" {
			crossover = fmt.Sprintf("OddCI overtakes the desktop grid between the previous N and N=%d", n)
		}
		prevGridWins = gridWins
	}

	// DES spot-check of the unicast model.
	clk := simtime.NewSim(time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC))
	simN := 1000
	if cfg.Quick {
		simN = 100
	}
	simRes, err := grid.Simulate(clk, simN)
	if err != nil {
		return nil, err
	}
	anaRes, err := grid.Analytic(simN)
	if err != nil {
		return nil, err
	}

	notes := []string{
		"OddCI setup is flat in N (one broadcast transmission); every alternative grows with N.",
		fmt.Sprintf("unicast DES spot-check at N=%d: simulated %.1fs vs analytic %.1fs",
			simN, simRes.Last.Seconds(), anaRes.Last.Seconds()),
	}
	if crossover != "" {
		notes = append(notes, crossover)
	}
	return &Result{Tables: []*stats.Table{tbl}, Figs: []*stats.Figure{fig}, Notes: notes}, nil
}
