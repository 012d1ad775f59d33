package experiments

import (
	"fmt"
	"time"

	"oddci/internal/core/backend"
	"oddci/internal/core/controller"
	"oddci/internal/experiments/stats"
	"oddci/internal/netsim"
	"oddci/internal/simtime"
	"oddci/internal/system"
	"oddci/internal/workload"
)

func init() {
	register("byzantine", "Extension: byzantine nodes vs credibility-weighted quorum (§3.1 replication under adversaries)", runByzantine)
}

// ByzantineScenario sizes one adversarial deployment run.
type ByzantineScenario struct {
	// Nodes and Tasks size the deployment (defaults 40 / 200).
	Nodes int
	Tasks int
	// Replication is the per-task vote count (default 5).
	Replication int
	// Fraction of nodes assigned a byzantine behavior.
	Fraction float64
	// Behaviors restricts the misbehavior pool (empty = all).
	Behaviors []netsim.Behavior
	// Mode is the backend credential policy (default CredEnforce — the
	// full defence; credential-only attackers are invisible below it).
	Mode backend.CredentialMode
	// Seed drives every stream.
	Seed int64
}

// ByzantineOutcome is what one scenario run measured.
type ByzantineOutcome struct {
	Makespan time.Duration
	// Committed counts tasks with a committed result; WrongCommits are
	// the committed results that differ from the honest computation
	// (tasks here carry no concrete payload, so the honest result is
	// empty and any non-empty commit is wrong).
	Committed    int
	WrongCommits int
	// Byzantine counts nodes assigned a misbehavior; ByzQuarantined of
	// those ended quarantined, HonestQuarantined counts collateral.
	Byzantine         int
	ByzQuarantined    int
	HonestQuarantined int
	// Conflicts and Unresolved mirror the backend counters; Lies counts
	// submissions the adversary actually mutated on the wire.
	Conflicts  int64
	Unresolved int64
	Lies       int64
}

// RunByzantineScenario assembles a full deployment with the scenario's
// adversary plan, runs one job to completion, and audits the committed
// results against ground truth. Shared by the byzantine experiment and
// TestByzantineGates, so the gates and the tables measure the same code
// path.
func RunByzantineScenario(sc ByzantineScenario) (*ByzantineOutcome, error) {
	if sc.Nodes <= 0 {
		sc.Nodes = 40
	}
	if sc.Tasks <= 0 {
		sc.Tasks = 200
	}
	if sc.Replication <= 0 {
		sc.Replication = 5
	}
	if sc.Mode == backend.CredOff {
		sc.Mode = backend.CredEnforce
	}
	clk := simtime.NewSim(simEpoch)
	var plan *netsim.AdversaryPlan
	if sc.Fraction > 0 {
		plan = netsim.NewAdversaryPlan(netsim.AdversaryConfig{
			Seed:      uint64(sc.Seed)*0x9E3779B97F4A7C15 + 1,
			Fraction:  sc.Fraction,
			Behaviors: sc.Behaviors,
		})
	}
	sys, err := system.New(system.Config{
		Clock:             clk,
		Nodes:             sc.Nodes,
		Seed:              sc.Seed,
		HeartbeatPeriod:   30 * time.Second,
		MaintenancePeriod: 30 * time.Second,
		Replication:       sc.Replication,
		Adversary:         plan,
		CredentialMode:    sc.Mode,
	})
	if err != nil {
		return nil, err
	}
	if err := sys.Start(); err != nil {
		return nil, err
	}
	gen := workload.Generator{
		Name: "byzantine", ImageBytes: 1 << 20, Tasks: sc.Tasks,
		InputBytes: 512, OutputBytes: 256, MeanSeconds: 5,
	}
	job, err := gen.Generate()
	if err != nil {
		return nil, err
	}
	h, err := sys.Backend.Submit(job)
	if err != nil {
		return nil, err
	}
	if _, err := sys.Provider.Create(controller.InstanceSpec{
		Image:              workerImage(1 << 20),
		Target:             sc.Nodes,
		InitialProbability: 1,
		HeartbeatPeriod:    30 * time.Second,
	}); err != nil {
		return nil, err
	}
	h.OnComplete(func(time.Time) { sys.Shutdown() })
	clk.Wait()

	ms, done := h.Makespan()
	if !done {
		return nil, fmt.Errorf("byzantine: job wedged (f=%.2f R=%d seed=%d)", sc.Fraction, sc.Replication, sc.Seed)
	}
	out := &ByzantineOutcome{
		Makespan:   ms,
		Conflicts:  sys.Backend.Conflicts,
		Unresolved: sys.Backend.Unresolved,
	}
	for _, payload := range h.Results() {
		out.Committed++
		if len(payload) != 0 {
			// Tasks carry no concrete work, so the honest result is
			// empty; only an adversary-substituted payload can commit
			// non-empty bytes.
			out.WrongCommits++
		}
	}
	for i := 0; i < sc.Nodes; i++ {
		node := uint64(i + 1)
		byz := plan != nil && plan.IsByzantine(node)
		if byz {
			out.Byzantine++
		}
		if sys.Backend.Quarantined(node) {
			if byz {
				out.ByzQuarantined++
			} else {
				out.HonestQuarantined++
			}
		}
	}
	if plan != nil {
		_, out.Lies = plan.Stats()
	}
	return out, nil
}

// runByzantine sweeps byzantine fraction × replication and tabulates
// wrong commits, quarantine coverage, and collateral damage.
func runByzantine(cfg Config) (*Result, error) {
	fractions := []float64{0, 0.1, 0.2, 0.3}
	replications := []int{3, 5}
	if cfg.Quick {
		fractions = []float64{0, 0.2}
		replications = []int{5}
	}
	tbl := stats.NewTable(
		"Byzantine fraction × replication (40 nodes, 200 tasks, enforce mode)",
		"f", "R", "byz nodes", "byz quarantined", "honest quarantined",
		"wrong commits", "unresolved", "conflicts", "lies", "makespan")
	for _, r := range replications {
		for _, f := range fractions {
			out, err := RunByzantineScenario(ByzantineScenario{
				Fraction: f, Replication: r, Seed: cfg.Seed + int64(r)*1000 + int64(f*100),
			})
			if err != nil {
				return nil, err
			}
			tbl.AddRow(f, r, out.Byzantine, out.ByzQuarantined, out.HonestQuarantined,
				out.WrongCommits, out.Unresolved, out.Conflicts, out.Lies,
				out.Makespan.Round(time.Second))
		}
	}
	return &Result{
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"weighted quorum at R=5 needs 3000 milli-credits of agreeing weight; colluding groups are capped at 2 members (2000), so agreeing liars cannot commit a wrong result — the R=3 rows show the margin boundary where a full-trust colluding pair reaches quorum",
			"credential-only attackers (replay/forge) submit honest payloads and are caught purely by MAC verification in enforce mode; two rejections halve full trust below the 300 quarantine floor",
		},
	}, nil
}
