package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"oddci/internal/core/controller"
	"oddci/internal/core/provider"
	"oddci/internal/experiments/stats"
	"oddci/internal/netsim"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/system"
)

func init() {
	register("lifecycle", "Hardening: instance lifecycle under head-end faults (destroy, reset retransmission, GC, refresh retry)", runLifecycle)
}

// runLifecycle churns instances (create → run → destroy) against a
// head-end whose carousel updates fail with a given probability, and
// reports whether the recovery machinery — bounded reset
// retransmission, GC, refresh retry with backoff — keeps the broadcast
// state bounded and drains it back to baseline.
func runLifecycle(cfg Config) (*Result, error) {
	cyclesFor := func(quick bool) int {
		if quick {
			return 30
		}
		return 200
	}
	failProbs := []float64{0, 0.25, 0.5}
	if cfg.Quick {
		failProbs = []float64{0, 0.25}
	}

	tbl := stats.NewTable(
		fmt.Sprintf("Lifecycle churn, %d create→destroy rounds over 12 power-cycling nodes", cyclesFor(cfg.Quick)),
		"update fail prob", "rounds", "injected", "failed", "refresh retries", "GCs", "peak resets on air", "final files", "final ctl bytes")
	telTbl := stats.NewTable(
		"Live telemetry snapshot at end of run (obs registry)",
		"update fail prob", "heartbeats", "wakeups", "joins", "nodes expired", "resets sent", "wakeup→join p90 (s)", "broadcast MB")

	for i, prob := range failProbs {
		clk := simtime.NewSim(simEpoch)
		reg := obs.NewRegistry()
		plan := netsim.NewFaultPlan(rand.New(rand.NewSource(cfg.Seed+int64(i))), prob, 3)
		sys, err := system.New(system.Config{
			Clock:                clk,
			Nodes:                12,
			Seed:                 cfg.Seed + int64(i),
			HeartbeatPeriod:      15 * time.Second,
			MaintenancePeriod:    10 * time.Second,
			Obs:                  reg,
			HeadEndFaults:        plan,
			ResetRetransmitTicks: 3,
			RefreshRetryBase:     2 * time.Second,
			RefreshRetryMax:      8 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		if err := sys.Start(); err != nil {
			return nil, err
		}
		for _, box := range sys.STBs {
			if err := box.StartChurn(5*time.Minute, 45*time.Second); err != nil {
				return nil, err
			}
		}

		var rounds, peakOnAir, finalFiles, finalBytes int
		clk.Go(func() {
			spec := controller.InstanceSpec{
				Image:              workerImage(1 << 10),
				Target:             3,
				InitialProbability: 0.6,
				HeartbeatPeriod:    15 * time.Second,
			}
			for cycle := 0; cycle < cyclesFor(cfg.Quick); cycle++ {
				var inst *provider.Instance
				for attempt := 0; attempt < 8; attempt++ {
					in, err := sys.Provider.Create(spec)
					if err == nil {
						inst = in
						break
					}
					clk.Sleep(3 * time.Second)
				}
				if inst == nil {
					clk.Sleep(5 * time.Second)
					continue
				}
				clk.Sleep(10 * time.Second)
				_ = inst.Destroy() // tolerant of already-gone instances
				rounds++
				clk.Sleep(5 * time.Second)
				if _, _, _, onAir := sys.Controller.ContentStats(); onAir > peakOnAir {
					peakOnAir = onAir
				}
			}
			clk.Sleep(2 * time.Minute) // drain retries + GC windows
			finalBytes, finalFiles, _, _ = sys.Controller.ContentStats()
			sys.Shutdown()
		})
		clk.Wait()

		injected, failed := plan.Stats()
		snap := reg.Snapshot()
		tbl.AddRow(prob, rounds, injected, failed,
			snap.Counters["oddci_controller_refresh_retries_total"],
			snap.Counters["oddci_controller_instances_gced_total"],
			peakOnAir, finalFiles, finalBytes)

		mbAired := 0.0
		if v, ok := reg.Value("oddci_dsmcc_broadcast_bytes"); ok {
			mbAired = v / 1e6
		}
		telTbl.AddRow(prob,
			snap.Counters["oddci_controller_heartbeats_total"],
			snap.Counters["oddci_controller_wakeups_total"],
			snap.Counters["oddci_pna_joins_total"],
			snap.Counters["oddci_controller_nodes_expired_total"],
			snap.Counters["oddci_controller_resets_total"],
			snap.Histograms["oddci_controller_wakeup_to_join_seconds"].P90,
			mbAired)
	}
	return &Result{
		Tables: []*stats.Table{tbl, telTbl},
		Notes: []string{
			"destroyed instances keep their reset on air for a bounded retransmission window, then are GC'd: final carousel always returns to 2 files (xlet + control file) and an empty control file",
			"failed carousel updates never strand state — the refresh retries with exponential backoff and each maintenance pass re-attempts, so higher fail probabilities cost retries, not correctness",
		},
	}, nil
}
