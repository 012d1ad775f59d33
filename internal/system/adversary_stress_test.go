package system

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"oddci/internal/core/backend"
	"oddci/internal/core/controller"
	"oddci/internal/core/provider"
	"oddci/internal/netsim"
	"oddci/internal/simtime"
	"oddci/internal/workload"
)

// TestAdversarialChurnStress is the byzantine hardening stress: 100+
// small replicated jobs run back to back while a quarter of the node
// population lies, forges, or replays credentials, every STB
// power-cycles underneath, and the head-end's carousel updates fail
// probabilistically. Every round must commit only honest (empty)
// results, quarantine must catch liars without collateral damage, and
// the whole run must be race-clean under -race.
func TestAdversarialChurnStress(t *testing.T) {
	const (
		rounds        = 110
		tasksPerRound = 2
		nodes         = 20
	)

	clk := simtime.NewSim(epoch)
	faults := netsim.NewFaultPlan(rand.New(rand.NewSource(23)), 0.25, 3)
	adversary := netsim.NewAdversaryPlan(netsim.AdversaryConfig{
		Seed:     0xADBE,
		Fraction: 0.25,
	})
	sys, err := New(Config{
		Clock:                clk,
		Nodes:                nodes,
		Seed:                 11,
		HeartbeatPeriod:      30 * time.Second,
		MaintenancePeriod:    30 * time.Second,
		Replication:          5,
		Adversary:            adversary,
		CredentialMode:       backend.CredEnforce,
		HeadEndFaults:        faults,
		ResetRetransmitTicks: 3,
		RefreshRetryBase:     2 * time.Second,
		RefreshRetryMax:      8 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	for _, box := range sys.STBs {
		if err := box.StartChurn(5*time.Minute, 45*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	var (
		completed, wrong int
		errs             []error
	)
	clk.Go(func() {
		defer sys.Shutdown()
		if _, err := sys.Provider.Create(controller.InstanceSpec{
			Image:              testImage(1 << 18),
			Target:             nodes,
			InitialProbability: 1,
			HeartbeatPeriod:    30 * time.Second,
		}); err != nil {
			errs = append(errs, fmt.Errorf("create: %w", err))
			return
		}
		for round := 0; round < rounds; round++ {
			gen := workload.Generator{
				Name: "stress", ImageBytes: 1 << 18, Tasks: tasksPerRound,
				InputBytes: 256, OutputBytes: 128, MeanSeconds: 2,
			}
			job, err := gen.Generate()
			if err != nil {
				errs = append(errs, fmt.Errorf("round %d: %w", round, err))
				return
			}
			h, err := sys.Backend.Submit(job)
			if err != nil {
				errs = append(errs, fmt.Errorf("round %d submit: %w", round, err))
				return
			}
			deadline := clk.Now().Add(30 * time.Minute)
			for {
				if _, done := h.Done(); done {
					break
				}
				if clk.Now().After(deadline) {
					errs = append(errs, fmt.Errorf("round %d wedged after 30 sim-minutes", round))
					return
				}
				clk.Sleep(10 * time.Second)
			}
			completed++
			for id, payload := range h.Results() {
				if len(payload) != 0 {
					// Tasks carry no concrete work; any non-empty commit
					// is an adversary payload that beat the quorum.
					wrong++
					errs = append(errs, fmt.Errorf("round %d task %d committed adversary payload", round, id))
				}
			}
			// Cycle a throwaway instance through the faulty head-end so
			// carousel updates (and their injected failures) keep flowing
			// alongside the adversarial task plane. Near-zero probability:
			// it must not poach workers from the job instance for long.
			if round%2 == 0 {
				var aux *provider.Instance
				for attempt := 0; attempt < 5; attempt++ {
					in, err := sys.Provider.Create(controller.InstanceSpec{
						Image:              testImage(1 << 10),
						Target:             1,
						InitialProbability: 0.05,
						HeartbeatPeriod:    30 * time.Second,
					})
					if err == nil {
						aux = in
						break
					}
					clk.Sleep(3 * time.Second) // injected staging failure; retry
				}
				if aux != nil {
					clk.Sleep(5 * time.Second)
					if err := aux.Destroy(); err != nil {
						errs = append(errs, fmt.Errorf("round %d aux destroy: %w", round, err))
					}
				}
			}
		}
	})
	clk.Wait()

	for _, err := range errs {
		t.Error(err)
	}
	if completed < 100 {
		t.Fatalf("only %d/%d rounds completed; need ≥100", completed, rounds)
	}
	if wrong != 0 {
		t.Fatalf("%d wrong commits across %d rounds", wrong, completed)
	}
	var byz, quarantined int
	for n := uint64(1); n <= nodes; n++ {
		if adversary.IsByzantine(n) {
			byz++
		}
		if sys.Backend.Quarantined(n) {
			quarantined++
			if !adversary.IsByzantine(n) {
				t.Errorf("honest node %d quarantined (collateral damage)", n)
			}
		}
	}
	if byz == 0 {
		t.Fatal("adversary plan marked no nodes byzantine")
	}
	if quarantined == 0 {
		t.Fatalf("no quarantines across %d adversarial rounds (%d byzantine nodes)", completed, byz)
	}
	if _, lies := adversary.Stats(); lies == 0 {
		t.Fatal("adversary never actually mutated a submission")
	}
	if injected, failed := faults.Stats(); failed == 0 {
		t.Fatalf("head-end plan injected %d updates, failed none — faults never exercised", injected)
	}
}
