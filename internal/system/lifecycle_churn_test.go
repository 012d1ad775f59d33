package system

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"oddci/internal/core/controller"
	"oddci/internal/core/instance"
	"oddci/internal/netsim"
	"oddci/internal/obs"
	"oddci/internal/simtime"
)

// TestLifecycleChurnUnderFaults is the end-to-end hardening stress:
// hundreds of create→destroy rounds against a head-end whose carousel
// updates fail probabilistically, over a node population that
// power-cycles underneath. It asserts the control plane stays bounded
// (control file, carousel, instance table), drains back to baseline
// once the churn stops, and that every surviving PNA observed its
// reset — no instance keeps ghost members.
func TestLifecycleChurnUnderFaults(t *testing.T) {
	const cycles = 212

	clk := simtime.NewSim(epoch)
	reg := obs.NewRegistry()
	plan := netsim.NewFaultPlan(rand.New(rand.NewSource(23)), 0.25, 3)
	sys, err := New(Config{
		Clock:                clk,
		Nodes:                12,
		Seed:                 7,
		HeartbeatPeriod:      15 * time.Second,
		MaintenancePeriod:    10 * time.Second,
		Obs:                  reg,
		HeadEndFaults:        plan,
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
		created                                       []instance.ID
		destroys                                      int
		errs                                          []error
		finalBytes, finalFiles, finalLive, finalOnAir int
		ghosts                                        int
	)
	clk.Go(func() {
		spec := controller.InstanceSpec{
			Image:              testImage(1 << 10),
			Target:             3,
			InitialProbability: 0.6,
			HeartbeatPeriod:    15 * time.Second,
		}
		for cycle := 0; cycle < cycles; cycle++ {
			inst, err := sys.Provider.Create(spec)
			if err != nil {
				errs = append(errs, fmt.Errorf("cycle %d create: %w", cycle, err))
				break
			}
			created = append(created, inst.ID())
			clk.Sleep(10 * time.Second)
			if err := inst.Destroy(); err != nil {
				errs = append(errs, fmt.Errorf("cycle %d destroy: %w", cycle, err))
			} else {
				destroys++
			}
			clk.Sleep(5 * time.Second)
			if cycle%20 == 0 {
				_, files, live, onAir := sys.Controller.ContentStats()
				if live > 2 || onAir > 10 || files != 2+live {
					errs = append(errs, fmt.Errorf(
						"cycle %d control plane unbounded: files=%d live=%d onAir=%d",
						cycle, files, live, onAir))
				}
			}
		}
		// Quiet period: backoff retries, the retransmission windows and
		// heartbeat-driven resets all drain.
		clk.Sleep(2 * time.Minute)
		finalBytes, finalFiles, finalLive, finalOnAir = sys.Controller.ContentStats()
		for _, id := range created {
			ghosts += sys.LiveBusy(id)
		}
		sys.Shutdown()
	})
	clk.Wait()

	for _, err := range errs {
		t.Error(err)
	}
	if destroys != cycles {
		t.Fatalf("only %d/%d cycles completed", destroys, cycles)
	}
	if finalBytes != 0 || finalFiles != 2 || finalLive != 0 || finalOnAir != 0 {
		t.Fatalf("control plane did not drain: bytes=%d files=%d live=%d onAir=%d",
			finalBytes, finalFiles, finalLive, finalOnAir)
	}
	if ghosts != 0 {
		t.Fatalf("%d ghost members survived their instances' resets", ghosts)
	}
	counter := func(name string) int {
		v, _ := reg.Value(name)
		return int(v)
	}
	if gc := counter("oddci_controller_instances_gced_total"); gc != destroys {
		t.Fatalf("gc count = %d, destroys = %d; every destroyed instance must be GC'd exactly once", gc, destroys)
	}
	injected, failed := plan.Stats()
	if failed == 0 {
		t.Fatalf("plan injected %d updates, failed none — faults never exercised", injected)
	}
	if counter("oddci_controller_refresh_retries_total") == 0 {
		t.Fatal("no refresh retries counted despite injected failures")
	}
	if counter("oddci_controller_refresh_recoveries_total") == 0 {
		t.Fatal("no refresh recoveries counted")
	}
}
