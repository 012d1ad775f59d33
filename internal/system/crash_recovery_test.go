package system

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"oddci/internal/core/controller"
	"oddci/internal/netsim"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/workload"
)

// TestControllerCrashRecoveryUnderFaults is the durability battery's
// end-to-end: a deployment with a durable state dir runs a real backend
// job while throwaway instances churn against a fault-injected head-end;
// the controller is then hard-stopped mid-round — inside a destroyed
// instance's reset-retransmission window — and restarted from
// its journal. The recovered control plane must re-adopt the
// surviving workers from their heartbeats (no duplicate wakeups),
// reconverge to the keeper's target, GC every destroyed instance exactly
// once across the crash, and the job must still complete.
func TestControllerCrashRecoveryUnderFaults(t *testing.T) {
	const (
		nodes = 10
		tasks = 600
	)
	clk := simtime.NewSim(epoch)
	reg := obs.NewRegistry()
	plan := netsim.NewFaultPlan(rand.New(rand.NewSource(31)), 0.2, 3)
	sys, err := New(Config{
		Clock:                clk,
		Nodes:                nodes,
		Seed:                 11,
		HeartbeatPeriod:      15 * time.Second,
		MaintenancePeriod:    10 * time.Second,
		Obs:                  reg,
		HeadEndFaults:        plan,
		ResetRetransmitTicks: 3,
		RefreshRetryBase:     2 * time.Second,
		RefreshRetryMax:      8 * time.Second,
		StateDir:             t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}

	job, err := (&workload.Generator{
		Name: "crash", ImageBytes: 1 << 18, Tasks: tasks,
		InputBytes: 512, OutputBytes: 256, MeanSeconds: 10,
	}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Backend.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	var jobDone atomic.Bool
	h.OnComplete(func(time.Time) { jobDone.Store(true) })

	var (
		errs                                  []error
		destroys                              int
		recovered                             bool
		preWake, postWake, postBusy, liveBusy int
		goneErr                               error
		finalLive, finalOnAir                 int
	)
	clk.Go(func() {
		keeper, err := sys.Provider.Create(controller.InstanceSpec{
			Image: testImage(1 << 18), Target: nodes,
			InitialProbability: 1, HeartbeatPeriod: 15 * time.Second,
		})
		if err != nil {
			errs = append(errs, fmt.Errorf("keeper create: %w", err))
			sys.Shutdown()
			return
		}
		clk.Sleep(3 * time.Minute) // wakeup, image download, joins, convergence
		if st, err := keeper.Status(); err != nil || st.Busy != nodes {
			errs = append(errs, fmt.Errorf("keeper did not converge pre-crash: %+v, %v", st, err))
		} else {
			preWake = st.Wakeups
		}

		// Lifecycle churn against the faulty head-end: every round
		// journals a create and a destroy; early rounds also GC pre-crash.
		churnSpec := controller.InstanceSpec{
			Image: testImage(4 << 10), Target: 2,
			InitialProbability: 0.5, HeartbeatPeriod: 15 * time.Second,
		}
		for round := 0; round < 4; round++ {
			in, err := sys.Provider.Create(churnSpec)
			if err != nil {
				errs = append(errs, fmt.Errorf("churn round %d create: %w", round, err))
				continue
			}
			clk.Sleep(10 * time.Second)
			if err := in.Destroy(); err != nil {
				errs = append(errs, fmt.Errorf("churn round %d destroy: %w", round, err))
			} else {
				destroys++
			}
			clk.Sleep(10 * time.Second)
		}
		// Final round: crash inside the fresh reset-retransmission window.
		last, err := sys.Provider.Create(churnSpec)
		if err != nil {
			errs = append(errs, fmt.Errorf("final churn create: %w", err))
			sys.Shutdown()
			return
		}
		clk.Sleep(5 * time.Second)
		if err := last.Destroy(); err != nil {
			errs = append(errs, fmt.Errorf("final destroy: %w", err))
		} else {
			destroys++
		}
		if err := sys.CrashController(); err != nil {
			errs = append(errs, fmt.Errorf("crash: %w", err))
		}
		// The control plane is dead: heartbeats go unanswered, the
		// carousel keeps cycling, the workers keep computing.
		clk.Sleep(45 * time.Second)
		if err := sys.RestartController(); err != nil {
			errs = append(errs, fmt.Errorf("restart: %w", err))
			sys.Shutdown()
			return
		}
		recovered = sys.Controller.Recovered()

		// Adoption grace (3 × 15s heartbeat) plus several maintenance
		// passes: survivors re-adopt, the interrupted reset window runs
		// down, the destroyed instance is GC'd.
		clk.Sleep(150 * time.Second)
		if st, err := keeper.Status(); err != nil {
			errs = append(errs, fmt.Errorf("keeper status post-restart: %w", err))
		} else {
			postWake, postBusy = st.Wakeups, st.Busy
		}
		liveBusy = sys.LiveBusy(keeper.ID())
		_, goneErr = last.Status()

		// Let the job finish (it must survive the crash), then drain.
		for waited := 0; !jobDone.Load() && waited < 240; waited++ {
			clk.Sleep(5 * time.Second)
		}
		clk.Sleep(2 * time.Minute)
		_, _, finalLive, finalOnAir = sys.ContentStats()
		sys.Shutdown()
	})
	clk.Wait()

	for _, err := range errs {
		t.Error(err)
	}
	if !recovered {
		t.Fatal("restarted controller did not report Recovered")
	}
	if preWake != 1 || postWake != preWake {
		t.Fatalf("wakeups across crash: pre=%d post=%d — restart must re-adopt, not re-wake", preWake, postWake)
	}
	if postBusy != nodes || liveBusy != nodes {
		t.Fatalf("keeper did not reconverge: controller view=%d oracle=%d want %d", postBusy, liveBusy, nodes)
	}
	if !errors.Is(goneErr, controller.ErrInstanceGone) {
		t.Fatalf("crash-window destroyed instance = %v, want ErrInstanceGone after recovered GC", goneErr)
	}
	if gc, _ := reg.Value("oddci_controller_instances_gced_total"); int(gc) != destroys {
		t.Fatalf("gc count = %v, destroys = %d; recovery must GC each destroyed instance exactly once", gc, destroys)
	}
	if !jobDone.Load() {
		t.Fatal("backend job did not complete across the controller crash")
	}
	if len(h.Results()) != tasks {
		t.Fatalf("results = %d, want %d", len(h.Results()), tasks)
	}
	if finalLive != 1 || finalOnAir != 0 {
		t.Fatalf("control plane did not drain: live=%d onAir=%d", finalLive, finalOnAir)
	}
	if injected, failed := plan.Stats(); injected == 0 || failed == 0 {
		t.Fatalf("fault plan never exercised: injected=%d failed=%d", injected, failed)
	}
}
