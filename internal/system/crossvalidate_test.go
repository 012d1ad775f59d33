package system

import (
	"testing"
	"time"

	"oddci/internal/analytic"
	"oddci/internal/core/controller"
	"oddci/internal/sim"
	"oddci/internal/simtime"
	"oddci/internal/workload"
)

// TestLiveMatchesDESModel pins the full live system (goroutines, real
// DTV middleware, heartbeats, signed control plane) against the reduced
// DES model and the closed-form makespan at a small scale. This is what
// licenses using the reduced model for the large-N figure sweeps.
func TestLiveMatchesDESModel(t *testing.T) {
	const (
		nodes = 20
		ratio = 5
		phi   = 100.0
	)
	p := analytic.Figure6Defaults(ratio, nodes).WithPhi(phi)

	// Live run.
	clk := simtime.NewSim(epoch)
	sys, err := New(Config{
		Clock:             clk,
		Nodes:             nodes,
		Seed:              11,
		HeartbeatPeriod:   30 * time.Second,
		MaintenancePeriod: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	job, err := (&workload.Generator{
		Name:        "xval",
		ImageBytes:  int(p.ImageBits / 8),
		Tasks:       int(p.Tasks),
		InputBytes:  int(p.TaskInBits / 8),
		OutputBytes: int(p.TaskOutBits / 8),
		MeanSeconds: p.TaskSeconds,
	}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Backend.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	// Let the PNA Xlets boot from the small pre-instance carousel first
	// (the paper's steady state: agents resident before wakeups), then
	// instantiate. Creating at t=0 instead would race the Xlet launch
	// against the image-dominated carousel and cost an extra cycle.
	createAt := epoch.Add(10 * time.Second)
	var liveMakespan time.Duration
	clk.AfterFunc(10*time.Second, func() {
		img := testImage(int(p.ImageBits / 8))
		if _, err := sys.Provider.Create(controller.InstanceSpec{
			Image:              img,
			Target:             nodes,
			InitialProbability: 1,
		}); err != nil {
			t.Errorf("create: %v", err)
			sys.Shutdown()
		}
	})
	h.OnComplete(func(at time.Time) {
		// The paper's M is measured from instantiation.
		liveMakespan = at.Sub(createAt)
		sys.Shutdown()
	})
	clk.Wait()
	if liveMakespan == 0 {
		t.Fatal("live job never completed")
	}

	// The reduced model. Live agents are all resident at the commit, so
	// they begin reading together: the synchronized-join discrete model,
	// on the DES's inputs (its sizes rounded to bytes, 64-byte requests).
	// A DES that draws every wakeup at one cycle lands on it to the
	// nanosecond (107.5968 s here).
	desS := sim.JobConfig{
		Nodes:        nodes,
		Tasks:        ratio * nodes,
		ImageBytes:   int64(p.ImageBits / 8),
		Beta:         p.Beta,
		Delta:        p.Delta,
		TaskInBytes:  int(p.TaskInBits / 8),
		TaskOutBytes: int(p.TaskOutBits / 8),
		TaskSeconds:  p.TaskSeconds,
	}.Params().MakespanSynchronized(64 * 8)

	liveS := liveMakespan.Seconds()
	anaS := p.Makespan()
	t.Logf("makespan: live=%.1fs model(sync)=%.1fs analytic(random-phase)=%.1fs", liveS, desS, anaS)
	// The live system carries real overheads over the reduced model (TS
	// framing ≈3%, AIT signalling, the config-file read, request RTTs),
	// so it should land close to and above the synchronized DES, and
	// below the conservative random-phase closed form.
	if liveS < desS {
		t.Fatalf("live %.1fs beats the reduced model %.1fs", liveS, desS)
	}
	if rel := (liveS - desS) / desS; rel > 0.15 {
		t.Fatalf("live exceeds DES by %.1f%%", rel*100)
	}
	if liveS > anaS*1.10 {
		t.Fatalf("live %.1fs far above the random-phase bound %.1fs", liveS, anaS)
	}
}
