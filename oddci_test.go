package oddci

import (
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestFacadeEndToEnd(t *testing.T) {
	sys, err := New(Options{Nodes: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	job, err := (&Generator{
		Name: "facade", Tasks: 128, MeanSeconds: 5,
		InputBytes: 512, OutputBytes: 512, ImageBytes: 1 << 20,
	}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateInstance(InstanceSpec{
		Image:              WorkerImage(1 << 20),
		Target:             32,
		InitialProbability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	ms, err := sys.RunJob(h)
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 {
		t.Fatalf("makespan %v", ms)
	}
	if len(h.Results()) != 128 {
		t.Fatalf("results = %d", len(h.Results()))
	}
}

// A multicast deployment is the same engine over another wire layout: it
// completes a job and reports through the same broadcast telemetry.
func TestFacadeOverIPMulticast(t *testing.T) {
	sys, err := New(Options{Nodes: 16, Seed: 22, IPMulticast: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	job, err := (&Generator{
		Name: "mcast", Tasks: 64, MeanSeconds: 5,
		InputBytes: 512, OutputBytes: 512, ImageBytes: 1 << 20,
	}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateInstance(InstanceSpec{
		Image: WorkerImage(1 << 20), Target: 16, InitialProbability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunJob(h); err != nil {
		t.Fatal(err)
	}
	if len(h.Results()) != 64 {
		t.Fatalf("results = %d", len(h.Results()))
	}
	for _, name := range []string{"oddci_dsmcc_broadcast_bytes", "oddci_dsmcc_file_deliveries_total"} {
		if v, ok := sys.Metric(name); !ok || v <= 0 {
			t.Errorf("%s = %v (present %v) on a multicast deployment, want > 0", name, v, ok)
		}
	}
}

func TestFacadeCustomApp(t *testing.T) {
	sys, err := New(Options{Nodes: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The app must stay resident: an instance whose application exits
	// immediately is recomposed by the maintenance loop (fresh
	// launches), which is correct but not what this test counts.
	ran := 0
	sys.RegisterApp("myapp", func(env *Env) error {
		ran++
		env.Execute(1)
		for env.Sleep(time.Minute) {
		}
		return nil
	})
	img := &Image{Name: "custom", EntryPoint: "myapp", Payload: make([]byte, 10000)}
	if _, err := sys.CreateInstance(InstanceSpec{
		Image: img, Target: 8, InitialProbability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	sys.After(5*time.Minute, sys.Shutdown)
	sys.Wait()
	if ran != 8 {
		t.Fatalf("custom app ran on %d of 8 nodes", ran)
	}
}

func TestFacadeAnalytic(t *testing.T) {
	p := Figure6Defaults(100, 10000).WithPhi(1000)
	if e := p.Efficiency(); e < 0.9 || e > 1 {
		t.Fatalf("efficiency = %v", e)
	}
}

func TestFacadeMeasuredMatchesModel(t *testing.T) {
	// The headline library promise: a simulated run lands near eq. (1).
	const nodes, ratio = 24, 10
	p := Figure6Defaults(ratio, nodes).WithPhi(100)
	sys, err := New(Options{Nodes: nodes, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	job, err := (&Generator{
		Name:        "model",
		Tasks:       ratio * nodes,
		MeanSeconds: p.TaskSeconds,
		InputBytes:  int(p.TaskInBits / 8),
		OutputBytes: int(p.TaskOutBits / 8),
		ImageBytes:  int(p.ImageBits / 8),
	}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitJob(job)
	if err != nil {
		t.Fatal(err)
	}
	// Instantiate after the PNA Xlets are resident (steady state);
	// creating at t=0 instead races the Xlet distribution and costs up
	// to one extra carousel cycle.
	createAt := sys.Now().Add(10 * time.Second)
	sys.After(10*time.Second, func() {
		if _, err := sys.CreateInstance(InstanceSpec{
			Image:              WorkerImage(int(p.ImageBits / 8)),
			Target:             nodes,
			InitialProbability: 1,
		}); err != nil {
			t.Errorf("create: %v", err)
			sys.Shutdown()
		}
	})
	var measured time.Duration
	h.OnComplete(func(at time.Time) {
		measured = at.Sub(createAt)
		sys.Shutdown()
	})
	sys.Wait()
	if measured == 0 {
		t.Fatal("job did not complete")
	}
	// Synchronized live joins beat the random-phase closed form's 1.5
	// cycle wakeup; allow the band between ~0.55× and 1.1×.
	model := p.Makespan()
	rel := measured.Seconds() / model
	if math.IsNaN(rel) || rel < 0.55 || rel > 1.1 {
		t.Fatalf("measured %.1fs vs model %.1fs (ratio %.2f)", measured.Seconds(), model, rel)
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestFacadeRealTimeSmoke(t *testing.T) {
	// A tiny wall-clock run: scaled-down sizes so it finishes fast.
	sys, err := New(Options{
		Nodes: 3, Seed: 4, RealTime: true,
		Beta: 800e6, Delta: 100e6, // fast channels: milliseconds of staging
		HeartbeatPeriod:   200 * time.Millisecond,
		MaintenancePeriod: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := (&Generator{Name: "rt", Tasks: 6, MeanSeconds: 0.02,
		InputBytes: 128, OutputBytes: 128, ImageBytes: 4096}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateInstance(InstanceSpec{
		Image:              WorkerImage(4096),
		Target:             3,
		InitialProbability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	h.OnComplete(func(time.Time) {
		sys.Shutdown()
		close(done)
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("real-time run did not complete in 30s")
	}
	sys.Wait()
	if len(h.Results()) != 6 {
		t.Fatalf("results = %d", len(h.Results()))
	}
}

func TestFacadeTimeline(t *testing.T) {
	sys, err := New(Options{Nodes: 4, Seed: 5, SpanCapacity: 4096, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateInstance(InstanceSpec{
		Image: WorkerImage(10000), Target: 4, InitialProbability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	sys.After(3*time.Minute, sys.Shutdown)
	sys.Wait()
	joins := 0
	for _, d := range sys.Spans().Timeline() {
		if d.Name == "join" {
			joins++
		}
	}
	if counted, _ := sys.Metric("oddci_pna_joins_total"); joins != 4 || counted != 4 {
		t.Fatalf("timeline joins = %d, counted joins = %v, want 4 and 4", joins, counted)
	}
	if tl := sys.Timeline(0); !strings.Contains(tl, "wakeup") || !strings.Contains(tl, "power-off") {
		t.Fatalf("timeline render lacks the wakeup or the shutdown:\n%s", tl)
	}
	if last := sys.Timeline(1); strings.Count(last, "\n") != 1 {
		t.Fatalf("Timeline(1) = %q, want one line", last)
	}
	var jsonl strings.Builder
	if err := sys.WriteTimelineJSONL(&jsonl); err != nil || !strings.Contains(jsonl.String(), `"name":"create"`) {
		t.Fatalf("WriteTimelineJSONL: err=%v\n%s", err, jsonl.String())
	}

	off, err := New(Options{Nodes: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(off.Timeline(0), "disabled") || off.WriteTimelineJSONL(io.Discard) == nil {
		t.Fatal("the timeline should be off by default")
	}
	off.Shutdown()
	off.Wait()
}

// TestFacadeCrashRestart drives the durable control plane through the
// facade: create, hard-stop, restart from Options.StateDir, and verify
// the instance state and journal telemetry survive the round trip.
func TestFacadeCrashRestart(t *testing.T) {
	sys, err := New(Options{
		Nodes: 8, Seed: 4, StateDir: t.TempDir(), Metrics: true,
		HeartbeatPeriod: 15 * time.Second, MaintenancePeriod: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CrashController(); err == nil {
		// Sanity: the very first crash must succeed; only a double
		// crash or a missing StateDir errors. Restart immediately.
		if err := sys.CrashController(); err == nil {
			t.Fatal("double crash accepted")
		}
		if err := sys.RestartController(); err != nil {
			t.Fatal(err)
		}
	} else {
		t.Fatal(err)
	}

	inst, err := sys.CreateInstance(InstanceSpec{
		Image: WorkerImage(1 << 16), Target: 8,
		InitialProbability: 1, HeartbeatPeriod: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		preBusy, postBusy, postWake int
		crashErr, restartErr, stErr error
		appends                     float64
		recoveredMetric             float64
	)
	sys.After(2*time.Minute, func() {
		st, err := inst.Status()
		if err != nil {
			stErr = err
			return
		}
		preBusy = st.Busy
		crashErr = sys.CrashController()
	})
	sys.After(3*time.Minute, func() { restartErr = sys.RestartController() })
	sys.After(7*time.Minute, func() {
		st, err := inst.Status()
		if err != nil {
			stErr = err
		} else {
			postBusy, postWake = st.Busy, st.Wakeups
		}
		appends, _ = sys.Metric("oddci_journal_appends_total")
		recoveredMetric, _ = sys.Metric("oddci_controller_instances_recovered_total")
		sys.Shutdown()
	})
	sys.Wait()

	if stErr != nil || crashErr != nil || restartErr != nil {
		t.Fatalf("status/crash/restart errors: %v / %v / %v", stErr, crashErr, restartErr)
	}
	if preBusy != 8 || postBusy != 8 {
		t.Fatalf("busy across crash: pre=%d post=%d, want 8", preBusy, postBusy)
	}
	if postWake != 1 {
		t.Fatalf("wakeups after restart = %d, want 1 (re-adopted, not re-woken)", postWake)
	}
	if appends < 1 {
		t.Fatalf("journal appends metric = %v, want ≥1", appends)
	}
	if recoveredMetric != 1 {
		t.Fatalf("recovered-instances metric = %v, want 1", recoveredMetric)
	}
}

// TestFacadeCausalTrace drives a simulated deployment with span
// collection on and asserts the whole wakeup → join → image-load →
// dve-start → dispatch → commit causal chain lands in one connected
// tree, reachable through the facade accessors that /trace serves.
func TestFacadeCausalTrace(t *testing.T) {
	sys, err := New(Options{Nodes: 4, Seed: 7, SpanCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	job, err := (&Generator{Name: "traced", Tasks: 16, MeanSeconds: 2,
		InputBytes: 128, OutputBytes: 128, ImageBytes: 10000}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateInstance(InstanceSpec{
		Image: WorkerImage(10000), Target: 4, InitialProbability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunJob(h); err != nil {
		t.Fatal(err)
	}

	traces := sys.Spans().Traces()
	if len(traces) == 0 {
		t.Fatal("no traces retained")
	}
	// The wakeup trace is the one rooted at the controller broadcast;
	// it must be a single connected tree covering all five layers.
	var names map[string]int
	for _, tr := range traces {
		if len(tr.Spans) == 0 || tr.Spans[0].Name != "wakeup" {
			continue
		}
		if !tr.Connected() {
			t.Fatalf("wakeup trace disconnected:\n%s", tr.RenderWaterfall())
		}
		names = map[string]int{}
		for _, d := range tr.Spans {
			names[d.Name]++
		}
		break
	}
	if names == nil {
		t.Fatal("no wakeup-rooted trace retained")
	}
	for _, layer := range []string{"join", "image-load", "dve-start", "dispatch", "commit"} {
		if names[layer] == 0 {
			t.Fatalf("wakeup trace has no %q span (got %v)", layer, names)
		}
	}
	if names["commit"] != 16 {
		t.Fatalf("commit spans = %d, want 16", names["commit"])
	}

	// The facade accessors feed /trace and /trace/{id}.
	idx := sys.RenderTraces(0)
	if !strings.Contains(idx, "wakeup") {
		t.Fatalf("RenderTraces index missing the wakeup root:\n%s", idx)
	}
	id := traces[len(traces)-1].ID.String()
	for _, tr := range traces {
		if tr.Spans[0].Name == "wakeup" {
			id = tr.ID.String()
			break
		}
	}
	wf, ok := sys.RenderTrace(id)
	if !ok || !strings.Contains(wf, "dve-start") {
		t.Fatalf("RenderTrace(%s): ok=%v\n%s", id, ok, wf)
	}
	var jsonl strings.Builder
	if err := sys.WriteSpansJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"name":"dispatch"`) {
		t.Fatal("WriteSpansJSONL missing dispatch spans")
	}

	// Spans stay off (and free) unless asked for.
	off, err := New(Options{Nodes: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if off.Spans() != nil || !strings.Contains(off.RenderTraces(0), "disabled") {
		t.Fatal("span collection should be off by default")
	}
	off.Shutdown()
	off.Wait()
}

// Live mode at 1024 nodes: one 1 MiB image reaches every receiver by
// reference, so what the deployment allocates must stay far below
// nodes × image size (1 GiB here). The makespan is pinned because how
// bytes are shared may change wall time and memory, never virtual time.
func TestFacadeLiveScale1024(t *testing.T) {
	const (
		nodes, tasks = 1024, 8192
		seed         = 19
		wantMakespan = 57882506664 * time.Nanosecond // measured with a private copy per receiver
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	makespan, h := deployAndRun(t, nodes, tasks, seed)
	runtime.ReadMemStats(&after)
	if got := len(h.Results()); got != tasks {
		t.Fatalf("results = %d of %d", got, tasks)
	}
	if makespan != wantMakespan {
		t.Fatalf("virtual makespan %v (%d ns), pinned %v", makespan, makespan, wantMakespan)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("deployment allocated %d MiB", grew>>20)
	if grew >= 256<<20 {
		t.Fatalf("deployment allocated %d MiB, want < 256 MiB", grew>>20)
	}
}

// TestSimDeployAllocBudget holds the benchmark's -quick sim_deploy shape
// (16 boxes, 64 tasks, a 1 MiB image) to an allocation budget for the
// whole deployment. Under simtime.Sim a timer and a park allocate
// nothing once the clock's free lists are warm, and the lists fill a
// slab at a time; a duplex channel is one object plus its links' two
// delivery funcs, and its rings hold their first packets inline; and a
// task's hand-off reuses its connection's assignment and result. A
// per-timer or per-park allocation coming back (a wake closure per park,
// an event per AfterFunc) breaks the budget here, not only in the
// benchmark; a per-task one (+128 here) is backend.TestServeHandoffAllocatesNothing's
// to catch, and a per-channel one NewDuplex's and the ring's tests'.
func TestSimDeployAllocBudget(t *testing.T) {
	const budget = 2050 // 1695 measured
	seed := int64(0)
	allocs := testing.AllocsPerRun(5, func() {
		seed++
		deployAndRun(t, 16, 64, seed)
	})
	t.Logf("%.0f allocations per deployment", allocs)
	if allocs > budget {
		t.Fatalf("a 16-box deployment allocates %.0f objects, budget %d", allocs, budget)
	}
}
