package backend

import (
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/dve"
	"oddci/internal/netsim"
	"oddci/internal/simtime"
	"oddci/internal/workload"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

func newBackend(t *testing.T, clk simtime.Clock) *Backend {
	t.Helper()
	b, err := New(Config{Clock: clk, RetryAfter: 5 * time.Second, LeaseBase: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mkJob(t *testing.T, n int, p float64) *workload.Job {
	t.Helper()
	g := workload.Generator{Name: "t", Tasks: n, InputBytes: 512, OutputBytes: 256, MeanSeconds: p}
	j, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// dial opens a worker-side channel served by the backend, returning the
// client endpoint and a hangup that releases both sides.
func dial(clk simtime.Clock, b *Backend) (*netsim.Endpoint, func()) {
	cfg := netsim.LinkConfig{RateBps: 150e3}
	client, srv := netsim.NewDuplex(clk, "node", "backend", cfg, cfg)
	clk.Go(func() { b.Serve(srv) })
	return client, func() {
		client.Close()
		srv.Close()
	}
}

func TestAssignAndComplete(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newBackend(t, clk)
	h, err := b.Submit(mkJob(t, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	b.SetDraining(true) // wind the worker down when the work is gone
	ep, hangup := dial(clk, b)
	clk.Go(func() {
		defer hangup()
		for {
			ep.Send("backend", &TaskRequest{NodeID: 1}, RequestWireSize)
			pkt, err := ep.Recv()
			if err != nil {
				return
			}
			switch m := pkt.Payload.(type) {
			case *TaskAssign:
				clk.Sleep(time.Duration(m.RefSeconds * float64(time.Second)))
				ep.Send("backend", &TaskResult{NodeID: 1, JobID: m.JobID, TaskID: m.TaskID}, 256)
			case *NoTask:
				if m.Done {
					return
				}
				clk.Sleep(m.RetryAfter)
			}
		}
	})
	clk.Wait()
	if _, done := h.Done(); !done {
		t.Fatal("job not completed")
	}
	ms, ok := h.Makespan()
	if !ok || ms <= 0 {
		t.Fatalf("makespan = %v, %v", ms, ok)
	}
	if b.Completed != 3 || h.Redispatches() != 0 {
		t.Fatalf("completed=%d redispatches=%d", b.Completed, h.Redispatches())
	}
}

func TestLeaseExpiryRedispatch(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newBackend(t, clk)
	h, err := b.Submit(mkJob(t, 1, 1)) // lease ≈ 4s + 30s base
	if err != nil {
		t.Fatal(err)
	}
	// Worker 1 takes the task and dies.
	if a, ok := b.HandleRequest(&TaskRequest{NodeID: 1}).(*TaskAssign); !ok {
		t.Fatalf("expected assignment, got %+v", a)
	}
	// Before expiry: no work available.
	if _, ok := b.HandleRequest(&TaskRequest{NodeID: 2}).(*NoTask); !ok {
		t.Fatal("task double-assigned inside lease")
	}
	// After expiry: re-dispatched.
	clk.AfterFunc(60*time.Second, func() {
		a, ok := b.HandleRequest(&TaskRequest{NodeID: 2}).(*TaskAssign)
		if !ok {
			t.Error("expired lease not re-dispatched")
			return
		}
		b.HandleResult(&TaskResult{NodeID: 2, JobID: a.JobID, TaskID: a.TaskID})
	})
	clk.Wait()
	if _, done := h.Done(); !done {
		t.Fatal("job not completed after re-dispatch")
	}
	if h.Redispatches() != 1 {
		t.Fatalf("redispatches = %d", h.Redispatches())
	}
}

func TestLateDuplicateResultIgnored(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newBackend(t, clk)
	h, _ := b.Submit(mkJob(t, 1, 1))
	a := b.HandleRequest(&TaskRequest{NodeID: 1}).(*TaskAssign)
	b.HandleResult(&TaskResult{NodeID: 1, JobID: a.JobID, TaskID: a.TaskID, Payload: []byte("first")})
	b.HandleResult(&TaskResult{NodeID: 9, JobID: a.JobID, TaskID: a.TaskID, Payload: []byte("dup")})
	if got := h.Results()[a.TaskID]; string(got) != "first" {
		t.Fatalf("result = %q, want first", got)
	}
	if b.Completed != 1 {
		t.Fatalf("completed = %d", b.Completed)
	}
}

func TestNoTaskDoneSignalling(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newBackend(t, clk)
	nt := b.HandleRequest(&TaskRequest{NodeID: 1}).(*NoTask)
	if nt.Done {
		t.Fatal("idle backend must not dismiss workers (instance lifetime is the Provider's)")
	}
	b.SetDraining(true)
	nt = b.HandleRequest(&TaskRequest{NodeID: 1}).(*NoTask)
	if !nt.Done {
		t.Fatal("draining empty backend should report Done")
	}
	b.SetDraining(false)
	b.Submit(mkJob(t, 1, 1))
	nt2, ok := b.HandleRequest(&TaskRequest{NodeID: 1}).(*TaskAssign)
	if !ok {
		t.Fatalf("expected assignment, got %+v", nt2)
	}
	// Task outstanding (leased): not done yet.
	nt3 := b.HandleRequest(&TaskRequest{NodeID: 2}).(*NoTask)
	if nt3.Done {
		t.Fatal("Done while a task is still leased")
	}
}

// TestNoTaskAllocatesNothing: an empty dispatch hands back one of the
// Backend's two shared replies, whether it backs the worker off or sends
// it home, so polling an idle backend costs the collector nothing.
func TestNoTaskAllocatesNothing(t *testing.T) {
	b := newBackend(t, simtime.NewSim(epoch))
	req := &TaskRequest{NodeID: 1}
	for _, draining := range []bool{false, true} {
		b.SetDraining(draining)
		first := b.HandleRequest(req).(*NoTask)
		if first.Done != draining || first.RetryAfter != 5*time.Second {
			t.Fatalf("draining %v: reply %+v", draining, *first)
		}
		if got := testing.AllocsPerRun(100, func() {
			if b.HandleRequest(req) != first {
				t.Fatal("a second empty dispatch built another reply")
			}
		}); got != 0 {
			t.Fatalf("draining %v: an empty dispatch allocates %.0f times", draining, got)
		}
	}
}

func TestOnCompleteAfterDoneFiresImmediately(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newBackend(t, clk)
	h, _ := b.Submit(mkJob(t, 1, 1))
	a := b.HandleRequest(&TaskRequest{NodeID: 1}).(*TaskAssign)
	b.HandleResult(&TaskResult{NodeID: 1, JobID: a.JobID, TaskID: a.TaskID})
	fired := false
	h.OnComplete(func(time.Time) { fired = true })
	if !fired {
		t.Fatal("late OnComplete not fired")
	}
}

func TestSubmitEmptyJobRejected(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newBackend(t, clk)
	if _, err := b.Submit(&workload.Job{}); err == nil {
		t.Fatal("empty job accepted")
	}
}

func TestTwoJobsInterleaved(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newBackend(t, clk)
	h1, _ := b.Submit(mkJob(t, 2, 1))
	h2, _ := b.Submit(mkJob(t, 2, 1))
	for i := 0; i < 4; i++ {
		a, ok := b.HandleRequest(&TaskRequest{NodeID: uint64(i)}).(*TaskAssign)
		if !ok {
			t.Fatalf("request %d starved", i)
		}
		b.HandleResult(&TaskResult{NodeID: uint64(i), JobID: a.JobID, TaskID: a.TaskID})
	}
	if _, d1 := h1.Done(); !d1 {
		t.Fatal("job 1 incomplete")
	}
	if _, d2 := h2.Done(); !d2 {
		t.Fatal("job 2 incomplete")
	}
}

// Worker is exercised directly (not through the full system): it must
// pull, execute with the device model, run concrete payloads, and exit
// on Done.
func TestWorkerLoopDirect(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newBackend(t, clk)
	job := mkJob(t, 4, 1)
	job.Tasks[2].Payload = []byte("concrete-input")
	h, err := b.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if h.SubmittedAt() != epoch {
		t.Fatalf("submitted at %v", h.SubmittedAt())
	}
	b.SetDraining(true)

	prev := RunConcrete
	defer func() { RunConcrete = prev }()
	var sawPayload []byte
	RunConcrete = func(p []byte) []byte {
		sawPayload = p
		return []byte("concrete-output")
	}

	ep, hangup := dial(clk, b)
	reg := dve.NewRegistry()
	reg.Register(WorkerEntryPoint, Worker)
	var exited bool
	var exitErr error
	_, err = dve.Launch(dve.Config{
		Clock:    clk,
		Registry: reg,
		Image:    &appimage.Image{Name: "w", EntryPoint: WorkerEntryPoint, Payload: []byte{1}},
		NodeID:   9,
		Backend:  ep,
		Hangup:   hangup,
		TaskDuration: func(ref float64) time.Duration {
			return time.Duration(ref * 2 * float64(time.Second)) // 2× slow device
		},
		// In the full system the PNA destroys the DVE when the worker
		// returns; here the test releases the channel itself.
		OnExit: func(err error) {
			exited, exitErr = true, err
			hangup()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Wait()
	if !exited || exitErr != nil {
		t.Fatalf("worker exited=%v err=%v", exited, exitErr)
	}
	if _, ok := h.Done(); !ok {
		t.Fatal("job incomplete")
	}
	if string(sawPayload) != "concrete-input" {
		t.Fatalf("payload = %q", sawPayload)
	}
	if string(h.Results()[2]) != "concrete-output" {
		t.Fatalf("concrete result = %q", h.Results()[2])
	}
	// 4 tasks × 1 ref-second × 2 slowdown on one worker ≥ 8 s.
	if ms, _ := h.Makespan(); ms < 8*time.Second {
		t.Fatalf("makespan %v ignores the device model", ms)
	}
}

// Task IDs are caller-chosen: with non-contiguous IDs every assignment
// must still carry its own task's input size s for wire pacing (a lookup
// that indexed the task slice by ID once returned the wrong s, or
// panicked, whenever IDs were not 0..n-1).
func TestNonContiguousTaskIDs(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newBackend(t, clk)
	job := &workload.Job{
		Name: "sparse",
		Tasks: []workload.Task{
			{ID: 100, InputBytes: 1111, OutputBytes: 1, STBSeconds: 1},
			{ID: 5, InputBytes: 2222, OutputBytes: 1, STBSeconds: 1},
			{ID: 31, InputBytes: 3333, OutputBytes: 1, STBSeconds: 1},
		},
	}
	h, err := b.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{100: 1111, 5: 2222, 31: 3333}
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		a, ok := b.HandleRequest(&TaskRequest{NodeID: uint64(i + 1)}).(*TaskAssign)
		if !ok {
			t.Fatalf("request %d got no assignment", i)
		}
		if seen[a.TaskID] {
			t.Fatalf("task %d assigned twice", a.TaskID)
		}
		seen[a.TaskID] = true
		if got := a.InputSize; got != want[a.TaskID] {
			t.Fatalf("task %d input size = %d, want %d", a.TaskID, got, want[a.TaskID])
		}
		b.HandleResult(&TaskResult{NodeID: uint64(i + 1), JobID: a.JobID, TaskID: a.TaskID, Payload: []byte("r")})
	}
	if _, done := h.Done(); !done {
		t.Fatal("sparse-ID job did not complete")
	}
	if len(h.Results()) != 3 {
		t.Fatalf("results = %d", len(h.Results()))
	}
}

func TestSubmitRejectsBadTaskIDs(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newBackend(t, clk)
	if _, err := b.Submit(&workload.Job{Tasks: []workload.Task{{ID: -1, STBSeconds: 1}}}); err == nil {
		t.Fatal("negative task ID accepted")
	}
	if _, err := b.Submit(&workload.Job{Tasks: []workload.Task{
		{ID: 3, STBSeconds: 1}, {ID: 3, STBSeconds: 1},
	}}); err == nil {
		t.Fatal("duplicate task IDs accepted")
	}
}
