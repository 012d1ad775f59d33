package transport

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"oddci/internal/core/backend"
	"oddci/internal/workload"
)

// zeroTimeJob builds tasks that take no device time at TimeScale 1000,
// each carrying a small payload, the shape of the tcp_tasks benchmark.
func zeroTimeJob(name string, tasks int) *workload.Job {
	job := &workload.Job{Name: name, Tasks: make([]workload.Task, tasks)}
	for i := range job.Tasks {
		job.Tasks[i] = workload.Task{ID: i, InputBytes: 64, OutputBytes: 64, STBSeconds: 1e-7, Payload: bytes.Repeat([]byte{byte(i)}, 64)}
	}
	return job
}

// TestNodeSessionAllocsFlatInTasks: a whole RunNode session over
// loopback allocates the same whatever its task count. It compares the
// process-wide mallocs of sessions of 64 and 2,048 zero-time tasks at
// CredEnforce, both ends included; a per-task allocation anywhere on the
// node's path (decode, execute, result, request window) shows as one per
// task.
func TestNodeSessionAllocsFlatInTasks(t *testing.T) {
	coord := serveCoordinator(t, CoordinatorConfig{Image: testImage(), CredentialMode: backend.CredEnforce})
	session := func(tasks int) uint64 {
		h, err := coord.Submit(zeroTimeJob(fmt.Sprintf("flat-%d", tasks), tasks))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := RunNode(NodeConfig{Addr: coord.Addr(), NodeID: 1, TimeScale: 1000, PinnedKey: coord.PublicKey()})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if _, done := h.Done(); !done || rep.TasksDone != tasks {
			t.Fatalf("%d-task session: done=%v report=%+v", tasks, done, rep)
		}
		return after.Mallocs - before.Mallocs
	}
	const small, large = 64, 2048
	session(small) // warm both ends' pools and buffers
	// The least of three of each: a stray runtime or timer allocation
	// only adds.
	lo, hi := ^uint64(0), ^uint64(0)
	for range 3 {
		lo, hi = min(lo, session(small)), min(hi, session(large))
	}
	perTask := (float64(hi) - float64(lo)) / (large - small)
	t.Logf("session mallocs: %d at %d tasks, %d at %d tasks (%.4f per task)", lo, small, hi, large, perTask)
	if perTask >= 0.05 {
		t.Fatalf("a node session allocates %.3f times per task, want < 0.05", perTask)
	}
}

// TestConcretePayloadsOverTCP: a TCP node runs the Backend's worker, so
// a task carrying concrete work is executed through backend.RunConcrete
// and its output comes back as the task's result.
func TestConcretePayloadsOverTCP(t *testing.T) {
	prev := backend.RunConcrete
	t.Cleanup(func() { backend.RunConcrete = prev })
	backend.RunConcrete = func(p []byte) []byte { return append([]byte("out:"), p...) }

	coord := serveCoordinator(t, CoordinatorConfig{Image: testImage(), CredentialMode: backend.CredEnforce})
	job := zeroTimeJob("concrete", 16)
	h, err := coord.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunNode(NodeConfig{Addr: coord.Addr(), NodeID: 1, TimeScale: 1000, PinnedKey: coord.PublicKey()})
	if err != nil {
		t.Fatal(err)
	}
	if _, done := h.Done(); !done || rep.TasksDone != len(job.Tasks) {
		t.Fatalf("done=%v report=%+v", done, rep)
	}
	for i, got := range h.Results() {
		if want := append([]byte("out:"), job.Tasks[i].Payload.([]byte)...); !bytes.Equal(got, want) {
			t.Fatalf("task %d result = %q, want %q", i, got, want)
		}
	}
}

// TestProbabilityGateOverTCP: a node admits a wakeup only if its one
// draw, seeded with (Seed, NodeID), falls below the wakeup's
// probability. A node drawn out reports Joined == false and takes no
// task; one drawn in finishes the job.
func TestProbabilityGateOverTCP(t *testing.T) {
	const p, seed = 0.5, 3
	coord := serveCoordinator(t, CoordinatorConfig{Image: testImage(), Probability: p})
	h, err := coord.Submit(zeroTimeJob("gate", 8))
	if err != nil {
		t.Fatal(err)
	}
	var in, out uint64
	for id := uint64(1); in == 0 || out == 0; id++ {
		if admissionDraw(seed, id) < p {
			in = cmp.Or(in, id)
		} else {
			out = cmp.Or(out, id)
		}
	}
	run := func(id uint64) NodeReport {
		rep, err := RunNode(NodeConfig{Addr: coord.Addr(), NodeID: id, TimeScale: 1000, Seed: seed, PinnedKey: coord.PublicKey()})
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		return rep
	}
	if rep := run(out); rep.Joined || rep.TasksDone != 0 {
		t.Fatalf("node %d drew %.3f >= %v but joined: %+v", out, admissionDraw(seed, out), p, rep)
	}
	if got := atomic.LoadInt64(&coord.be.Completed); got != 0 {
		t.Fatalf("%d tasks completed by a node the gate dropped", got)
	}
	if rep := run(in); !rep.Joined || rep.TasksDone != 8 {
		t.Fatalf("node %d drew %.3f < %v: %+v", in, admissionDraw(seed, in), p, rep)
	}
	if _, done := h.Done(); !done {
		t.Fatal("job incomplete")
	}
}
