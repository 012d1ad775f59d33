package backend

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"oddci/internal/obs"
	"oddci/internal/simtime"
)

// Lease-expiry retries must not consume the MaxReplicas budget: a first
// wave of stragglers whose leases expire is refunded, so a second wave
// plus the conflict top-up still fit. Before the fix, the three expired
// slots burned half the 2×3 budget and the split vote below was forced
// into a premature Unresolved plurality commit.
func TestLeaseRetryDoesNotBurnReplicaBudget(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newReplicatedBackend(t, clk, 3) // quorum 2, MaxReplicas 6, lease ≈ 34 s
	h, err := b.Submit(mkJob(t, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Wave 1: three nodes take the replicas and die.
	for _, n := range []uint64{1, 2, 3} {
		if _, ok := b.HandleRequest(&TaskRequest{NodeID: n}).(*TaskAssign); !ok {
			t.Fatalf("node %d not served", n)
		}
	}
	clk.AfterFunc(60*time.Second, func() {
		// Wave 2: three fresh nodes pick up the expired slots and split
		// the vote three ways.
		for _, n := range []uint64{4, 5, 6} {
			a, ok := b.HandleRequest(&TaskRequest{NodeID: n}).(*TaskAssign)
			if !ok {
				t.Errorf("node %d starved after lease-expiry retries", n)
				return
			}
			b.HandleResult(&TaskResult{NodeID: n, JobID: a.JobID, TaskID: a.TaskID,
				Payload: []byte(fmt.Sprintf("answer-%d", n))})
		}
		// The conflict top-up must still have budget to break the tie.
		a, ok := b.HandleRequest(&TaskRequest{NodeID: 7}).(*TaskAssign)
		if !ok {
			t.Error("conflict top-up denied: lease retries burned the replica budget")
			return
		}
		b.HandleResult(&TaskResult{NodeID: 7, JobID: a.JobID, TaskID: a.TaskID,
			Payload: []byte("answer-4")})
	})
	clk.Wait()
	if _, done := h.Done(); !done {
		t.Fatal("job incomplete")
	}
	if got := h.Results()[0]; string(got) != "answer-4" {
		t.Fatalf("committed %q, want the tie-broken majority answer-4", got)
	}
	if b.Unresolved != 0 {
		t.Fatalf("unresolved = %d: lease retries were charged to the replica budget", b.Unresolved)
	}
	if h.Redispatches() != 3 {
		t.Fatalf("redispatches = %d, want 3", h.Redispatches())
	}
}

// A committed task is purged from the scheduler immediately, even while
// a straggler still holds a lease on it. Before the fix, such tasks
// leaked in the active table until a reclaim sweep happened to visit
// them after the straggler's lease expired.
func TestCommittedTaskPurgedDespiteStragglers(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newReplicatedBackend(t, clk, 3)
	h, err := b.Submit(mkJob(t, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint64{1, 2, 3} {
		if _, ok := b.HandleRequest(&TaskRequest{NodeID: n}).(*TaskAssign); !ok {
			t.Fatalf("node %d not served", n)
		}
	}
	// Nodes 1 and 2 agree: quorum commits with node 3 still leased.
	b.HandleResult(&TaskResult{NodeID: 1, JobID: 1, TaskID: 0, Payload: []byte("ok")})
	b.HandleResult(&TaskResult{NodeID: 2, JobID: 1, TaskID: 0, Payload: []byte("ok")})
	if _, done := h.Done(); !done {
		t.Fatal("quorum did not commit")
	}
	if got := b.ActiveTasks(); got != 0 {
		t.Fatalf("active tasks = %d after commit; straggler lease kept the task alive", got)
	}
	// The straggler's late result is still ignored.
	b.HandleResult(&TaskResult{NodeID: 3, JobID: 1, TaskID: 0, Payload: []byte("late")})
	if got := h.Results()[0]; string(got) != "ok" {
		t.Fatalf("late straggler overwrote commit: %q", got)
	}
}

// The scheduler's task table returns to empty after whole jobs complete
// — the leak regression test for b.active.
func TestActiveTasksReturnsToZeroAfterJobs(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newBackend(t, clk)
	h1, _ := b.Submit(mkJob(t, 8, 1))
	h2, _ := b.Submit(mkJob(t, 8, 1))
	for n := uint64(1); n <= 16; n++ {
		a, ok := b.HandleRequest(&TaskRequest{NodeID: n}).(*TaskAssign)
		if !ok {
			t.Fatalf("node %d starved", n)
		}
		b.HandleResult(&TaskResult{NodeID: n, JobID: a.JobID, TaskID: a.TaskID, Payload: []byte("r")})
	}
	if _, done := h1.Done(); !done {
		t.Fatal("job 1 incomplete")
	}
	if _, done := h2.Done(); !done {
		t.Fatal("job 2 incomplete")
	}
	if got := b.ActiveTasks(); got != 0 {
		t.Fatalf("active tasks = %d after all jobs completed, want 0", got)
	}
	if got := b.open.Load(); got != 0 {
		t.Fatalf("open tasks = %d after all jobs completed, want 0", got)
	}
}

// A long-lived Backend keeps nothing of a finished job: the job table
// returns to empty, the caller's handle keeps its results, and a result
// replayed for a finished job is dropped, counted, and moves nobody's
// credibility.
func TestFinishedJobsAreReleased(t *testing.T) {
	clk := simtime.NewSim(epoch)
	reg := obs.NewRegistry()
	b, err := New(Config{Clock: clk, Obs: reg, TrackCredibility: true,
		RetryAfter: 5 * time.Second, LeaseBase: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	const jobs, tasks = 64, 3
	var handles []*JobHandle
	var last *TaskResult
	for j := 0; j < jobs; j++ {
		h, err := b.Submit(mkJob(t, tasks, 1))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		for n := uint64(1); n <= tasks; n++ {
			a, ok := b.HandleRequest(&TaskRequest{NodeID: n}).(*TaskAssign)
			if !ok {
				t.Fatalf("job %d: node %d starved", j, n)
			}
			last = &TaskResult{NodeID: n, JobID: a.JobID, TaskID: a.TaskID, Payload: []byte("r")}
			b.HandleResult(last)
		}
	}
	b.jmu.RLock()
	held := len(b.jobs)
	b.jmu.RUnlock()
	if held != 0 {
		t.Fatalf("job table holds %d finished jobs, want 0", held)
	}
	for _, h := range handles {
		if _, done := h.Done(); !done || len(h.Results()) != tasks {
			t.Fatalf("job %d: done=%v results=%d; the handle must keep what the Backend released", h.ID, done, len(h.Results()))
		}
	}

	// Replay the last result from a node that never voted: no commit, no
	// credibility either way, one late result counted.
	const straggler = uint64(99)
	replay := *last
	replay.NodeID = straggler
	replay.Payload = []byte("WRONG")
	b.HandleResult(&replay)
	if got := counter(t, reg, "oddci_backend_late_results_total"); got != 1 {
		t.Fatalf("late results counted = %v, want 1", got)
	}
	if got := b.credibility(straggler); got != credFullScore {
		t.Fatalf("a late result moved credibility to %d", got)
	}
	if got := string(handles[jobs-1].Results()[replay.TaskID]); got != "r" {
		t.Fatalf("a late result overwrote a committed one: %q", got)
	}
	if b.Completed != jobs*tasks {
		t.Fatalf("completed = %d, want %d", b.Completed, jobs*tasks)
	}
}

// One reclaim pass requeues at most the task's replica deficit. A task
// with two expired leases but a quorum gap of one must put exactly one
// slot back — before the fix, every expired lease appended a slot
// unconditionally, inflating the in-flight count the quorum top-up math
// in HandleResult relies on.
func TestReclaimRequeueCappedAtDeficit(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newReplicatedBackend(t, clk, 3) // quorum 2, lease ≈ 34 s
	h, err := b.Submit(mkJob(t, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint64{1, 2, 3} {
		if _, ok := b.HandleRequest(&TaskRequest{NodeID: n}).(*TaskAssign); !ok {
			t.Fatalf("node %d not served", n)
		}
	}
	// Nodes 1 and 2 disagree; node 3's replica stays leased.
	b.HandleResult(&TaskResult{NodeID: 1, JobID: 1, TaskID: 0, Payload: []byte("a")})
	b.HandleResult(&TaskResult{NodeID: 2, JobID: 1, TaskID: 0, Payload: []byte("b")})
	// Graft a fourth, already-expired lease onto the task (as left by an
	// earlier top-up whose node vanished): the task now carries two
	// expired leases at reclaim time but only one slot of deficit.
	key := taskKey{job: 1, task: 0}
	s := b.shardFor(key)
	s.mu.Lock()
	ts := s.active[key]
	ghostDeadline := epoch.Add(time.Second)
	ts.outstanding[99] = ghostDeadline
	s.leases.push(leaseEntry{at: ghostDeadline, key: key, node: 99})
	ts.launched++
	s.mu.Unlock()
	clk.AfterFunc(60*time.Second, func() {
		// Both leases (ghost at 1 s, node 3 at ≈34 s) are expired. One
		// reclaim pass must requeue exactly one slot: node 5 gets it,
		// node 6 must find nothing.
		a, ok := b.HandleRequest(&TaskRequest{NodeID: 5}).(*TaskAssign)
		if !ok {
			t.Error("deficit slot not requeued")
			return
		}
		if _, ok := b.HandleRequest(&TaskRequest{NodeID: 6}).(*NoTask); !ok {
			t.Error("reclaim requeued past the replica deficit")
		}
		b.HandleResult(&TaskResult{NodeID: 5, JobID: a.JobID, TaskID: a.TaskID,
			Payload: []byte("a")})
	})
	clk.Wait()
	if _, done := h.Done(); !done {
		t.Fatal("job incomplete")
	}
	if got := h.Results()[0]; string(got) != "a" {
		t.Fatalf("committed %q, want a", got)
	}
	if b.Unresolved != 0 {
		t.Fatalf("unresolved = %d", b.Unresolved)
	}
	if h.Redispatches() != 2 {
		t.Fatalf("redispatches = %d, want 2 (ghost and node 3)", h.Redispatches())
	}
}

// Draining flips NoTask.Done exactly when the last task commits, and
// back off again when draining is cleared.
func TestDrainingSignalsDoneOnlyWhenAllCommitted(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newBackend(t, clk)
	b.Submit(mkJob(t, 2, 1))
	b.SetDraining(true)
	a1 := b.HandleRequest(&TaskRequest{NodeID: 1}).(*TaskAssign)
	a2 := b.HandleRequest(&TaskRequest{NodeID: 2}).(*TaskAssign)
	if nt := b.HandleRequest(&TaskRequest{NodeID: 3}).(*NoTask); nt.Done {
		t.Fatal("Done with both tasks still leased")
	}
	b.HandleResult(&TaskResult{NodeID: 1, JobID: a1.JobID, TaskID: a1.TaskID})
	if nt := b.HandleRequest(&TaskRequest{NodeID: 3}).(*NoTask); nt.Done {
		t.Fatal("Done with one task still open")
	}
	b.HandleResult(&TaskResult{NodeID: 2, JobID: a2.JobID, TaskID: a2.TaskID})
	nt := b.HandleRequest(&TaskRequest{NodeID: 3}).(*NoTask)
	if !nt.Done {
		t.Fatal("draining backend with no open tasks should dismiss workers")
	}
	if nt.RetryAfter <= 0 {
		t.Fatalf("retry-after = %v", nt.RetryAfter)
	}
	b.SetDraining(false)
	if nt := b.HandleRequest(&TaskRequest{NodeID: 3}).(*NoTask); nt.Done {
		t.Fatal("Done after draining was cleared")
	}
}

// The ready queue is a ring buffer: interleaved front/back pushes and
// pops across growth boundaries preserve FIFO order.
func TestReadyQueueWraparound(t *testing.T) {
	mk := func(i int) *taskState { return &taskState{key: taskKey{job: 1, task: i}} }
	var q readyQueue
	for i := 0; i < 5; i++ {
		q.pushBack(mk(i))
	}
	for i := 0; i < 3; i++ {
		if got := q.popFront(); got.key.task != i {
			t.Fatalf("pop %d = task %d", i, got.key.task)
		}
	}
	// Wrap: head is past the midpoint; these pushes wrap around.
	for i := 5; i < 12; i++ {
		q.pushBack(mk(i))
	}
	q.pushFront(mk(99))
	want := []int{99, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if q.len() != len(want) {
		t.Fatalf("len = %d, want %d", q.len(), len(want))
	}
	for _, w := range want {
		if got := q.popFront(); got.key.task != w {
			t.Fatalf("pop = task %d, want %d", got.key.task, w)
		}
	}
	if q.len() != 0 {
		t.Fatalf("len = %d after draining", q.len())
	}
}

// The lease heap pops entries in deadline order regardless of insertion
// order.
func TestLeaseHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	var h leaseHeap
	const n = 200
	for i := 0; i < n; i++ {
		h.push(leaseEntry{
			at:   epoch.Add(time.Duration(rng.Intn(1_000_000)) * time.Millisecond),
			key:  taskKey{job: 1, task: i},
			node: uint64(i),
		})
	}
	if h.len() != n {
		t.Fatalf("len = %d", h.len())
	}
	prev, _ := h.peek()
	for h.len() > 0 {
		e := h.popMin()
		if e.at.Before(prev.at) {
			t.Fatalf("heap popped %v after %v", e.at, prev.at)
		}
		prev = e
	}
	if _, ok := h.peek(); ok {
		t.Fatal("peek on empty heap")
	}
}

// Tasks spread across shards and single-task jobs are still found by
// any node regardless of its hash offset.
func TestShardScanFindsWorkAnywhere(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b, err := New(Config{Clock: clk, Shards: 8, LeaseBase: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.Submit(mkJob(t, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Whatever shard the task hashed to, an arbitrary node finds it.
	a, ok := b.HandleRequest(&TaskRequest{NodeID: 0xdeadbeef}).(*TaskAssign)
	if !ok {
		t.Fatal("single-task job not reachable across shards")
	}
	b.HandleResult(&TaskResult{NodeID: 0xdeadbeef, JobID: a.JobID, TaskID: a.TaskID})
	if _, done := h.Done(); !done {
		t.Fatal("job incomplete")
	}
}
