package backend

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/dve"
	"oddci/internal/netsim"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
	"oddci/internal/workload"
)

// TestHandoffAllocCeiling pins what one credentialed hand-off into a
// reused assignment may cost the collector: nothing. The task states
// are one slab per job, a task's first lease and vote are inline, the
// token is minted into the assignment's own buffer, the result map is
// sized at Submit, and the lease heap's growth amortises to zero.
func TestHandoffAllocCeiling(t *testing.T) {
	const runs = 2000
	b, err := New(Config{Clock: simtime.NewReal(), LeaseBase: time.Hour, CredentialMode: CredEnforce})
	if err != nil {
		t.Fatal(err)
	}
	job := benchJob(t, runs+2) // AllocsPerRun adds one warm-up call
	for i := range job.Tasks {
		job.Tasks[i].Payload = []byte("input")
	}
	h, err := b.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	req := &TaskRequest{NodeID: 1}
	res := &TaskResult{NodeID: 1, Payload: []byte("ok")}
	var a TaskAssign
	avg := testing.AllocsPerRun(runs, func() {
		if b.HandleRequestInto(req, &a) != &a {
			t.Fatal("dispatch came up empty")
		}
		res.JobID, res.TaskID, res.Credential = a.JobID, a.TaskID, a.Credential
		b.HandleResult(res)
	})
	if got := len(h.Results()); got != runs+1 {
		t.Fatalf("%d of %d hand-offs committed", got, runs+1)
	}
	if string(a.Payload) != "input" {
		t.Fatalf("assignment payload %q", a.Payload)
	}
	if avg > 0 {
		t.Fatalf("CredEnforce dispatch+commit allocates %.1f times, ceiling 0", avg)
	}
}

// serveHandoffs runs a job of tasks through workers netsim channels,
// each a Worker in a DVE against Serve, under Sim at CredEnforce. Every
// worker echoes the credential each assignment carries. It returns the
// backend, the job's handle and the heap objects allocated per task
// between the warm-th result and the warm-th from last.
func serveHandoffs(t *testing.T, obsReg *obs.Registry, workers, tasks, warm int) (*Backend, *JobHandle, uint64) {
	t.Helper()
	clk := simtime.NewSim(epoch)
	b, err := New(Config{Clock: clk, CredentialMode: CredEnforce, Obs: obsReg,
		RetryAfter: 5 * time.Second, LeaseBase: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.Submit(benchJob(t, tasks))
	if err != nil {
		t.Fatal(err)
	}
	b.SetDraining(true)
	reg := dve.NewRegistry()
	reg.Register(WorkerEntryPoint, Worker)
	image := &appimage.Image{Name: "w", EntryPoint: WorkerEntryPoint, Payload: []byte{1}}
	var results atomic.Int64
	var from, to runtime.MemStats // each written by one worker, read after Wait
	onTask := func() {
		switch results.Add(1) {
		case int64(warm):
			runtime.ReadMemStats(&from)
		case int64(tasks - warm):
			runtime.ReadMemStats(&to)
		}
	}
	dves := make([]*dve.DVE, workers)
	for w := range dves {
		ep, hangup := dial(clk, b)
		dves[w], err = dve.Launch(dve.Config{Clock: clk, Registry: reg, Image: image,
			NodeID: uint64(w + 1), Backend: ep, Hangup: hangup, OnTask: onTask,
			OnExit: func(error) { hangup() }})
		if err != nil {
			t.Fatal(err)
		}
	}
	// A worker refused every vote would poll for ever; end the run a day
	// in, long after an honest one has finished.
	clk.AfterFunc(24*time.Hour, func() {
		for _, d := range dves {
			d.Destroy()
		}
	})
	clk.Wait()
	if got := results.Load(); got != int64(tasks) {
		t.Errorf("%d of %d tasks' results sent", got, tasks)
	}
	return b, h, (to.Mallocs - from.Mallocs) / uint64(tasks-2*warm)
}

// TestServeHandoffAllocatesNothing is the netsim twin of the loopback
// hand-off test: once warm, a task's whole round over a Worker↔Serve
// channel under Sim at CredEnforce (request, dispatch into Serve's
// reused assignment, the credential's issue, the device time, the
// result in the worker's reused TaskResult, its verify and commit, and
// every link hop and park between) allocates nothing.
func TestServeHandoffAllocatesNothing(t *testing.T) {
	_, _, perTask := serveHandoffs(t, nil, 2, 512, 128)
	t.Logf("%d allocations per task", perTask)
	if perTask != 0 {
		t.Fatalf("a netsim hand-off allocates %d times per task, want 0", perTask)
	}
}

// TestServeEchoedCredentialsAllCommit: at CredEnforce a netsim run whose
// workers echo every credential has no vote refused, no slot handed out
// twice, and every task committed. Serve hands its reused assignment to
// the next request only after handling the result before it; one that
// dispatched first would rewrite the token the pending result echoes,
// and that result would be refused.
func TestServeEchoedCredentialsAllCommit(t *testing.T) {
	reg := obs.NewRegistry()
	const tasks = 64
	b, h, _ := serveHandoffs(t, reg, 4, tasks, 0)
	for _, name := range []string{
		"oddci_backend_byzantine_cred_rejected_total",
		"oddci_backend_byzantine_cred_missing_total",
		"oddci_backend_byzantine_cred_forged_total",
		"oddci_backend_byzantine_cred_replayed_total",
	} {
		if got := counter(t, reg, name); got != 0 {
			t.Errorf("%s = %v, want 0", name, got)
		}
	}
	if _, done := h.Done(); !done || len(h.Results()) != tasks {
		t.Fatalf("job done=%v with %d of %d results", done, len(h.Results()), tasks)
	}
	if b.Completed != tasks || h.Redispatches() != 0 {
		t.Fatalf("completed %d of %d with %d redispatches", b.Completed, tasks, h.Redispatches())
	}
}

// windowProbe is a worker's channel that records the most requests it
// had unanswered at once.
type windowProbe struct {
	dve.Channel
	out, most int
}

func (w *windowProbe) Send(to string, payload any, size int) {
	if _, ok := payload.(*TaskRequest); ok {
		w.out++
		w.most = max(w.most, w.out)
	}
	w.Channel.Send(to, payload, size)
}

func (w *windowProbe) Recv() (netsim.Packet, error) {
	pkt, err := w.Channel.Recv()
	if err == nil {
		w.out--
	}
	return pkt, err
}

// TestServePipelinedCredentialsAllCommit: zero-time tasks open each
// Worker's request window to LeaseSlack over netsim, so assignments and
// results pass each other on the link while Serve's assignment slots and
// the Worker's result slots are reused. At CredEnforce every task must
// still commit once with its own credential: a slot rewritten while its
// message was still unread carries another task's token, and the vote is
// refused.
func TestServePipelinedCredentialsAllCommit(t *testing.T) {
	clk := simtime.NewSim(epoch)
	reg := obs.NewRegistry()
	b, err := New(Config{Clock: clk, CredentialMode: CredEnforce, Obs: reg,
		RetryAfter: 5 * time.Second, LeaseBase: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 256
	job := &workload.Job{Name: "pipelined", Tasks: make([]workload.Task, tasks)}
	for i := range job.Tasks {
		job.Tasks[i] = workload.Task{ID: i, InputBytes: 64, OutputBytes: 32}
	}
	h, err := b.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	b.SetDraining(true)
	apps := dve.NewRegistry()
	apps.Register(WorkerEntryPoint, Worker)
	image := &appimage.Image{Name: "w", EntryPoint: WorkerEntryPoint, Payload: []byte{1}}
	probes := make([]*windowProbe, 3)
	dves := make([]*dve.DVE, len(probes))
	for w := range probes {
		ep, hangup := dial(clk, b)
		probes[w] = &windowProbe{Channel: ep}
		if dves[w], err = dve.Launch(dve.Config{Clock: clk, Registry: apps, Image: image,
			NodeID: uint64(w + 1), Backend: probes[w], Hangup: hangup,
			OnExit: func(error) { hangup() }}); err != nil {
			t.Fatal(err)
		}
	}
	// Workers refused their votes would poll for ever; end the run a day
	// in, long after honest ones have finished.
	clk.AfterFunc(24*time.Hour, func() {
		for _, d := range dves {
			d.Destroy()
		}
	})
	clk.Wait()
	for _, name := range []string{
		"oddci_backend_byzantine_cred_rejected_total",
		"oddci_backend_byzantine_cred_missing_total",
		"oddci_backend_byzantine_cred_forged_total",
		"oddci_backend_byzantine_cred_replayed_total",
	} {
		if got := counter(t, reg, name); got != 0 {
			t.Errorf("%s = %v, want 0", name, got)
		}
	}
	if _, done := h.Done(); !done || b.Completed != tasks || h.Redispatches() != 0 {
		t.Fatalf("job done=%v, completed %d of %d with %d redispatches", done, b.Completed, tasks, h.Redispatches())
	}
	for w, p := range probes {
		if p.most != LeaseSlack {
			t.Errorf("worker %d kept at most %d requests out, want the window of %d", w+1, p.most, LeaseSlack)
		}
	}
}

// TestReusedAssignmentCarriesNothingOver drives one assignment through
// dispatches that differ in every optional field: nothing of an earlier
// dispatch may survive into a later one.
func TestReusedAssignmentCarriesNothingOver(t *testing.T) {
	secret := []byte("reused-assignment-secret")
	reg := obs.NewRegistry()
	enforce, err := New(Config{Clock: simtime.NewReal(), LeaseBase: time.Hour, CredentialMode: CredEnforce,
		CredentialSecret: secret, Obs: reg, Spans: span.NewCollector(span.Config{Capacity: 64})})
	if err != nil {
		t.Fatal(err)
	}
	off, err := New(Config{Clock: simtime.NewReal(), LeaseBase: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	h, err := enforce.Submit(benchJob(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.Submit(benchJob(t, 1)); err != nil {
		t.Fatal(err)
	}
	var a TaskAssign
	into := func(b *Backend, req *TaskRequest) {
		t.Helper()
		if b.HandleRequestInto(req, &a) != &a {
			t.Fatal("dispatch came up empty")
		}
	}
	type slot struct {
		job, task int
		token     []byte
	}
	var slots []slot
	keep := func() { slots = append(slots, slot{a.JobID, a.TaskID, append([]byte(nil), a.Credential...)}) }

	sampled := span.Context{Trace: span.TraceID{0xfeed, 0xbeef}, Span: 7, Sampled: true}
	into(enforce, &TaskRequest{NodeID: 1, Trace: sampled})
	if a.Trace.Trace != sampled.Trace || !a.Trace.Valid() {
		t.Fatalf("sampled dispatch carries trace %v", a.Trace)
	}
	keep()
	into(enforce, &TaskRequest{NodeID: 1})
	if a.Trace != (span.Context{}) {
		t.Fatalf("unsampled dispatch carries the previous dispatch's trace %v", a.Trace)
	}
	keep()
	into(enforce, &TaskRequest{NodeID: 1})
	keep()
	into(enforce, &TaskRequest{NodeID: 1})
	keep()

	// Each token names its own slot and no other.
	for i, s := range slots {
		seq, node, job, task, err := openCredential(secret, s.token)
		if err != nil {
			t.Fatalf("token %d: %v", i, err)
		}
		if node != 1 || job != s.job || task != s.task || seq != uint64(i+1) {
			t.Fatalf("token %d binds seq %d node %d job %d task %d, dispatched job %d task %d",
				i, seq, node, job, task, s.job, s.task)
		}
	}
	// The backend agrees: each token echoed for its own slot commits, and
	// one echoed for another slot is a replay.
	echo := func(s slot, token []byte) {
		enforce.HandleResult(&TaskResult{NodeID: 1, JobID: s.job, TaskID: s.task, Payload: []byte("ok"), Credential: token})
	}
	for _, s := range slots[:3] {
		echo(s, s.token)
	}
	if got := len(h.Results()); got != 3 {
		t.Fatalf("own tokens committed %d of 3 tasks", got)
	}
	echo(slots[3], slots[2].token)
	if got := counter(t, reg, "oddci_backend_byzantine_cred_replayed_total"); got != 1 {
		t.Fatalf("another slot's token: replayed counter %v, want 1", got)
	}
	if got := len(h.Results()); got != 3 {
		t.Fatalf("a replayed token committed: %d results", got)
	}

	// A backend that issues no credentials leaves none behind.
	into(off, &TaskRequest{NodeID: 1})
	if len(a.Credential) != 0 {
		t.Fatalf("CredOff dispatch carries a %d-byte credential", len(a.Credential))
	}
}

// TestLeaseBookkeeping walks a task's leases through every place they
// are kept: the inline slot, the spill map, the inline slot emptied
// while the map still holds a lease and then refilled, an inline lease
// reclaimed by its heap entry, and quarantine revoking a node's leases
// at Replication 3.
func TestLeaseBookkeeping(t *testing.T) {
	var ts taskState
	ts.setLease(1, epoch)
	if at, ok := ts.leaseOf(1); !ok || !at.Equal(epoch) || ts.leaseCount() != 1 || len(ts.outstanding) != 0 {
		t.Fatalf("inline lease: leaseOf = %v, %v; count %d, spilled %d", at, ok, ts.leaseCount(), len(ts.outstanding))
	}
	ts.setLease(2, epoch.Add(time.Second))
	if at, ok := ts.leaseOf(2); !ok || !at.Equal(epoch.Add(time.Second)) || ts.leaseCount() != 2 || len(ts.outstanding) != 1 {
		t.Fatalf("spilled lease: leaseOf = %v, %v; count %d, spilled %d", at, ok, ts.leaseCount(), len(ts.outstanding))
	}
	if !ts.dropLease(1) || ts.dropLease(1) {
		t.Fatal("dropLease on the inline lease must succeed exactly once")
	}
	if _, ok := ts.leaseOf(1); ok || ts.leaseCount() != 1 {
		t.Fatalf("inline lease dropped: still held %v, count %d", ok, ts.leaseCount())
	}
	if ts.eligible(2) || !ts.eligible(1) {
		t.Fatal("eligibility ignores where a lease is kept")
	}
	ts.setLease(3, epoch.Add(2*time.Second))
	if ts.leaseCount() != 2 || len(ts.outstanding) != 1 || !ts.leased || ts.leaseNode != 3 {
		t.Fatalf("inline slot not refilled: count %d, spilled %d, inline %v node %d",
			ts.leaseCount(), len(ts.outstanding), ts.leased, ts.leaseNode)
	}
	if !ts.dropLease(2) || !ts.dropLease(3) || ts.leaseCount() != 0 {
		t.Fatalf("leases left after dropping both: %d", ts.leaseCount())
	}

	// A heap entry reclaims an inline lease: the slot is refunded and
	// dispatched again.
	clk := simtime.NewSim(epoch)
	b := newBackend(t, clk)
	h, err := b.Submit(mkJob(t, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := b.HandleRequest(&TaskRequest{NodeID: 1}).(*TaskAssign)
	if !ok {
		t.Fatal("node 1 got no assignment")
	}
	held := func(b *Backend, key taskKey, node uint64) (bool, int, int) {
		s := b.shardFor(key)
		s.mu.Lock()
		defer s.mu.Unlock()
		ts := s.active[key]
		_, ok := ts.leaseOf(node)
		return ok, ts.leaseCount(), ts.launched
	}
	key := taskKey{job: a.JobID, task: a.TaskID}
	if ok, n, launched := held(b, key, 1); !ok || n != 1 || launched != 1 {
		t.Fatalf("inline lease after dispatch: held %v, count %d, launched %d", ok, n, launched)
	}
	clk.RunUntil(epoch.Add(time.Hour))
	if _, ok := b.HandleRequest(&TaskRequest{NodeID: 2}).(*TaskAssign); !ok {
		t.Fatal("reclaimed slot not dispatched again")
	}
	if ok, n, launched := held(b, key, 1); ok || n != 1 || launched != 1 {
		t.Fatalf("after reclaim: node 1 held %v, count %d, launched %d", ok, n, launched)
	}
	if ok, _, _ := held(b, key, 2); !ok {
		t.Fatal("node 2 does not hold the reclaimed slot")
	}
	if h.Redispatches() != 1 {
		t.Fatalf("redispatches = %d, want 1", h.Redispatches())
	}

	// Quarantine at Replication 3 revokes the quarantined node's leases,
	// inline and spilled, and leaves the others'. One stripe keeps the
	// dispatch order fixed: node 1 is task 0's first lease (inline) and
	// task 1's second (spilled).
	rb, err := New(Config{Clock: simtime.NewSim(epoch), Replication: 3, shards: 1, LeaseBase: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Submit(mkJob(t, 2, 1)); err != nil {
		t.Fatal(err)
	}
	keys := []taskKey{{job: 1, task: 0}, {job: 1, task: 1}}
	for _, n := range []uint64{1, 2, 3, 2, 1, 3} {
		if _, ok := rb.HandleRequest(&TaskRequest{NodeID: n}).(*TaskAssign); !ok {
			t.Fatalf("node %d got no assignment", n)
		}
	}
	s := rb.shards[0]
	s.mu.Lock()
	inline0, inline1 := s.active[keys[0]].leaseNode, s.active[keys[1]].leaseNode
	s.mu.Unlock()
	if inline0 != 1 || inline1 != 2 {
		t.Fatalf("inline leases held by nodes %d and %d, want 1 and 2", inline0, inline1)
	}
	rb.penalizeRejection(1)
	rb.penalizeRejection(1) // 1000 → 500 → 250: quarantined
	if !rb.Quarantined(1) {
		t.Fatal("node 1 not quarantined")
	}
	for i, key := range keys {
		if ok, n, launched := held(rb, key, 1); ok || n != 2 || launched != 2 {
			t.Fatalf("task %d after quarantining node 1: held %v, count %d, launched %d", i, ok, n, launched)
		}
		for _, other := range []uint64{2, 3} {
			if ok, _, _ := held(rb, key, other); !ok {
				t.Fatalf("task %d: quarantining node 1 dropped node %d's lease", i, other)
			}
		}
	}
	// Both revoked slots are back in the queue (in the order revokeLeases
	// met the tasks).
	seen := map[int]bool{}
	for range keys {
		if a, ok := rb.HandleRequest(&TaskRequest{NodeID: 4}).(*TaskAssign); ok {
			seen[a.TaskID] = true
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("node 1's revoked slots requeued for tasks %v, want 0 and 1", seen)
	}
}

// TestTallyLoneVote: a lone vote is tallied without a map to exactly
// what the loop returns for it, a zero weight leaving best unset.
func TestTallyLoneVote(t *testing.T) {
	for _, w := range []int64{credFullScore, 1, 0} {
		ts := taskState{votes: []vote{{node: 1, payload: []byte("p"), weight: w}}}
		best, bestW, distinct := ts.tally()
		wantBest := "p"
		if w == 0 {
			wantBest = ""
		}
		if string(best) != wantBest || (best == nil) != (w == 0) || bestW != w || distinct != 1 {
			t.Fatalf("weight %d: tally = %q, %d, %d", w, best, bestW, distinct)
		}
		if got := testing.AllocsPerRun(10, func() { ts.tally() }); got != 0 {
			t.Fatalf("weight %d: a lone-vote tally allocates %.0f times", w, got)
		}
	}
}

// TestSkippingDispatchAllocatesNothing: at Replication 3 a node steps
// past the slots of every task it already holds on every dispatch; the
// slots it skips collect in the shard's scratch, not a fresh slice.
func TestSkippingDispatchAllocatesNothing(t *testing.T) {
	const runs = 200
	b, err := New(Config{Clock: simtime.NewReal(), LeaseBase: time.Hour, Replication: 3, shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Submit(benchJob(t, runs+2)); err != nil {
		t.Fatal(err)
	}
	// Size the scratch and the lease heap for the whole run up front, so
	// neither's growth hides in the average: the measure is exact.
	s := b.shards[0]
	s.skipped = make([]*taskState, 0, 2*(runs+2))
	s.leases = make(leaseHeap, 0, runs+2)
	req := &TaskRequest{NodeID: 1}
	var a TaskAssign
	b.HandleRequestInto(req, &a) // node 1 now holds task 0, two of whose slots lead the queue
	want := 1
	avg := testing.AllocsPerRun(runs, func() {
		if b.HandleRequestInto(req, &a) != &a || a.TaskID != want {
			t.Fatalf("dispatch %d: task %d", want, a.TaskID)
		}
		want++
	})
	s.mu.Lock()
	scratch, queued := s.skipped[:cap(s.skipped)], s.ready.len()
	s.mu.Unlock()
	if avg != 0 {
		t.Fatalf("a dispatch that skips the slots node 1 holds allocates %.0f times", avg)
	}
	if queued != 2*want {
		t.Fatalf("%d slots queued after %d dispatches, want %d", queued, want, 2*want)
	}
	for i, ts := range scratch {
		if ts != nil {
			t.Fatalf("scratch slot %d still points at task %v", i, ts.key)
		}
	}
}

// TestConcurrentCredentialedHandoff pulls and commits from 8 goroutines
// under CredEnforce, so every shard's keyed MAC is issued from and
// verified against by several goroutines: each credential must verify
// (none rejected, none replayed) and every task commit exactly once.
func TestConcurrentCredentialedHandoff(t *testing.T) {
	const workers, tasks = 8, 4096
	b, err := New(Config{Clock: simtime.NewReal(), LeaseBase: time.Hour, CredentialMode: CredEnforce})
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.Submit(benchJob(t, tasks))
	if err != nil {
		t.Fatal(err)
	}
	b.SetDraining(true)
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(node uint64) {
			defer wg.Done()
			req := &TaskRequest{NodeID: node}
			for {
				switch m := b.HandleRequest(req).(type) {
				case *TaskAssign:
					b.HandleResult(&TaskResult{NodeID: node, JobID: m.JobID, TaskID: m.TaskID,
						Payload: []byte("ok"), Credential: m.Credential})
				case *NoTask:
					if m.Done {
						return
					}
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	if _, done := h.Done(); !done {
		t.Fatal("job incomplete")
	}
	if got := len(h.Results()); got != tasks {
		t.Fatalf("%d results, want %d", got, tasks)
	}
	if b.Completed != tasks || h.Redispatches() != 0 {
		t.Fatalf("completed %d, want %d, and %d redispatches: a credential was refused", b.Completed, tasks, h.Redispatches())
	}
	for w := uint64(1); w <= workers; w++ {
		if got := b.credibility(w); got != credFullScore {
			t.Fatalf("node %d credibility %d after clean echoes", w, got)
		}
	}
}

// TestReplicaCredentialBindings walks the live bindings through every
// place they are kept: the first replica's inline slot, the spill map
// for the rest, a re-issue that supersedes a node's earlier token, and
// an inline slot refilled after a revocation.
func TestReplicaCredentialBindings(t *testing.T) {
	clk := simtime.NewSim(epoch)
	reg := obs.NewRegistry()
	b, err := New(Config{Clock: clk, Replication: 3, CredentialMode: CredEnforce, Obs: reg,
		quarantineBelow: -1, RetryAfter: 5 * time.Second, LeaseBase: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.Submit(benchJob(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	grab := func(node uint64) *TaskAssign {
		t.Helper()
		a, ok := b.HandleRequest(&TaskRequest{NodeID: node}).(*TaskAssign)
		if !ok {
			t.Fatalf("node %d got no assignment", node)
		}
		return a
	}
	echo := func(node uint64, a *TaskAssign, cred []byte) {
		b.HandleResult(&TaskResult{NodeID: node, JobID: a.JobID, TaskID: a.TaskID,
			Payload: []byte("ok"), Credential: cred})
	}
	replayed := func() float64 { return counter(t, reg, "oddci_backend_byzantine_cred_replayed_total") }

	a1, a2, a3 := grab(1), grab(2), grab(3)
	echo(2, a2, a1.Credential) // another replica's token: wrong slot
	if got := replayed(); got != 1 {
		t.Fatalf("stolen replica token: replayed counter = %v, want 1", got)
	}
	// Node 1's lease lapses and it is leased the slot again: only the
	// newest token is live.
	clk.RunUntil(epoch.Add(time.Hour))
	grab(1)
	echo(1, a1, a1.Credential)
	if got := replayed(); got != 2 {
		t.Fatalf("superseded token: replayed counter = %v, want 2", got)
	}
	if _, done := h.Done(); done {
		t.Fatal("a rejected vote committed")
	}
	echo(3, a3, a3.Credential) // spilled binding, still live
	a1c := grab(1)
	echo(1, a1c, a1c.Credential) // inline binding, third issue; half weight after its rejection
	a4 := grab(4)
	echo(4, a4, a4.Credential)
	if _, done := h.Done(); !done {
		t.Fatal("three clean echoes did not reach quorum")
	}
	if got := counter(t, reg, "oddci_backend_byzantine_cred_rejected_total"); got != 2 {
		t.Fatalf("rejected counter = %v, want 2", got)
	}

	// A node that spilled, then refilled the emptied inline slot, leaves
	// no binding behind in either place once dropped.
	var ts taskState
	ts.bindSeq(7, 1)
	ts.bindSeq(8, 2)
	ts.unbindSeq(7)
	ts.bindSeq(8, 3)
	if seq, ok := ts.issuedSeq(8); !ok || seq != 3 {
		t.Fatalf("issuedSeq(8) = %d, %v; want 3", seq, ok)
	}
	ts.unbindSeq(8)
	if seq, ok := ts.issuedSeq(8); ok {
		t.Fatalf("dropped node still bound to seq %d", seq)
	}
	if _, ok := ts.issuedSeq(7); ok {
		t.Fatal("revoked node still bound")
	}
}
