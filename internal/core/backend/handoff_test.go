package backend

import (
	"sync"
	"testing"
	"time"

	"oddci/internal/obs"
	"oddci/internal/simtime"
)

// TestHandoffAllocCeiling pins what one credentialed hand-off may cost
// the collector: the assignment, its 64-byte token, the vote, and the
// amortised growth of the lease heap and the result map — not a MAC
// key schedule per credential.
func TestHandoffAllocCeiling(t *testing.T) {
	const runs = 2000
	b, err := New(Config{Clock: simtime.NewReal(), LeaseBase: time.Hour, CredentialMode: CredEnforce})
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.Submit(benchJob(t, runs+2)) // AllocsPerRun adds one warm-up call
	if err != nil {
		t.Fatal(err)
	}
	req := &TaskRequest{NodeID: 1}
	res := &TaskResult{NodeID: 1, Payload: []byte("ok")}
	avg := testing.AllocsPerRun(runs, func() {
		a, ok := b.HandleRequest(req).(*TaskAssign)
		if !ok {
			t.Fatal("dispatch came up empty")
		}
		res.JobID, res.TaskID, res.Credential = a.JobID, a.TaskID, a.Credential
		b.HandleResult(res)
	})
	if got := len(h.Results()); got != runs+1 {
		t.Fatalf("%d of %d hand-offs committed", got, runs+1)
	}
	if avg > 6 {
		t.Fatalf("CredEnforce dispatch+commit allocates %.1f times, ceiling 6", avg)
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
	if b.Completed != tasks || b.Assigned != tasks {
		t.Fatalf("assigned %d, completed %d, want %d each: a credential was refused", b.Assigned, b.Completed, tasks)
	}
	for w := uint64(1); w <= workers; w++ {
		if got := b.Credibility(w); got != credFullScore {
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
		QuarantineBelow: -1, RetryAfter: 5 * time.Second, LeaseBase: 30 * time.Second})
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
