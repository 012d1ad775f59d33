package backend

import (
	"fmt"
	"testing"
	"time"

	"oddci/internal/simtime"
	"oddci/internal/workload"
)

func newReplicatedBackend(t *testing.T, clk simtime.Clock, r int) *Backend {
	t.Helper()
	b, err := New(Config{Clock: clk, Replication: r,
		RetryAfter: 5 * time.Second, LeaseBase: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runVoters drives one task through n distinct nodes, each answering
// with answer(node).
func runVoters(b *Backend, nodes []uint64, answer func(node uint64) []byte) int {
	served := 0
	for _, n := range nodes {
		a, ok := b.HandleRequest(&TaskRequest{NodeID: n}).(*TaskAssign)
		if !ok {
			continue
		}
		served++
		b.HandleResult(&TaskResult{NodeID: n, JobID: a.JobID, TaskID: a.TaskID,
			Payload: answer(n)})
	}
	return served
}

func TestReplicationQuorumCommitsMajority(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newReplicatedBackend(t, clk, 3)
	h, err := b.Submit(mkJob(t, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Three replicas of the one task go to three distinct nodes; node 2
	// is byzantine.
	runVoters(b, []uint64{1, 2, 3}, func(n uint64) []byte {
		if n == 2 {
			return []byte("WRONG")
		}
		return []byte("right")
	})
	if _, done := h.Done(); !done {
		t.Fatal("majority did not commit")
	}
	if got := h.Results()[0]; string(got) != "right" {
		t.Fatalf("committed %q", got)
	}
	if b.Conflicts != 1 {
		t.Fatalf("conflicts = %d", b.Conflicts)
	}
	if b.Unresolved != 0 {
		t.Fatalf("unresolved = %d", b.Unresolved)
	}
}

func TestReplicationNoDoubleAssignSameNode(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newReplicatedBackend(t, clk, 3)
	if _, err := b.Submit(mkJob(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// The same node asks three times: only the first succeeds.
	assigns := 0
	for i := 0; i < 3; i++ {
		if _, ok := b.HandleRequest(&TaskRequest{NodeID: 7}).(*TaskAssign); ok {
			assigns++
		}
	}
	if assigns != 1 {
		t.Fatalf("node got %d replicas of one task", assigns)
	}
}

func TestReplicationConflictTriggersExtraReplica(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newReplicatedBackend(t, clk, 3)
	h, err := b.Submit(mkJob(t, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Replicas split 1/1/1 three ways: no quorum from the first wave.
	runVoters(b, []uint64{1, 2, 3}, func(n uint64) []byte {
		return []byte(fmt.Sprintf("answer-%d", n))
	})
	if _, done := h.Done(); done {
		t.Fatal("committed without a quorum")
	}
	// Extra replicas (budget 2×3 = 6) break the tie.
	runVoters(b, []uint64{4, 5, 6}, func(uint64) []byte { return []byte("answer-1") })
	if _, done := h.Done(); !done {
		t.Fatal("extra replicas did not commit")
	}
	if got := h.Results()[0]; string(got) != "answer-1" {
		t.Fatalf("committed %q", got)
	}
}

func TestReplicationExhaustedCommitsPlurality(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newReplicatedBackend(t, clk, 3) // maxReplicas = 6
	h, err := b.Submit(mkJob(t, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Every node disagrees: 6 replicas, all distinct.
	nodes := []uint64{1, 2, 3, 4, 5, 6}
	served := runVoters(b, nodes, func(n uint64) []byte {
		return []byte(fmt.Sprintf("answer-%d", n))
	})
	if served != 6 {
		t.Fatalf("served %d replicas, want 6", served)
	}
	if _, done := h.Done(); !done {
		t.Fatal("exhausted task did not commit plurality")
	}
	if b.Unresolved != 1 {
		t.Fatalf("unresolved = %d", b.Unresolved)
	}
}

func TestReplicationLeaseExpiryAcrossReplicas(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newReplicatedBackend(t, clk, 3)
	h, err := b.Submit(mkJob(t, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 1..3 take the replicas; node 2 dies.
	for _, n := range []uint64{1, 2, 3} {
		if _, ok := b.HandleRequest(&TaskRequest{NodeID: n}).(*TaskAssign); !ok {
			t.Fatalf("node %d not served", n)
		}
	}
	a1 := &TaskResult{NodeID: 1, JobID: 1, TaskID: 0, Payload: []byte("ok")}
	a3 := &TaskResult{NodeID: 3, JobID: 1, TaskID: 0, Payload: []byte("ok")}
	b.HandleResult(a1)
	b.HandleResult(a3)
	// Two matching votes of three: quorum reached without node 2.
	if _, done := h.Done(); !done {
		t.Fatal("quorum of 2/3 did not commit")
	}
	// Node 2's late result is ignored.
	b.HandleResult(&TaskResult{NodeID: 2, JobID: 1, TaskID: 0, Payload: []byte("late-WRONG")})
	if got := h.Results()[0]; string(got) != "ok" {
		t.Fatalf("late result overwrote commit: %q", got)
	}
}

func TestReplicationDefaultSingleUnchanged(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newBackend(t, clk) // Replication 1
	h, _ := b.Submit(mkJob(t, 2, 1))
	runVoters(b, []uint64{1, 2}, func(uint64) []byte { return []byte("x") })
	if _, done := h.Done(); !done {
		t.Fatal("single-replication flow broken")
	}
}

// Full-stack: a fleet with a byzantine minority still yields correct
// results through redundant execution.
func TestReplicationEndToEndWithByzantineNodes(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b, err := New(Config{Clock: clk, Replication: 3, RetryAfter: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	g := workload.Generator{Name: "byz", Tasks: 30, InputBytes: 64, OutputBytes: 32, MeanSeconds: 1}
	job, _ := g.Generate()
	h, err := b.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	b.SetDraining(true)
	const nodes = 12
	for n := uint64(1); n <= nodes; n++ {
		n := n
		byzantine := n <= 2 // 2 of 12 lie
		clk.Go(func() {
			ep, hangup := dial(clk, b)
			defer hangup()
			for {
				ep.Send("backend", &TaskRequest{NodeID: n}, RequestWireSize)
				pkt, err := ep.Recv()
				if err != nil {
					return
				}
				switch m := pkt.Payload.(type) {
				case *TaskAssign:
					clk.Sleep(time.Duration(m.RefSeconds * float64(time.Second)))
					payload := []byte(fmt.Sprintf("task-%d-ok", m.TaskID))
					if byzantine {
						// Distinct garbage per liar: colluding liars with
						// identical payloads can outvote honest nodes —
						// the known limit of majority voting.
						payload = []byte(fmt.Sprintf("garbage-%d-%d", n, m.TaskID))
					}
					ep.Send("backend", &TaskResult{NodeID: n, JobID: m.JobID,
						TaskID: m.TaskID, Payload: payload}, 32)
				case *NoTask:
					if m.Done {
						return
					}
					clk.Sleep(m.RetryAfter)
				}
			}
		})
	}
	clk.Wait()
	if _, done := h.Done(); !done {
		t.Fatal("job incomplete")
	}
	for id, payload := range h.Results() {
		want := fmt.Sprintf("task-%d-ok", id)
		if string(payload) != want {
			t.Fatalf("task %d committed %q, want %q", id, payload, want)
		}
	}
	if b.Unresolved != 0 {
		t.Fatalf("unresolved = %d; majority should always win here", b.Unresolved)
	}
}
