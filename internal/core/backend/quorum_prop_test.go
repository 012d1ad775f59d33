package backend

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"oddci/internal/simtime"
)

// Property test for the quorum top-up math (slotDeficitLocked and the
// HandleResult top-up loop): over a randomized Replication ×
// MaxReplicas × vote-order grid with liars, dropped leases, duplicate
// submissions, and lease expiries interleaved, it holds that
//
//  1. a committed value is always a weighted-plurality winner of the
//     votes the backend actually accepted,
//  2. launched+queued never exceeds MaxReplicas (the replica budget),
//  3. expiry refunds never drive a slot counter negative, and the
//     outstanding-lease count never exceeds the launched slots.

// budgetViolations walks every live task and reports violations of the
// slot-accounting invariants the top-up math relies on.
func budgetViolations(b *Backend) []string {
	var bad []string
	for _, s := range b.shards {
		s.mu.Lock()
		for _, ts := range s.active {
			if ts.launched < 0 || ts.queued < 0 || ts.retries < 0 {
				bad = append(bad, fmt.Sprintf("task %+v: negative counter launched=%d queued=%d retries=%d",
					ts.key, ts.launched, ts.queued, ts.retries))
			}
			if ts.launched+ts.queued > b.cfg.MaxReplicas {
				bad = append(bad, fmt.Sprintf("task %+v: launched+queued = %d+%d exceeds MaxReplicas %d",
					ts.key, ts.launched, ts.queued, b.cfg.MaxReplicas))
			}
			if ts.leaseCount() > ts.launched {
				bad = append(bad, fmt.Sprintf("task %+v: %d outstanding leases exceed %d launched slots",
					ts.key, ts.leaseCount(), ts.launched))
			}
		}
		s.mu.Unlock()
	}
	return bad
}

// propVote mirrors one vote the backend accepted: the payload and the
// weight snapshotted at submission time (exactly what the backend
// stores).
type propVote struct {
	payload string
	weight  int64
}

type propTrial struct {
	t     *testing.T
	trial int
	b     *Backend
	h     *JobHandle
	liars int

	votes     map[int][]propVote      // accepted votes by task ID
	voted     map[int]map[uint64]bool // which nodes' votes were accepted
	committed map[int]bool
	failed    bool
}

// payloadFor is a node's answer: honest nodes agree on "ok", liars
// collude in two parity classes so agreeing wrong answers occur.
func (p *propTrial) payloadFor(node uint64) []byte {
	if node <= uint64(p.liars) {
		return []byte(fmt.Sprintf("lie-%d", node%2))
	}
	return []byte("ok")
}

// submit plays one result into the backend, mirroring the accept/drop
// decision (quarantine, already-committed, duplicate vote) so the
// plurality check below sees exactly the votes the backend counted.
func (p *propTrial) submit(node uint64, jobID, taskID int) {
	payload := p.payloadFor(node)
	weight := p.b.voteWeight(node) // snapshot before commit can move it
	accepted := !p.b.trust.quarantined(node) && !p.committed[taskID] && !p.voted[taskID][node]
	p.b.HandleResult(&TaskResult{NodeID: node, JobID: jobID, TaskID: taskID, Payload: payload})
	if accepted {
		if p.voted[taskID] == nil {
			p.voted[taskID] = make(map[uint64]bool)
		}
		p.voted[taskID][node] = true
		p.votes[taskID] = append(p.votes[taskID], propVote{string(payload), weight})
	}
	p.check()
}

// check asserts the budget invariants and audits any newly committed
// task: the committed payload must have been voted, and its weighted
// support must be no lower than any rival payload's.
func (p *propTrial) check() {
	for _, v := range budgetViolations(p.b) {
		p.t.Errorf("trial %d: %s", p.trial, v)
		p.failed = true
	}
	for id, got := range p.h.Results() {
		if p.committed[id] {
			continue
		}
		p.committed[id] = true
		sums := make(map[string]int64)
		for _, v := range p.votes[id] {
			sums[v.payload] += v.weight
		}
		w, cast := sums[string(got)]
		if !cast {
			p.t.Errorf("trial %d: task %d committed %q, which no accepted vote carried", p.trial, id, got)
			p.failed = true
			continue
		}
		for pay, sum := range sums {
			if sum > w {
				p.t.Errorf("trial %d: task %d committed %q (weight %d) over plurality winner %q (weight %d)",
					p.trial, id, got, w, pay, sum)
				p.failed = true
			}
		}
		if string(got) != "ok" {
			// With fewer than quorum liars and MaxReplicas ≥ Replication
			// this is unreachable (see the exhaustion-commit analysis in
			// DESIGN.md) — a wrong commit here is a safety regression.
			p.t.Errorf("trial %d: task %d committed liar payload %q", p.trial, id, got)
			p.failed = true
		}
	}
}

type pendingAssign struct {
	node uint64
	a    *TaskAssign
}

func runQuorumTrial(t *testing.T, trial int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	repl := 1 + rng.Intn(5)
	maxR := repl + rng.Intn(2*repl+1)
	// Fewer than quorum liars, and enough honest nodes that every task
	// can always reach quorum even after liars are quarantined.
	liars := rng.Intn((repl-1)/2 + 1)
	nodes := repl + liars + 4 + rng.Intn(6)
	tasks := 1 + rng.Intn(6)

	clk := simtime.NewSim(epoch)
	b, err := New(Config{Clock: clk, Replication: repl, MaxReplicas: maxR,
		LeaseBase: 30 * time.Second, RetryAfter: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.Submit(mkJob(t, tasks, 1))
	if err != nil {
		t.Fatal(err)
	}
	p := &propTrial{t: t, trial: trial, b: b, h: h, liars: liars,
		votes: make(map[int][]propVote), voted: make(map[int]map[uint64]bool),
		committed: make(map[int]bool)}

	clk.Go(func() {
		var pending, answered []pendingAssign
		drop := func(i int) pendingAssign {
			pa := pending[i]
			pending[i] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			return pa
		}
		for step := 0; step < 250 && !p.failed; step++ {
			switch rng.Intn(12) {
			case 0, 1, 2, 3, 4: // ask for work
				node := uint64(1 + rng.Intn(nodes))
				if a, ok := b.HandleRequest(&TaskRequest{NodeID: node}).(*TaskAssign); ok {
					pending = append(pending, pendingAssign{node, a})
				}
				p.check()
			case 5, 6, 7, 8: // answer a random outstanding assignment
				if len(pending) == 0 {
					continue
				}
				pa := drop(rng.Intn(len(pending)))
				p.submit(pa.node, pa.a.JobID, pa.a.TaskID)
				answered = append(answered, pa)
			case 9: // duplicate or post-commit straggler re-submission
				if len(answered) == 0 {
					continue
				}
				pa := answered[rng.Intn(len(answered))]
				p.submit(pa.node, pa.a.JobID, pa.a.TaskID)
			case 10: // lose an assignment; its lease must expire and refund
				if len(pending) > 0 {
					drop(rng.Intn(len(pending)))
				}
			case 11: // let virtual time pass (expires some leases)
				clk.Sleep(time.Duration(1+rng.Intn(120)) * time.Second)
			}
		}
		// Drain: answer leftovers, then serve every node promptly until
		// the job commits. Liars keep lying; quarantine retires them.
		for len(pending) > 0 && !p.failed {
			pa := drop(rng.Intn(len(pending)))
			p.submit(pa.node, pa.a.JobID, pa.a.TaskID)
		}
		for round := 0; round < 400 && !p.failed; round++ {
			if _, done := h.Done(); done {
				break
			}
			clk.Sleep(3 * time.Minute)
			for n := 1; n <= nodes && !p.failed; n++ {
				for {
					a, ok := b.HandleRequest(&TaskRequest{NodeID: uint64(n)}).(*TaskAssign)
					if !ok {
						break
					}
					p.submit(uint64(n), a.JobID, a.TaskID)
					if p.failed {
						break
					}
				}
			}
		}
		if p.failed {
			return
		}
		if _, done := h.Done(); !done {
			p.t.Errorf("trial %d: job wedged (R=%d maxR=%d liars=%d nodes=%d tasks=%d)",
				trial, repl, maxR, liars, nodes, tasks)
			return
		}
		if got := b.ActiveTasks(); got != 0 {
			p.t.Errorf("trial %d: %d tasks still active after completion", trial, got)
		}
		if got := b.open.Load(); got != 0 {
			p.t.Errorf("trial %d: open count %d after completion", trial, got)
		}
	})
	clk.Wait()
}

func TestQuorumTopUpProperty(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		runQuorumTrial(t, trial, 0x0DDC1+int64(trial)*0x9E3779B9)
		if t.Failed() {
			return
		}
	}
}
