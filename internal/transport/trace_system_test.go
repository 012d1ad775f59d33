package transport

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"oddci/internal/core/backend"
	"oddci/internal/span"
	"oddci/internal/workload"
)

// tracedJob builds a job with tiny reference times so task leases are
// dominated by the coordinator's LeaseBase and the fault-injection
// timeline below stays fast.
func tracedJob(t *testing.T, n int) *workload.Job {
	t.Helper()
	g := workload.Generator{Name: "traced", Tasks: n, InputBytes: 64, OutputBytes: 32, MeanSeconds: 0.005}
	j, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// stealTask joins as a traced peer, leases exactly one task, and
// disconnects without reporting a result — the injected fault that
// forces a lease-expiry retry. The request parents under the wakeup
// context so the doomed dispatch (and its retry evidence) lands in the
// deployment's single trace.
func stealTask(t *testing.T, addr string, wakeup span.Context) {
	t.Helper()
	p, err := dialRaw(addr, Hello{Wire: WireVersion, NodeID: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	req := AppendTaskRequest(nil, &backend.TaskRequest{NodeID: 99, Trace: wakeup})
	if err := writeFrame(p.conn, FrameTaskRequest, req); err != nil {
		t.Fatal(err)
	}
	for {
		typ, _, err := p.fr.Next()
		if err != nil {
			t.Fatalf("awaiting stolen assign: %v", err)
		}
		switch typ {
		case FrameTaskAssign:
			return // lease held; the deferred close abandons it
		case FrameNoTask:
			t.Fatal("no task to steal — submit the job before injecting the fault")
		}
	}
}

// TestTraceEndToEndLeaseExpiryRetry is the tentpole acceptance test:
// a fault-injected job over real loopback TCP — two nodes and a peer
// that leases a task and dies — must produce ONE connected causal tree spanning wakeup → join →
// image-load → dispatch → lease-expiry retry → commit.
func TestTraceEndToEndLeaseExpiryRetry(t *testing.T) {
	spans := span.NewCollector(span.Config{Capacity: 8192})
	coord := serveCoordinator(t, CoordinatorConfig{
		Name:            "traced",
		Image:           testImage(),
		HeartbeatPeriod: 5 * time.Second,
		Spans:           spans,
		retryAfter:      20 * time.Millisecond,
		leaseBase:       60 * time.Millisecond,
	})

	const tasks = 6
	h, err := coord.Submit(tracedJob(t, tasks))
	if err != nil {
		t.Fatal(err)
	}
	wakeup := coord.wakeupCtx
	if !wakeup.Valid() || !wakeup.Sampled {
		t.Fatalf("wakeup context not sampled: %+v", wakeup)
	}

	// Fault first, honest workers second: the dying peer must win a
	// lease before the real nodes can drain the queue.
	stealTask(t, coord.Addr(), wakeup)

	var wg sync.WaitGroup
	reports := make([]NodeReport, 2)
	errs := make([]error, 2)
	for i := range reports {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], errs[i] = RunNode(NodeConfig{
				Addr:      coord.Addr(),
				NodeID:    uint64(i + 1),
				TimeScale: 500,
				Seed:      3,
				PinnedKey: coord.PublicKey(),
				Spans:     spans,
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
	}
	if _, done := h.Done(); !done {
		t.Fatal("job incomplete")
	}
	if h.Redispatches() < 1 {
		t.Fatalf("Redispatches = %d, want >= 1 (lease-expiry fault did not fire)", h.Redispatches())
	}
	// Let the session goroutines end their spans before snapshotting.
	coord.Drain(2 * time.Second)

	var tree span.Trace
	found := false
	for _, cand := range spans.Traces() {
		if cand.ID == wakeup.Trace {
			tree, found = cand, true
			break
		}
	}
	if !found {
		t.Fatalf("wakeup trace %s not retained", wakeup.Trace)
	}
	if !tree.Connected() {
		t.Fatalf("trace is not a single connected tree:\n%s", tree.RenderWaterfall())
	}
	if !tree.Retry {
		t.Fatalf("trace does not carry the retry flag:\n%s", tree.RenderWaterfall())
	}
	if tree.Spans[0].Name != "wakeup" {
		t.Fatalf("tree root is %q, want wakeup", tree.Spans[0].Name)
	}

	byName := map[string]int{}
	byNode := map[string]int{}
	for _, d := range tree.Spans {
		byName[d.Name]++
		byNode[d.Node]++
	}
	want := map[string]int{
		"wakeup":       1,         // exactly one root broadcast
		"session":      3,         // two honest nodes + the dying peer
		"join":         2,         // honest nodes only (the peer skips image acquisition)
		"image-load":   2,         //
		"dispatch":     tasks + 1, // every task once, the stolen one twice
		"lease-expiry": 1,         // the injected fault
		"execute":      tasks,     // honest executions (stolen lease never ran)
		"commit":       tasks,     // every task commits exactly once
	}
	for name, n := range want {
		if byName[name] != n {
			t.Errorf("span %q count = %d, want %d", name, byName[name], n)
		}
	}
	if t.Failed() {
		t.Fatalf("tree:\n%s", tree.RenderWaterfall())
	}
	if byNode["node-1"] == 0 || byNode["node-2"] == 0 {
		t.Fatalf("both nodes must appear in the tree: %v", byNode)
	}
	// A join names the wakeup the node admitted, as a PNA's does.
	wantJoin := fmt.Sprintf("instance=%d seq=%d", coord.id, coord.Seq())
	for _, d := range tree.Spans {
		if d.Name == "join" && d.Detail != wantJoin {
			t.Errorf("%s join detail = %q, want %q", d.Node, d.Detail, wantJoin)
		}
	}

	// The retry span must hang off a dispatch span and carry the flag.
	dispatchIDs := map[span.SpanID]bool{}
	for _, d := range tree.Spans {
		if d.Name == "dispatch" {
			dispatchIDs[d.ID] = true
		}
	}
	for _, d := range tree.Spans {
		if d.Name == "lease-expiry" {
			if !dispatchIDs[d.Parent] {
				t.Fatalf("lease-expiry parent %016x is not a dispatch span", uint64(d.Parent))
			}
			if !d.Retry {
				t.Fatal("lease-expiry span lacks the retry flag")
			}
		}
	}

	// The rendered waterfall is what /trace/{id} serves.
	wf, ok := spans.RenderTrace(wakeup.Trace.String())
	if !ok {
		t.Fatal("RenderTrace lost the trace")
	}
	for _, needle := range []string{"wakeup", "lease-expiry", "RETRY", "commit"} {
		if !strings.Contains(wf, needle) {
			t.Fatalf("waterfall missing %q:\n%s", needle, wf)
		}
	}
}

// TestTraceOneSidedCollector pins the graceful-degradation contract: a
// side with a collector paired with a peer that has none completes the
// job, and whatever the traced side records is a whole tree. Nothing is
// negotiated — each side stamps contexts iff it has a collector and
// accepts them either way.
func TestTraceOneSidedCollector(t *testing.T) {
	t.Run("traced-coordinator-untraced-node", func(t *testing.T) {
		spans := span.NewCollector(span.Config{Capacity: 1024})
		coord := serveCoordinator(t, CoordinatorConfig{
			Image:           testImage(),
			HeartbeatPeriod: 5 * time.Second,
			Spans:           spans,
			retryAfter:      20 * time.Millisecond,
		})
		h, err := coord.Submit(tracedJob(t, 4))
		if err != nil {
			t.Fatal(err)
		}
		report, err := RunNode(NodeConfig{
			Addr: coord.Addr(), NodeID: 1, TimeScale: 500, Seed: 3,
			PinnedKey: coord.PublicKey(), // Spans nil: an untraced agent
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, done := h.Done(); !done || report.TasksDone != 4 {
			t.Fatalf("job incomplete: done=%v report=%+v", done, report)
		}
		coord.Drain(2 * time.Second)
		// The coordinator's own spans survive (the node ignored the
		// dispatch contexts it was sent); nothing node-side, and no
		// disconnected fragments — every retained trace is a whole tree.
		traces := spans.Traces()
		if len(traces) == 0 {
			t.Fatal("traced coordinator recorded nothing")
		}
		for _, tr := range traces {
			if !tr.Connected() {
				t.Fatalf("degraded run left a broken tree:\n%s", tr.RenderWaterfall())
			}
			for _, d := range tr.Spans {
				if strings.HasPrefix(d.Node, "node-") {
					t.Fatalf("untraced node grew a span: %+v", d)
				}
			}
		}
	})

	t.Run("untraced-coordinator-traced-node", func(t *testing.T) {
		coord := serveCoordinator(t, CoordinatorConfig{
			Image:           testImage(),
			HeartbeatPeriod: 5 * time.Second, // Spans nil: an untraced coordinator
			retryAfter:      20 * time.Millisecond,
		})
		h, err := coord.Submit(tracedJob(t, 4))
		if err != nil {
			t.Fatal(err)
		}
		spans := span.NewCollector(span.Config{Capacity: 1024})
		report, err := RunNode(NodeConfig{
			Addr: coord.Addr(), NodeID: 1, TimeScale: 500, Seed: 3,
			PinnedKey: coord.PublicKey(), Spans: spans,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, done := h.Done(); !done || report.TasksDone != 4 {
			t.Fatalf("job incomplete: done=%v report=%+v", done, report)
		}
		// No banner context to parent under: the node degrades to
		// untraced rather than inventing orphan roots.
		if started, kept, _ := spans.Stats(); started != 0 || kept != 0 {
			t.Fatalf("traced node against untraced coordinator recorded spans: started=%d kept=%d", started, kept)
		}
	})
}
