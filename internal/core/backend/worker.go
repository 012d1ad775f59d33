package backend

import (
	"oddci/internal/core/dve"
)

// WorkerEntryPoint is the image entry point of the generic bag-of-tasks
// worker, registered on every node's DVE registry by the system wiring.
const WorkerEntryPoint = "oddci.worker"

// Worker is the paper's "client module": the application that runs
// inside a DVE, pulling tasks from the Backend over the direct channel,
// executing them on the device CPU, and pushing results back. It runs
// until the Backend reports the work done or the DVE is destroyed. Both
// deployment planes run it: over a netsim endpoint, and over the TCP
// node's framed connection.
//
// Request window: after a task that takes no device time the worker
// keeps up to LeaseSlack requests unanswered, so it asks for its next
// tasks before it is answered; after any other task it keeps one, and a
// request follows each result. A NoTask closes the window to one and
// backs off only when no request is outstanding.
func Worker(env *dve.Env) error {
	if env.Backend == nil {
		return nil
	}
	// Propagate the DVE's trace context (the PNA's dve-start span) so the
	// Backend's dispatch span joins this node's wakeup trace. The request
	// never changes and the Backend only reads it, so one serves the run.
	//
	// Results rotate through LeaseSlack slots, rewritten per task. The
	// channel is FIFO and at most LeaseSlack requests are out, so the
	// assignment that reuses a slot answers a request sent after the
	// slot's last result: the Backend has handled that result by then.
	req := &TaskRequest{NodeID: env.NodeID, Trace: env.Trace}
	results := new([LeaseSlack]TaskResult)
	window, inflight, next := 1, 0, 0
	for !env.Destroyed() {
		for ; inflight < window; inflight++ {
			env.Backend.Send("backend", req, RequestWireSize)
		}
		pkt, err := env.Backend.Recv()
		if err != nil {
			return nil // channel closed: DVE destroyed
		}
		switch m := pkt.Payload.(type) {
		case *TaskAssign:
			inflight--
			window = 1
			if env.Duration(m.RefSeconds) <= 0 {
				window = LeaseSlack
			}
			if !env.Execute(m.RefSeconds) {
				return nil // destroyed mid-task: result discarded
			}
			// The result parents under the dispatch that assigned it,
			// falling back to the DVE context against traced backends
			// reached through an untraced relay.
			resTrace := m.Trace
			if !resTrace.Valid() {
				resTrace = env.Trace
			}
			result := &results[next]
			next = (next + 1) % LeaseSlack
			result.NodeID, result.JobID, result.TaskID = env.NodeID, m.JobID, m.TaskID
			result.Payload, result.Trace = runPayload(m), resTrace
			result.Credential = m.Credential // opaque echo; the Backend verifies
			env.Backend.Send("backend", result, resultOverhead+m.OutputSize)
			env.NoteTaskDone()
		case *NoTask:
			inflight--
			if m.Done {
				return nil
			}
			window = 1
			if inflight == 0 && !env.Sleep(m.RetryAfter) {
				return nil
			}
		}
	}
	return nil
}

// runPayload produces the task's result payload. Tasks that carry
// concrete work (a BLAST work unit) are actually executed; pure timing
// tasks return nothing.
func runPayload(a *TaskAssign) []byte {
	if len(a.Payload) == 0 {
		return nil
	}
	return RunConcrete(a.Payload)
}

// RunConcrete executes a concrete task payload if a handler is
// registered. The default understands nothing and echoes nil; the blast
// farm example installs a handler. Kept as a package variable so the
// simulator does not depend on application packages.
var RunConcrete = func(payload []byte) []byte { return nil }
