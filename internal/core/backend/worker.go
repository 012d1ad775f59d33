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
// until the Backend reports the work done or the DVE is destroyed.
func Worker(env *dve.Env) error {
	if env.Backend == nil {
		return nil
	}
	// Propagate the DVE's trace context (the PNA's dve-start span) so the
	// Backend's dispatch span joins this node's wakeup trace. The request
	// never changes and the Backend only reads it, so one serves the run.
	// One result serves it too, rewritten per task: the channel is FIFO,
	// so the Backend has handled a result before it sees the request that
	// follows it, and the worker rewrites the result only after the reply
	// to that request.
	req := &TaskRequest{NodeID: env.NodeID, Trace: env.Trace}
	result := &TaskResult{NodeID: env.NodeID}
	for !env.Destroyed() {
		env.Backend.Send("backend", req, RequestWireSize)
		pkt, err := env.Backend.Recv()
		if err != nil {
			return nil // channel closed: DVE destroyed
		}
		switch m := pkt.Payload.(type) {
		case *TaskAssign:
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
			result.JobID, result.TaskID = m.JobID, m.TaskID
			result.Payload, result.Trace = runPayload(env, m), resTrace
			result.Credential = m.Credential // opaque echo; the Backend verifies
			env.Backend.Send("backend", result, resultOverhead+m.OutputSize)
			env.NoteTaskDone()
		case *NoTask:
			if m.Done {
				return nil
			}
			if !env.Sleep(m.RetryAfter) {
				return nil
			}
		}
	}
	return nil
}

// runPayload produces the task's result payload. Tasks that carry
// concrete work (a BLAST work unit) are actually executed; pure timing
// tasks return nothing.
func runPayload(env *dve.Env, a *TaskAssign) []byte {
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
