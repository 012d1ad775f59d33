package transport

import (
	"testing"
	"time"

	"oddci/internal/core/backend"
	"oddci/internal/obs"
)

var credVerdictCounters = []string{
	"oddci_backend_byzantine_cred_missing_total",
	"oddci_backend_byzantine_cred_forged_total",
	"oddci_backend_byzantine_cred_replayed_total",
	"oddci_backend_byzantine_cred_rejected_total",
}

func credCoordinator(t *testing.T, mode backend.CredentialMode) (*Coordinator, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	coord := serveCoordinator(t, CoordinatorConfig{
		Name:            "cred",
		Image:           testImage(),
		HeartbeatPeriod: 5 * time.Second,
		CredentialMode:  mode,
		Obs:             reg,
	})
	return coord, reg
}

// TestCredentialHonestFleet: in every mode an honest node completes a
// job with zero credential verdicts. Under CredOff nothing is issued
// and the node echoes nothing; under CredWarn and CredEnforce it echoes
// what it was given, and the machinery must be invisible to it.
func TestCredentialHonestFleet(t *testing.T) {
	for _, mode := range []backend.CredentialMode{backend.CredOff, backend.CredWarn, backend.CredEnforce} {
		coord, reg := credCoordinator(t, mode)
		h, err := coord.Submit(testJob(t, 12))
		if err != nil {
			t.Fatal(err)
		}
		report, err := RunNode(NodeConfig{
			Addr: coord.Addr(), NodeID: 1, TimeScale: 200, Seed: 9, PinnedKey: coord.PublicKey(),
		})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if _, done := h.Done(); !done || report.TasksDone != 12 {
			t.Fatalf("mode %d: done=%v report=%+v, want 12 tasks", mode, done, report)
		}
		for _, name := range credVerdictCounters {
			if v, _ := reg.Value(name); v != 0 {
				t.Fatalf("mode %d: %s = %v for an honest fleet", mode, name, v)
			}
		}
	}
}

// TestCredentialEnforceRejectsBareResult: a peer that returns a result
// without the credential its assignment carried is rejected under
// CredEnforce and its slot refunded, so an honest node still completes
// every task.
func TestCredentialEnforceRejectsBareResult(t *testing.T) {
	coord, reg := credCoordinator(t, backend.CredEnforce)
	const tasks = 6
	h, err := coord.Submit(testJob(t, tasks))
	if err != nil {
		t.Fatal(err)
	}
	p, err := dialRaw(coord.Addr(), Hello{Wire: WireVersion, NodeID: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := WriteFrame(p.conn, FrameTaskRequest, AppendTaskRequest(nil, &backend.TaskRequest{NodeID: 99})); err != nil {
		t.Fatal(err)
	}
	var assign backend.TaskAssign
	for assign.Credential == nil {
		typ, payload, err := p.fr.Next()
		if err != nil {
			t.Fatalf("awaiting assign: %v", err)
		}
		if typ != FrameTaskAssign {
			continue // the staged broadcast
		}
		if err := DecodeTaskAssign(payload, &assign); err != nil {
			t.Fatal(err)
		}
		if len(assign.Credential) != backend.CredentialLen {
			t.Fatalf("enforce-mode assign carries a %d-byte credential, want %d", len(assign.Credential), backend.CredentialLen)
		}
	}
	bare := backend.TaskResult{NodeID: 99, JobID: assign.JobID, TaskID: assign.TaskID, Payload: []byte("unsigned")}
	if err := WriteFrame(p.conn, FrameTaskResult, AppendTaskResult(nil, &bare)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the bare result's rejection", func() bool {
		v, _ := reg.Value("oddci_backend_byzantine_cred_rejected_total")
		return v == 1
	})
	if v, _ := reg.Value("oddci_backend_byzantine_cred_missing_total"); v != 1 {
		t.Fatalf("cred missing counter = %v, want 1", v)
	}
	if h.Redispatches() != 1 {
		t.Fatalf("Redispatches = %d, want 1 (the rejected slot refunded)", h.Redispatches())
	}

	report, err := RunNode(NodeConfig{
		Addr: coord.Addr(), NodeID: 1, TimeScale: 200, Seed: 9, PinnedKey: coord.PublicKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, done := h.Done(); !done || report.TasksDone != tasks {
		t.Fatalf("done=%v report=%+v, want the honest node to run all %d tasks", done, report, tasks)
	}
}
