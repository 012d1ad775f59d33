package backend

import (
	"testing"
	"time"

	"oddci/internal/obs"
	"oddci/internal/simtime"
)

// counter reads a registry counter, defaulting to 0.
// credibility returns node's current score in milli-credits
// (credFullScore = full trust). Untracked deployments and unseen nodes
// report full trust.
func (b *Backend) credibility(node uint64) int64 {
	if b.trust == nil {
		return credFullScore
	}
	return b.trust.weight(node)
}

func counter(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	v, _ := reg.Value(name)
	return v
}

// TestQuarantineLifecycle drives one liar through the full credibility
// arc: conflict losses halve its score, the second loss quarantines it
// (outstanding lease revoked, dispatch refuses it, late votes dropped),
// and the job still commits only honest results.
func TestQuarantineLifecycle(t *testing.T) {
	const liar = uint64(4)
	clk := simtime.NewSim(epoch)
	reg := obs.NewRegistry()
	b, err := New(Config{Clock: clk, Replication: 3, Obs: reg,
		RetryAfter: 5 * time.Second, LeaseBase: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.Submit(mkJob(t, 4, 1))
	if err != nil {
		t.Fatal(err)
	}

	// The liar grabs one slot of every task, answers the first three
	// wrong, and sits on the fourth lease.
	var assigns []*TaskAssign
	for {
		a, ok := b.HandleRequest(&TaskRequest{NodeID: liar}).(*TaskAssign)
		if !ok {
			break
		}
		assigns = append(assigns, a)
	}
	if len(assigns) != 4 {
		t.Fatalf("liar leased %d tasks, want 4", len(assigns))
	}
	for _, a := range assigns[:3] {
		b.HandleResult(&TaskResult{NodeID: liar, JobID: a.JobID, TaskID: a.TaskID,
			Payload: []byte("WRONG")})
	}
	if got := b.credibility(liar); got != credFullScore {
		t.Fatalf("scores moved before any commit: %d", got)
	}

	// Honest pairs commit the wrong-voted tasks one by one (a result
	// does not need a lease, so commit order is deterministic here):
	// each conflicted commit halves the liar — 1000 → 500 → 250
	// (quarantined, fourth lease revoked) → 125.
	for i, a := range assigns[:3] {
		for n := uint64(1); n <= 2; n++ {
			b.HandleResult(&TaskResult{NodeID: n, JobID: a.JobID, TaskID: a.TaskID,
				Payload: []byte("ok")})
		}
		if want := []int64{500, 250, 125}[i]; b.credibility(liar) != want {
			t.Fatalf("liar credibility after loss %d = %d, want %d", i+1, b.credibility(liar), want)
		}
	}
	// The fourth task never saw the liar's vote; honest votes finish it.
	for n := uint64(1); n <= 2; n++ {
		b.HandleResult(&TaskResult{NodeID: n, JobID: assigns[3].JobID,
			TaskID: assigns[3].TaskID, Payload: []byte("ok")})
	}
	if _, done := h.Done(); !done {
		t.Fatal("job did not complete around the quarantined liar")
	}
	for id, payload := range h.Results() {
		if string(payload) != "ok" {
			t.Fatalf("task %d committed %q", id, payload)
		}
	}
	if got := b.credibility(liar); got != 125 {
		t.Fatalf("liar credibility = %d, want 125 after three losses", got)
	}
	if !b.Quarantined(liar) || b.Quarantined(1) {
		t.Fatalf("quarantine flags wrong: liar=%t honest=%t", b.Quarantined(liar), b.Quarantined(1))
	}
	if got := b.QuarantinedCount(); got != 1 {
		t.Fatalf("QuarantinedCount = %d", got)
	}
	if got := b.credibility(1); got != credFullScore {
		t.Fatalf("honest winner credibility = %d, want full", got)
	}
	// The liar's fourth lease was revoked at quarantine time (the only
	// redispatch possible here: sim time never advanced, so no lease
	// could expire on its own).
	if got := h.Redispatches(); got != 1 {
		t.Fatalf("redispatches = %d, want exactly the quarantine revocation", got)
	}
	if got := counter(t, reg, "oddci_backend_byzantine_quarantines_total"); got != 1 {
		t.Fatalf("quarantine counter = %v", got)
	}
	if got := counter(t, reg, "oddci_backend_byzantine_vote_losses_total"); got < 3 {
		t.Fatalf("vote losses counter = %v, want >= 3", got)
	}

	// Exclusion: the liar polls but never gets work, and a late vote
	// from it is dropped on the floor.
	if _, ok := b.HandleRequest(&TaskRequest{NodeID: liar}).(*NoTask); !ok {
		t.Fatal("quarantined node was dispatched work")
	}
	b.HandleResult(&TaskResult{NodeID: liar, JobID: assigns[3].JobID,
		TaskID: assigns[3].TaskID, Payload: []byte("WRONG")})
	if got := counter(t, reg, "oddci_backend_byzantine_votes_dropped_total"); got != 1 {
		t.Fatalf("votes dropped counter = %v", got)
	}
}

// TestRewardCapsAtFullScore: winners earn credWinReward per committed
// vote but never exceed full trust.
func TestRewardCapsAtFullScore(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := newReplicatedBackend(t, clk, 3)
	h, err := b.Submit(mkJob(t, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, done := h.Done(); done {
			break
		}
		runVoters(b, []uint64{1, 2, 3}, func(uint64) []byte { return []byte("ok") })
	}
	if _, done := h.Done(); !done {
		t.Fatal("job incomplete")
	}
	for n := uint64(1); n <= 3; n++ {
		if got := b.credibility(n); got != credFullScore {
			t.Fatalf("node %d credibility = %d after all-honest commits", n, got)
		}
	}
}

// TestCredentialVerdictsAndEnforcement covers the four verdicts against
// a live backend: a clean echo commits, a missing echo counts, a forged
// one is rejected with a credibility penalty, and a genuine token echoed
// for the wrong slot reads as a replay.
func TestCredentialVerdictsAndEnforcement(t *testing.T) {
	secret := []byte("0123456789abcdef0123456789abcdef")
	clk := simtime.NewSim(epoch)
	reg := obs.NewRegistry()
	b, err := New(Config{Clock: clk, CredentialMode: CredEnforce, Obs: reg,
		CredentialSecret: secret, RetryAfter: 5 * time.Second, LeaseBase: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.Submit(mkJob(t, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	grab := func(node uint64) *TaskAssign {
		t.Helper()
		a, ok := b.HandleRequest(&TaskRequest{NodeID: node}).(*TaskAssign)
		if !ok {
			t.Fatal("no assignment")
		}
		if len(a.Credential) != CredentialLen {
			t.Fatalf("assignment credential %d bytes", len(a.Credential))
		}
		return a
	}

	// Clean echo commits.
	a := grab(1)
	b.HandleResult(&TaskResult{NodeID: 1, JobID: a.JobID, TaskID: a.TaskID,
		Payload: []byte("ok"), Credential: a.Credential})
	if got := h.Results()[a.TaskID]; string(got) != "ok" {
		t.Fatalf("clean echo did not commit: %q", got)
	}

	// Missing credential: rejected in enforce mode, sender penalized.
	a = grab(2)
	b.HandleResult(&TaskResult{NodeID: 2, JobID: a.JobID, TaskID: a.TaskID,
		Payload: []byte("ok")})
	if _, committed := h.Results()[a.TaskID]; committed {
		t.Fatal("missing credential committed in enforce mode")
	}
	if got := counter(t, reg, "oddci_backend_byzantine_cred_missing_total"); got != 1 {
		t.Fatalf("cred missing counter = %v", got)
	}
	if got := b.credibility(2); got != credFullScore/2 {
		t.Fatalf("credibility after rejection = %d, want %d", got, credFullScore/2)
	}

	// Forged: flip one MAC byte.
	a = grab(3)
	forged := append([]byte(nil), a.Credential...)
	forged[CredentialLen-1] ^= 1
	b.HandleResult(&TaskResult{NodeID: 3, JobID: a.JobID, TaskID: a.TaskID,
		Payload: []byte("ok"), Credential: forged})
	if got := counter(t, reg, "oddci_backend_byzantine_cred_forged_total"); got != 1 {
		t.Fatalf("cred forged counter = %v", got)
	}

	// Replayed: a genuine MAC bound to another node's slot.
	a = grab(5)
	stolen := mintCredential(nil, secret, 999, 1, a.JobID, a.TaskID)
	b.HandleResult(&TaskResult{NodeID: 5, JobID: a.JobID, TaskID: a.TaskID,
		Payload: []byte("ok"), Credential: stolen})
	if got := counter(t, reg, "oddci_backend_byzantine_cred_replayed_total"); got != 1 {
		t.Fatalf("cred replayed counter = %v", got)
	}
	if got := counter(t, reg, "oddci_backend_byzantine_cred_rejected_total"); got != 3 {
		t.Fatalf("cred rejected counter = %v, want 3", got)
	}

	// Rejected slots were refunded: honest echoes still finish the job.
	for i := 0; i < 16; i++ {
		if _, done := h.Done(); done {
			break
		}
		for n := uint64(6); n <= 9; n++ {
			a, ok := b.HandleRequest(&TaskRequest{NodeID: n}).(*TaskAssign)
			if !ok {
				continue
			}
			b.HandleResult(&TaskResult{NodeID: n, JobID: a.JobID, TaskID: a.TaskID,
				Payload: []byte("ok"), Credential: a.Credential})
		}
	}
	if _, done := h.Done(); !done {
		t.Fatal("job incomplete after credential rejections")
	}
}

// TestCredentialWarnModeAccepts: warn mode verifies and counts but the
// vote still lands — and a generated secret (none injected) works.
func TestCredentialWarnModeAccepts(t *testing.T) {
	clk := simtime.NewSim(epoch)
	reg := obs.NewRegistry()
	b, err := New(Config{Clock: clk, CredentialMode: CredWarn, Obs: reg,
		RetryAfter: 5 * time.Second, LeaseBase: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.Submit(mkJob(t, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := b.HandleRequest(&TaskRequest{NodeID: 1}).(*TaskAssign)
	if !ok {
		t.Fatal("no assignment")
	}
	b.HandleResult(&TaskResult{NodeID: 1, JobID: a.JobID, TaskID: a.TaskID,
		Payload: []byte("ok")}) // pre-credential node: no echo
	if _, done := h.Done(); !done {
		t.Fatal("warn mode refused a missing credential")
	}
	if got := counter(t, reg, "oddci_backend_byzantine_cred_missing_total"); got != 1 {
		t.Fatalf("cred missing counter = %v", got)
	}
	if got := counter(t, reg, "oddci_backend_byzantine_cred_rejected_total"); got != 0 {
		t.Fatalf("warn mode rejected %v votes", got)
	}
	if got := b.credibility(1); got != credFullScore {
		t.Fatalf("warn mode penalized credibility to %d", got)
	}
}
