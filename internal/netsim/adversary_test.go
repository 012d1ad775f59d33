package netsim

import (
	"bytes"
	"testing"
	"time"

	"oddci/internal/obs"
	"oddci/internal/simtime"
)

func planWith(cfg AdversaryConfig) *AdversaryPlan { return NewAdversaryPlan(cfg) }

// TestAdversaryBehaviorDeterministic: behavior assignment is a pure
// function of (Seed, node) — two plans with the same seed agree on every
// node, a reseeded plan reshuffles, and Fraction 0 (or a nil plan) is
// all-honest.
func TestAdversaryBehaviorDeterministic(t *testing.T) {
	a := planWith(AdversaryConfig{Seed: 42, Fraction: 0.4})
	b := planWith(AdversaryConfig{Seed: 42, Fraction: 0.4})
	c := planWith(AdversaryConfig{Seed: 43, Fraction: 0.4})
	byz, differs := 0, false
	for n := uint64(1); n <= 400; n++ {
		if a.Behavior(n) != b.Behavior(n) {
			t.Fatalf("same seed disagrees on node %d", n)
		}
		if a.Behavior(n) != c.Behavior(n) {
			differs = true
		}
		if a.IsByzantine(n) {
			byz++
		}
	}
	if !differs {
		t.Fatal("reseeding did not reshuffle behaviors")
	}
	// ~40% of 400 draws; loose 3-sigma-ish band.
	if byz < 120 || byz > 200 {
		t.Fatalf("byzantine count %d/400 far from fraction 0.4", byz)
	}
	honest := planWith(AdversaryConfig{Seed: 42})
	var nilPlan *AdversaryPlan
	for n := uint64(1); n <= 50; n++ {
		if honest.Behavior(n) != Honest || nilPlan.Behavior(n) != Honest {
			t.Fatal("zero-fraction or nil plan assigned a misbehavior")
		}
	}
	for _, b := range []Behavior{Honest, WrongResult, FlipFlop, ReplayCred, ForgeCred, Collude, Behavior(99)} {
		if b.String() == "" {
			t.Fatalf("behavior %d has no name", b)
		}
	}
}

// TestAdversaryShouldLie: WrongResult and Collude lie on every draw;
// FlipFlop stays honest for its configured streak and then turns.
func TestAdversaryShouldLie(t *testing.T) {
	pick := func(p *AdversaryPlan, want Behavior) uint64 {
		for n := uint64(1); n < 4000; n++ {
			if p.Behavior(n) == want {
				return n
			}
		}
		t.Fatalf("no node drew behavior %v", want)
		return 0
	}
	p := planWith(AdversaryConfig{Seed: 7, Fraction: 0.9, flipFlopHonest: 3})
	wrong, flip := pick(p, WrongResult), pick(p, FlipFlop)
	for i := 0; i < 5; i++ {
		if !p.ShouldLie(wrong) {
			t.Fatal("WrongResult skipped a lie")
		}
	}
	for i := 0; i < 3; i++ {
		if p.ShouldLie(flip) {
			t.Fatalf("FlipFlop lied during its honest streak (submission %d)", i+1)
		}
	}
	for i := 0; i < 4; i++ {
		if !p.ShouldLie(flip) {
			t.Fatal("FlipFlop stayed honest after its streak")
		}
	}
	draws, lies := p.Stats()
	if draws != 12 || lies != 9 {
		t.Fatalf("stats = (%d, %d), want (12, 9)", draws, lies)
	}
}

// TestAdversaryWrongPayload: independent liars never agree, colluding
// group members agree exactly, and the payload varies by (job, task).
func TestAdversaryWrongPayload(t *testing.T) {
	p := planWith(AdversaryConfig{Seed: 9, Fraction: 1,
		behaviors: []Behavior{Collude}, colludeGroup: 2})
	// Groups are ID-adjacent blocks: {2k, 2k+1}.
	if !bytes.Equal(p.WrongPayload(4, 1, 2), p.WrongPayload(5, 1, 2)) {
		t.Fatal("colluding group members disagree")
	}
	if bytes.Equal(p.WrongPayload(4, 1, 2), p.WrongPayload(6, 1, 2)) {
		t.Fatal("distinct colluding groups agree")
	}
	if bytes.Equal(p.WrongPayload(4, 1, 2), p.WrongPayload(4, 1, 3)) {
		t.Fatal("payload constant across tasks")
	}
	ind := planWith(AdversaryConfig{Seed: 9, Fraction: 1,
		behaviors: []Behavior{WrongResult}})
	if bytes.Equal(ind.WrongPayload(4, 1, 2), ind.WrongPayload(5, 1, 2)) {
		t.Fatal("independent liars agree")
	}
	if !bytes.Equal(ind.WrongPayload(4, 1, 2), ind.WrongPayload(4, 1, 2)) {
		t.Fatal("WrongPayload is not a pure function")
	}
}

// TestAdversaryCredentialMutations: ForgeCredential corrupts a copy
// (never the original buffer) or fabricates bytes from nothing;
// ReplayCredential passes the first token through and replays it on
// every later submission.
func TestAdversaryCredentialMutations(t *testing.T) {
	p := planWith(AdversaryConfig{Seed: 5, Fraction: 1})
	orig := bytes.Repeat([]byte{0x5A}, 64)
	forged := p.ForgeCredential(1, orig)
	if bytes.Equal(forged, orig) {
		t.Fatal("forgery returned the genuine token")
	}
	if !bytes.Equal(orig, bytes.Repeat([]byte{0x5A}, 64)) {
		t.Fatal("forgery mutated the caller's buffer")
	}
	if len(forged) != 64 {
		t.Fatalf("forged token is %d bytes", len(forged))
	}
	if fab := p.ForgeCredential(2, nil); len(fab) != 64 {
		t.Fatalf("fabricated token is %d bytes", len(fab))
	}

	first := bytes.Repeat([]byte{0x01}, 64)
	second := bytes.Repeat([]byte{0x02}, 64)
	if got := p.ReplayCredential(3, first); !bytes.Equal(got, first) {
		t.Fatal("first submission was not passed through clean")
	}
	if got := p.ReplayCredential(3, second); !bytes.Equal(got, first) {
		t.Fatal("later submission did not replay the stored token")
	}
	_, lies := p.Stats()
	if lies != 3 { // two forgeries + one replay; the clean pass-through is no lie
		t.Fatalf("lies = %d, want 3", lies)
	}
}

// TestAdversarySendHook: the Endpoint seam rewrites and suppresses
// outgoing payloads without the sender's code knowing.
func TestAdversarySendHook(t *testing.T) {
	clk := simtime.NewSim(time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC))
	cfg := LinkConfig{RateBps: 1e6}
	a, b := NewDuplex(clk, "node", "backend", cfg, cfg)
	a.SendHook = func(to string, payload any) (any, bool) {
		s, _ := payload.(string)
		if s == "drop-me" {
			return nil, false
		}
		return s + "-mutated", true
	}
	var got []string
	clk.Go(func() {
		a.Send("backend", "drop-me", 16)
		a.Send("backend", "hello", 16)
		pkt, err := b.Recv()
		if err != nil {
			return
		}
		got = append(got, pkt.Payload.(string))
		a.Close()
		b.Close()
	})
	clk.Wait()
	if len(got) != 1 || got[0] != "hello-mutated" {
		t.Fatalf("hook delivered %v, want [hello-mutated]", got)
	}
}

// TestAdversaryInstrument: the ops/lies gauges follow Stats.
func TestAdversaryInstrument(t *testing.T) {
	p := planWith(AdversaryConfig{Seed: 11, Fraction: 1, behaviors: []Behavior{WrongResult}})
	reg := obs.NewRegistry()
	p.Instrument(reg, "adversary")
	p.Instrument(nil, "ignored") // nil registry is a no-op
	for n := uint64(1); n <= 3; n++ {
		p.ShouldLie(n)
	}
	if v, ok := reg.Value("oddci_netsim_adversary_ops"); !ok || v != 3 {
		t.Fatalf("ops gauge = %v ok=%v", v, ok)
	}
	if v, ok := reg.Value("oddci_netsim_adversary_lies"); !ok || v != 3 {
		t.Fatalf("lies gauge = %v ok=%v", v, ok)
	}
}
