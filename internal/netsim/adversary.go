package netsim

import (
	"encoding/binary"
	"sync"

	"oddci/internal/obs"
)

// Byzantine node models. An AdversaryPlan deterministically assigns a
// misbehavior to a fraction of the node population and supplies the
// seeded streams those nodes draw their lies from. The plan is
// payload-agnostic: it decides WHO lies, WHEN, and WITH WHAT BYTES,
// while the system wiring (which knows the task-plane message types)
// applies the mutation on the wire through Endpoint.SendHook. That keeps
// netsim free of application imports and keeps the node's own code
// honest — a byzantine node runs the stock worker; only its uplink lies.
//
// Determinism: every decision is a pure function of (Seed, node) — or of
// (Seed, node, job, task) for payload bytes — through SplitMix64
// streams, so runs replay bit-identically regardless of goroutine
// interleaving, exactly like the fleet engine's per-node streams.

// Behavior is one node's assigned misbehavior.
type Behavior int

// Behaviors. Honest nodes pass traffic through untouched.
const (
	// Honest submits exactly what the worker computed.
	Honest Behavior = iota
	// WrongResult always substitutes node-specific garbage for the
	// result payload. Independent liars never agree with each other.
	WrongResult
	// FlipFlop builds a streak of honest results first (earning full
	// credibility), then turns and submits garbage forever — the
	// reputation-milking adversary.
	FlipFlop
	// ReplayCred echoes the first genuine credential it was ever issued
	// on every later submission: a valid token presented for the wrong
	// slot. The payload stays honest, so only credential verification
	// can catch it.
	ReplayCred
	// ForgeCred corrupts the credential bytes (or fabricates them when
	// none were issued) while keeping the payload honest.
	ForgeCred
	// Collude submits the same garbage as the other members of its
	// group, trying to assemble a lying quorum. Groups are ID-adjacent
	// blocks of colludeGroup nodes, so the group size — and therefore
	// the maximum agreeing-liar weight — is structurally capped.
	Collude
)

// String names the behavior for reports and test output.
func (b Behavior) String() string {
	switch b {
	case Honest:
		return "honest"
	case WrongResult:
		return "wrong-result"
	case FlipFlop:
		return "flip-flop"
	case ReplayCred:
		return "replay-cred"
	case ForgeCred:
		return "forge-cred"
	case Collude:
		return "collude"
	}
	return "unknown"
}

// AdversaryConfig parameterizes a plan.
type AdversaryConfig struct {
	// Seed drives every stream; equal seeds replay identical adversaries.
	Seed uint64
	// Fraction is the per-node probability of being byzantine.
	Fraction float64
	// behaviors is the misbehavior pool byzantine nodes draw from.
	// Empty means all non-honest behaviors.
	behaviors []Behavior
	// flipFlopHonest is the honest streak before a FlipFlop node turns
	// (0 = default 2).
	flipFlopHonest int
	// colludeGroup is the colluding group size (0 = default 2). Groups
	// are blocks of adjacent node IDs, so no group can exceed this.
	colludeGroup int
}

// adversaryNode is one byzantine node's mutable state.
type adversaryNode struct {
	behavior  Behavior
	submitted int64  // results drawn through ShouldLie
	firstCred []byte // ReplayCred: the stored genuine token
}

// AdversaryPlan assigns behaviors and supplies lie streams. Safe for
// concurrent use by every node's send path.
type AdversaryPlan struct {
	cfg AdversaryConfig

	mu    sync.Mutex
	nodes map[uint64]*adversaryNode
	draws int64 // results inspected
	lies  int64 // results mutated
}

// allBehaviors is the default misbehavior pool.
var allBehaviors = []Behavior{WrongResult, FlipFlop, ReplayCred, ForgeCred, Collude}

// NewAdversaryPlan builds a plan; Fraction 0 yields an all-honest plan
// that passes everything through.
func NewAdversaryPlan(cfg AdversaryConfig) *AdversaryPlan {
	if len(cfg.behaviors) == 0 {
		cfg.behaviors = allBehaviors
	}
	if cfg.flipFlopHonest <= 0 {
		cfg.flipFlopHonest = 2
	}
	if cfg.colludeGroup <= 0 {
		cfg.colludeGroup = 2
	}
	return &AdversaryPlan{cfg: cfg, nodes: make(map[uint64]*adversaryNode)}
}

// nodeStream seeds node's SplitMix64 stream (same derivation as the
// fleet engine's per-node streams).
func (p *AdversaryPlan) nodeStream(node uint64) uint64 {
	return p.cfg.Seed*0xD1342543DE82EF95 + (node+1)*0x9E3779B97F4A7C15
}

// splitmix64 advances s and returns the next draw.
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Behavior returns node's assigned behavior: a pure function of
// (Seed, node).
func (p *AdversaryPlan) Behavior(node uint64) Behavior {
	if p == nil || p.cfg.Fraction <= 0 {
		return Honest
	}
	s := p.nodeStream(node)
	u := float64(splitmix64(&s)>>11) / (1 << 53)
	if u >= p.cfg.Fraction {
		return Honest
	}
	return p.cfg.behaviors[splitmix64(&s)%uint64(len(p.cfg.behaviors))]
}

// IsByzantine reports whether node was assigned a misbehavior.
func (p *AdversaryPlan) IsByzantine(node uint64) bool {
	return p.Behavior(node) != Honest
}

// get returns node's state entry. Called with mu held.
func (p *AdversaryPlan) get(node uint64) *adversaryNode {
	an := p.nodes[node]
	if an == nil {
		an = &adversaryNode{behavior: p.Behavior(node)}
		p.nodes[node] = an
	}
	return an
}

// ShouldLie draws one result submission for node and reports whether its
// payload should be replaced. WrongResult and Collude always lie;
// FlipFlop lies only after its honest streak.
func (p *AdversaryPlan) ShouldLie(node uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.draws++
	an := p.get(node)
	an.submitted++
	switch an.behavior {
	case WrongResult, Collude:
		p.lies++
		return true
	case FlipFlop:
		if an.submitted > int64(p.cfg.flipFlopHonest) {
			p.lies++
			return true
		}
	}
	return false
}

// WrongPayload returns the garbage payload node submits for (job, task):
// per-node bytes for independent liars, per-group bytes for colluders so
// the group genuinely agrees. Pure function — no state advances.
func (p *AdversaryPlan) WrongPayload(node uint64, job, task int) []byte {
	key := node
	if p.Behavior(node) == Collude {
		key = node / uint64(p.cfg.colludeGroup) // ID-adjacent block
		key = ^key                              // never collides with a node-keyed stream
	}
	s := p.nodeStream(key) ^ uint64(int64(job))*0xBF58476D1CE4E5B9 ^ uint64(int64(task))*0x94D049BB133111EB
	return binary.BigEndian.AppendUint64(nil, splitmix64(&s))
}

// ForgeCredential returns a corrupted copy of cred — a bit flipped in
// the MAC — or a fabricated token when none was issued. The original
// slice is never modified (it may be the assign's own buffer).
func (p *AdversaryPlan) ForgeCredential(node uint64, cred []byte) []byte {
	p.mu.Lock()
	p.draws++
	p.lies++
	p.mu.Unlock()
	if len(cred) == 0 {
		s := p.nodeStream(node)
		out := make([]byte, 0, 64)
		for i := 0; i < 8; i++ {
			out = binary.BigEndian.AppendUint64(out, splitmix64(&s))
		}
		return out
	}
	out := append([]byte(nil), cred...)
	out[len(out)-1] ^= 0x01
	return out
}

// ReplayCredential stores node's first genuine credential and echoes it
// on every later call: submission 1 is clean, every subsequent one
// presents a stale-but-valid token.
func (p *AdversaryPlan) ReplayCredential(node uint64, cred []byte) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.draws++
	an := p.get(node)
	if an.firstCred == nil {
		an.firstCred = append([]byte(nil), cred...)
		return cred
	}
	p.lies++
	return append([]byte(nil), an.firstCred...)
}

// Stats reports results inspected and results mutated.
func (p *AdversaryPlan) Stats() (draws, lies int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draws, p.lies
}

// Instrument exposes the plan's draw and lie counts as gauges named
// oddci_netsim_<label>_ops and oddci_netsim_<label>_lies.
func (p *AdversaryPlan) Instrument(reg *obs.Registry, label string) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("oddci_netsim_"+label+"_ops", "Result submissions inspected by the "+label+" adversary plan", func() float64 {
		ops, _ := p.Stats()
		return float64(ops)
	})
	reg.GaugeFunc("oddci_netsim_"+label+"_lies", "Result submissions mutated by the "+label+" adversary plan", func() float64 {
		_, lies := p.Stats()
		return float64(lies)
	})
}
