package backend

import (
	"sync"
	"sync/atomic"

	"oddci/internal/span"
)

// Credibility-weighted quorum. Every node carries a trust score in
// integer milli-credits: a fresh node is worth credFullScore, each vote
// counts its holder's score at vote time, and a payload commits when its
// weighted support reaches quorum × credFullScore. With an all-honest
// population every score stays at credFullScore and the weighted
// arithmetic is exactly the old vote counting — the machinery only
// changes outcomes once nodes start losing conflicts.
//
// Scores move at commit time: votes on the committed payload earn
// credWinReward (capped at credFullScore), votes on a losing payload
// halve the holder's score, and an enforce-mode credential rejection
// halves it too. A node falling below Config.quarantineBelow is
// quarantined: its outstanding leases are revoked and refunded, it no
// longer receives dispatches, and its future votes are dropped.
//
// Integer credits, not floats: weighted sums hit the quorum boundary
// exactly, so the commit decision never depends on rounding.
const (
	// credFullScore is a fresh (or fully rehabilitated) node's score.
	credFullScore = 1000
	// credWinReward is earned per committed vote, up to credFullScore.
	credWinReward = 100
	// defaultQuarantineBelow quarantines after two straight losses from
	// full trust (1000 → 500 → 250 < 300).
	defaultQuarantineBelow = 300
)

// nodeTrust is one node's running reputation.
type nodeTrust struct {
	score       int64
	wins        int64
	losses      int64
	rejections  int64 // enforce-mode credential rejections
	quarantined bool
}

// trustTracker holds per-node credibility across every task and shard.
// Its mutex is never held while a shard lock is held (and vice versa):
// vote weights are snapshotted before the shard section, and commit-time
// verdicts are applied after it.
type trustTracker struct {
	seq atomic.Uint64 // credential issue sequence

	mu    sync.Mutex
	nodes map[uint64]*nodeTrust
	// quarCount mirrors the number of quarantined nodes so the dispatch
	// hot path can skip the map lookup entirely while it is zero.
	quarCount atomic.Int64
}

func newTrustTracker() *trustTracker {
	return &trustTracker{nodes: make(map[uint64]*nodeTrust)}
}

// get returns node's entry, creating it at full trust. Called with mu
// held.
func (t *trustTracker) get(node uint64) *nodeTrust {
	nt := t.nodes[node]
	if nt == nil {
		nt = &nodeTrust{score: credFullScore}
		t.nodes[node] = nt
	}
	return nt
}

// weight returns node's current vote weight.
func (t *trustTracker) weight(node uint64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if nt := t.nodes[node]; nt != nil {
		return nt.score
	}
	return credFullScore
}

// quarantined reports whether node is quarantined. The atomic pre-check
// keeps the all-honest path a single load.
func (t *trustTracker) quarantined(node uint64) bool {
	if t == nil || t.quarCount.Load() == 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	nt := t.nodes[node]
	return nt != nil && nt.quarantined
}

// voteWeight returns the weight res-submitting node n's vote should
// carry, credFullScore when credibility tracking is off.
func (b *Backend) voteWeight(n uint64) int64 {
	if b.trust == nil {
		return credFullScore
	}
	return b.trust.weight(n)
}

// quorumWeight is the weighted-support threshold for committing.
func (b *Backend) quorumWeight() int64 {
	return int64(b.cfg.quorum()) * credFullScore
}

// penalize halves node's score (credential rejection or lost conflict)
// and reports whether this crossing quarantined it. Called with mu NOT
// held.
func (t *trustTracker) penalize(node uint64, rejection bool, below int64) (quarantinedNow bool, score int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	nt := t.get(node)
	nt.score /= 2
	if rejection {
		nt.rejections++
	} else {
		nt.losses++
	}
	if !nt.quarantined && below > 0 && nt.score < below {
		nt.quarantined = true
		t.quarCount.Add(1)
		return true, nt.score
	}
	return false, nt.score
}

// reward credits node for a committed vote.
func (t *trustTracker) reward(node uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	nt := t.get(node)
	nt.wins++
	nt.score += credWinReward
	if nt.score > credFullScore {
		nt.score = credFullScore
	}
}

// applyVerdicts settles a committed task's votes: winners earn
// reward, losers are penalized, and any node crossing the quarantine
// threshold is quarantined (leases revoked, metrics and span emitted).
// Called after the committing shard section released its lock.
func (b *Backend) applyVerdicts(winner []byte, votes []vote) {
	if b.trust == nil {
		return
	}
	for _, v := range votes {
		if string(v.payload) == string(winner) {
			b.trust.reward(v.node)
			continue
		}
		b.met.byzLosses.Inc()
		if quarantinedNow, score := b.trust.penalize(v.node, false, b.cfg.quarantineBelow); quarantinedNow {
			b.quarantineNode(v.node, score)
		}
	}
}

// penalizeRejection settles an enforce-mode credential rejection.
func (b *Backend) penalizeRejection(node uint64) {
	if b.trust == nil {
		return
	}
	if quarantinedNow, score := b.trust.penalize(node, true, b.cfg.quarantineBelow); quarantinedNow {
		b.quarantineNode(node, score)
	}
}

// quarantineNode completes a quarantine: counts it, force-records the
// evidence span, and revokes the node's outstanding leases so its
// in-flight slots return to honest nodes instead of wedging their tasks
// until lease expiry.
func (b *Backend) quarantineNode(node uint64, score int64) {
	b.met.byzQuarantines.Inc()
	if b.cfg.Spans != nil {
		// Quarantines are evidence, recorded even when no trace is
		// sampled — same policy as lease-expiry retries.
		b.cfg.Spans.Event(span.Context{}, "quarantine", "backend", "node=%d score=%d", node, score)
	}
	b.revokeLeases(node)
}

// revokeLeases walks every shard and returns node's leased slots to the
// pool: each revoked lease is refunded against the replica budget (like
// an expiry) and requeued if its task still has a deficit. Heap entries
// invalidate lazily, exactly as results do.
func (b *Backend) revokeLeases(node uint64) {
	for _, s := range b.shards {
		s.mu.Lock()
		for _, ts := range s.active {
			if !ts.dropLease(node) {
				continue
			}
			ts.unbindSeq(node)
			ts.launched--
			ts.retries++
			b.met.retried.Inc()
			ts.job.mu.Lock()
			ts.job.redispatch++
			ts.job.mu.Unlock()
			if b.slotDeficitLocked(ts) {
				s.ready.pushBack(ts)
				ts.queued++
				b.met.requeued.Inc()
			}
		}
		s.mu.Unlock()
	}
}

// Quarantined reports whether node is quarantined.
func (b *Backend) Quarantined(node uint64) bool {
	return b.trust.quarantined(node)
}

// QuarantinedCount returns the number of quarantined nodes in O(1).
func (b *Backend) QuarantinedCount() int {
	if b.trust == nil {
		return 0
	}
	return int(b.trust.quarCount.Load())
}
