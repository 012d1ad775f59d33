package fleet

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"oddci/internal/federation"
	"oddci/internal/simtime"
)

// ShardedConfig runs a fleet simulation with the PNA population split
// over federated coordinator shards by consistent hashing, optionally
// killing one shard's coordinator mid-ramp and recovering it later via
// journal failover.
//
// The node dynamics are exactly those of the plain engine: a dead
// coordinator does not touch the broadcast plane, so nodes keep
// loading, joining and churning regardless. What the overlay adds is
// each coordinator's *view* of its slice — updated by heartbeat
// consolidation while the shard is up, frozen during its outage, and
// snapped back to the truth at recovery when the rebuilt controller
// re-adopts members inside the heartbeat grace window. The gates encode
// the federation's correctness claims at population scale: one wakeup
// broadcast per shard and none at recovery (zero duplicate wakeups),
// and zero lost nodes once every shard's view is reconciled.
type ShardedConfig struct {
	Config
	// Shards is the coordinator shard count (required, <= 64).
	Shards int
	// KillShard, when >= 0, crashes that shard's coordinator KillAfter
	// after the wakeup and rebuilds it RecoverAfter later.
	KillShard    int
	KillAfter    time.Duration
	RecoverAfter time.Duration
}

// ShardSample is one per-shard reconciliation sample: the coordinator
// views vs the ground truth, summed over all live shards, plus the
// frozen divergence on the killed shard.
type ShardSample struct {
	T            float64 `json:"t"`
	LiveMismatch int     `json:"live_mismatch"` // sum |view-truth| over up shards
	DownLag      int     `json:"down_lag"`      // |view-truth| on the down shard
}

// ShardedResult extends Result with the federation overlay's outcome.
type ShardedResult struct {
	*Result
	Shards           int           `json:"shards"`
	MaxOwnershipSkew float64       `json:"max_ownership_skew"` // max shard pop / uniform
	WakeupBroadcasts int           `json:"wakeup_broadcasts"`
	KilledShard      int           `json:"killed_shard"` // -1: no kill
	KillAtSeconds    float64       `json:"kill_at_seconds"`
	RecoverAtSeconds float64       `json:"recover_at_seconds"`
	Readopted        int           `json:"readopted"`  // members re-adopted at recovery
	LostNodes        int           `json:"lost_nodes"` // sum |view-truth| at window end
	PeakDownLag      int           `json:"peak_down_lag"`
	ViewSamples      []ShardSample `json:"view_samples"`
}

// Validate layers the federation gates on the plain fleet bounds.
func (r *ShardedResult) Validate() error {
	if err := r.Result.Validate(); err != nil {
		return err
	}
	if r.WakeupBroadcasts != r.Shards {
		return fmt.Errorf("fleet: %d wakeup broadcasts for %d shards (recovery re-aired?)",
			r.WakeupBroadcasts, r.Shards)
	}
	if r.LostNodes != 0 {
		return fmt.Errorf("fleet: %d nodes lost between coordinator views and truth", r.LostNodes)
	}
	for _, s := range r.ViewSamples {
		if s.LiveMismatch != 0 {
			return fmt.Errorf("fleet: live shard view diverged from truth at t=%.1fs (%d nodes)",
				s.T, s.LiveMismatch)
		}
	}
	if r.KilledShard >= 0 && r.Readopted == 0 {
		return errors.New("fleet: failover re-adopted no members")
	}
	return nil
}

// Sharded-overlay sentinel ids. Heartbeat cohorts occupy
// [idCohortBase-maxCohorts+1, idCohortBase] = [-259, -4]; the overlay
// sits safely below that range.
const (
	idShardKill    int32 = -300
	idShardRecover int32 = -301
	idShardSample  int32 = -302
)

const (
	shardSamples = 32
	maxShards    = 64
)

// RunSharded executes one sharded fleet simulation.
func RunSharded(cfg ShardedConfig) (*ShardedResult, error) {
	r, err := play(cfg, true, sweepRanges(cfg.Nodes))
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// shardPlan is the overlay's part of a run's plan: what every range
// reads, plus the node→shard map, which each range fills for its own
// nodes.
type shardPlan struct {
	ring        *federation.Ring
	shards      int
	killShard   int // -1: no kill
	killTick    int64
	recoverTick int64
	sampleTicks []int64
	shardOf     []uint8
}

// newShardPlan checks the overlay's fields of cfg, whose Config is
// already defaulted and valid, and plans them on p's ticks. It allocates
// nothing per node before the checks pass.
func newShardPlan(cfg ShardedConfig, p *plan) (*shardPlan, error) {
	if cfg.Shards <= 0 || cfg.Shards > maxShards {
		return nil, errors.New("fleet: Shards must be in [1, 64]")
	}
	if cfg.KillShard >= cfg.Shards {
		return nil, errors.New("fleet: KillShard out of range")
	}
	killAfter := int64(cfg.KillAfter / cfg.tick)
	recoverAfter := killAfter + int64(cfg.RecoverAfter/cfg.tick)
	if cfg.KillShard >= 0 {
		if window := int64(cfg.window / cfg.tick); killAfter > window || recoverAfter > window {
			return nil, errors.New("fleet: kill/recover schedule exceeds the observation window")
		}
	}
	ring, err := federation.NewRing(cfg.Shards, federation.DefaultVNodes)
	if err != nil {
		return nil, err
	}
	return &shardPlan{
		ring:        ring,
		shards:      cfg.Shards,
		killShard:   max(cfg.KillShard, -1),
		killTick:    p.wakeTick + killAfter,
		recoverTick: p.wakeTick + recoverAfter,
		sampleTicks: sampleGrid(p.wakeTick, p.endTick, shardSamples),
		shardOf:     make([]uint8, cfg.Nodes),
	}, nil
}

// shardExt is one id range's overlay: its nodes' share of every shard's
// ground truth and coordinator view, and what the merge needs of them.
type shardExt struct {
	*shardPlan
	whl *simtime.Wheel

	owned [maxShards]int // nodes of the range each shard owns
	truth [maxShards]int // joined nodes per shard (ground truth)
	view  [maxShards]int // coordinator-consolidated count per shard
	down  [maxShards]bool

	readopted int // truth of the killed shard at recovery
	sampleIdx int
	sampleAt  [shardSamples]int64            // tick each reconciliation sample fired at
	diffAt    [shardSamples][maxShards]int32 // view − truth per shard at each sample
	downAt    [shardSamples]uint64           // down shards at each sample
}

// newExt maps nodes [lo, hi) to their shards and returns the range's
// overlay on whl.
func (sp *shardPlan) newExt(whl *simtime.Wheel, lo, hi int) *shardExt {
	x := &shardExt{shardPlan: sp, whl: whl}
	for i := lo; i < hi; i++ {
		s := sp.ring.Owner(uint64(i) + 1)
		sp.shardOf[i] = uint8(s)
		x.owned[s]++
	}
	return x
}

// book schedules the range's copies of the overlay's sentinels:
// reconciliation samples across the post-wakeup window, and the kill and
// recovery.
func (x *shardExt) book() {
	x.whl.Schedule(x.sampleTicks[0], idShardSample)
	if x.killShard >= 0 {
		x.whl.Schedule(x.killTick, idShardKill)
		x.whl.Schedule(x.recoverTick, idShardRecover)
	}
}

// onJoin consolidates a node's join into its home coordinator's view —
// unless that coordinator is down, in which case the heartbeat is
// dropped and the view freezes (the node itself joined regardless).
func (x *shardExt) onJoin(id int32) {
	s := int(x.shardOf[id])
	x.truth[s]++
	if !x.down[s] {
		x.view[s]++
	}
}

// onLeave mirrors onJoin for power-off departures: a down coordinator
// does not observe the leave either.
func (x *shardExt) onLeave(id int32) {
	s := int(x.shardOf[id])
	x.truth[s]--
	if !x.down[s] {
		x.view[s]--
	}
}

// sentinel dispatches the overlay's wheel events; false hands the id
// back to the engine's cohort decode.
func (x *shardExt) sentinel(tick int64, id int32) bool {
	switch id {
	case idShardKill:
		x.down[x.killShard] = true
	case idShardRecover:
		x.recover()
	case idShardSample:
		x.sample(tick)
	default:
		return false
	}
	return true
}

// recover models the journal failover: the ring successor replays the
// dead shard's journal, restarts the controller, and the heartbeat
// grace window re-adopts every member still alive — the view snaps to
// the truth with no wakeup broadcast.
func (x *shardExt) recover() {
	s := x.killShard
	x.down[s] = false
	x.readopted = x.truth[s]
	x.view[s] = x.truth[s]
}

func (x *shardExt) sample(tick int64) {
	j := x.sampleIdx
	x.sampleAt[j] = tick
	for s := range x.shards {
		x.diffAt[j][s] = int32(x.view[s] - x.truth[s])
		if x.down[s] {
			x.downAt[j] |= 1 << s
		}
	}
	x.sampleIdx++
	if x.sampleIdx < len(x.sampleTicks) {
		x.whl.Schedule(x.sampleTicks[x.sampleIdx], idShardSample)
	}
}

// merge fills res's overlay fields from the ranges' overlays: each
// shard's view − truth is a sum over the ranges, and only that sum's
// magnitude is a mismatch. Every range fires the same kill, recovery and
// samples at the same ticks, so those come from range 0.
func (sp *shardPlan) merge(res *ShardedResult, p *plan, es []engine) {
	x0 := es[0].ext
	res.Shards = sp.shards
	res.KilledShard, res.KillAtSeconds, res.RecoverAtSeconds = -1, -1, -1
	if sp.killShard >= 0 {
		res.KilledShard = sp.killShard
		res.KillAtSeconds = float64(sp.killTick-p.wakeTick) * p.secPerTick
		res.RecoverAtSeconds = float64(sp.recoverTick-p.wakeTick) * p.secPerTick
	}
	// Every shard's carousel airs its own copy of the signed wakeup —
	// k broadcasts for k shards, and none ever again.
	if es[0].woke {
		res.WakeupBroadcasts = sp.shards
	}

	var owned, diff [maxShards]int
	for i := range es {
		x := es[i].ext
		res.Readopted += x.readopted
		for s := range sp.shards {
			owned[s] += x.owned[s]
			diff[s] += x.view[s] - x.truth[s]
		}
	}
	res.MaxOwnershipSkew = float64(slices.Max(owned[:sp.shards])) * float64(sp.shards) / float64(p.cfg.Nodes)
	for s := range sp.shards {
		res.LostNodes += abs(diff[s])
	}

	res.ViewSamples = make([]ShardSample, x0.sampleIdx)
	for j := range res.ViewSamples {
		smp := ShardSample{T: float64(x0.sampleAt[j]-p.wakeTick) * p.secPerTick}
		for s := range sp.shards {
			d := 0
			for i := range es {
				d += int(es[i].ext.diffAt[j][s])
			}
			if x0.downAt[j]&(1<<s) != 0 {
				smp.DownLag += abs(d)
			} else {
				smp.LiveMismatch += abs(d)
			}
		}
		res.PeakDownLag = max(res.PeakDownLag, smp.DownLag)
		res.ViewSamples[j] = smp
	}
}

func abs(d int) int {
	if d < 0 {
		return -d
	}
	return d
}
