package fleet

import (
	"errors"
	"fmt"
	"math"
	"time"

	"oddci/internal/federation"
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

const shardSamples = 32

type shardExt struct {
	e    *engine
	res  *ShardedResult
	ring *federation.Ring

	shardOf []uint8
	truth   []int // joined nodes per shard (ground truth)
	view    []int // coordinator-consolidated count per shard
	down    []bool

	killShard   int
	sampleTicks []int64
	sampleIdx   int
}

// RunSharded executes one sharded fleet simulation.
func RunSharded(cfg ShardedConfig) (*ShardedResult, error) {
	cfg.Config = cfg.Config.withDefaults()
	if err := cfg.Config.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards <= 0 || cfg.Shards > 64 {
		return nil, errors.New("fleet: Shards must be in [1, 64]")
	}
	if cfg.KillShard >= cfg.Shards {
		return nil, errors.New("fleet: KillShard out of range")
	}
	killAfter := int64(cfg.KillAfter / cfg.Tick)
	recoverAfter := killAfter + int64(cfg.RecoverAfter/cfg.Tick)
	if cfg.KillShard >= 0 {
		if window := int64(cfg.Window / cfg.Tick); killAfter > window || recoverAfter > window {
			return nil, errors.New("fleet: kill/recover schedule exceeds the observation window")
		}
	}
	ring, err := federation.NewRing(cfg.Shards, federation.DefaultVNodes)
	if err != nil {
		return nil, err
	}

	e := newEngine(cfg.Config)
	x := &shardExt{
		e: e, ring: ring,
		shardOf:   make([]uint8, cfg.Nodes),
		truth:     make([]int, cfg.Shards),
		view:      make([]int, cfg.Shards),
		down:      make([]bool, cfg.Shards),
		killShard: -1,
	}
	counts := make([]int, cfg.Shards)
	for i := range x.shardOf {
		s := ring.Owner(uint64(i) + 1)
		x.shardOf[i] = uint8(s)
		counts[int(s)]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	x.res = &ShardedResult{
		Result:           e.res,
		Shards:           cfg.Shards,
		MaxOwnershipSkew: float64(maxCount) * float64(cfg.Shards) / float64(cfg.Nodes),
		KilledShard:      -1,
		KillAtSeconds:    -1,
		RecoverAtSeconds: -1,
	}
	e.ext = x

	e.init()

	// Reconciliation samples across the post-wakeup window.
	x.sampleTicks = sampleGrid(e.wakeTick, e.endTick, shardSamples)
	e.whl.Schedule(x.sampleTicks[0], idShardSample)

	if cfg.KillShard >= 0 {
		x.killShard = cfg.KillShard
		e.whl.Schedule(e.wakeTick+killAfter, idShardKill)
		e.whl.Schedule(e.wakeTick+recoverAfter, idShardRecover)
	}

	e.run()
	r := x.finish()
	putNodeState(e.nodeState)
	return r, nil
}

// onWakeup: every shard's carousel airs its own copy of the signed
// wakeup — k broadcasts for k shards, and none ever again.
func (x *shardExt) onWakeup() { x.res.WakeupBroadcasts += x.res.Shards }

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
		x.kill(tick)
	case idShardRecover:
		x.recover(tick)
	case idShardSample:
		x.sample(tick)
	default:
		return false
	}
	return true
}

func (x *shardExt) kill(tick int64) {
	s := x.killShard
	x.down[s] = true
	x.res.KilledShard = s
	x.res.KillAtSeconds = float64(tick-x.e.wakeTick) * x.e.secPerTick
}

// recover models the journal failover: the ring successor replays the
// dead shard's journal, restarts the controller, and the heartbeat
// grace window re-adopts every member still alive — the view snaps to
// the truth with no wakeup broadcast.
func (x *shardExt) recover(tick int64) {
	s := x.killShard
	x.down[s] = false
	x.res.RecoverAtSeconds = float64(tick-x.e.wakeTick) * x.e.secPerTick
	x.res.Readopted = x.truth[s]
	x.view[s] = x.truth[s]
}

func (x *shardExt) sample(tick int64) {
	smp := ShardSample{T: float64(tick-x.e.wakeTick) * x.e.secPerTick}
	for s := range x.truth {
		d := x.view[s] - x.truth[s]
		if d < 0 {
			d = -d
		}
		if x.down[s] {
			smp.DownLag += d
		} else {
			smp.LiveMismatch += d
		}
	}
	if smp.DownLag > x.res.PeakDownLag {
		x.res.PeakDownLag = smp.DownLag
	}
	x.res.ViewSamples = append(x.res.ViewSamples, smp)
	x.sampleIdx++
	if x.sampleIdx < len(x.sampleTicks) {
		x.e.whl.Schedule(x.sampleTicks[x.sampleIdx], idShardSample)
	}
}

func (x *shardExt) finish() *ShardedResult {
	lost := 0
	for s := range x.truth {
		lost += int(math.Abs(float64(x.view[s] - x.truth[s])))
	}
	x.res.LostNodes = lost
	return x.res
}
