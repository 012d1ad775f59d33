// Package fleet is a compact million-PNA simulation harness: one
// process tracks the power/join lifecycle of up to 10⁶ simulated
// processing-node agents in virtual time, with no per-node goroutines
// and no simtime.Sim event heap at all.
//
// The live stack (internal/system) runs real Controller/Backend/STB
// code and tops out around 10³–10⁴ nodes per run; the analytic package
// gives closed forms with no variance at all. fleet sits between them:
// it keeps only what the paper's population-scale questions need — each
// node's power phase, its power-off tick, its next deadline, and a
// private RNG stream — in struct-of-arrays form (17 bytes per node, ticks
// in int32), and schedules the node deadlines that fall inside the run
// on hierarchical timing wheels (simtime.Wheel). A tick past the window
// is stored as the first tick after it and never booked, so a wheel's
// size follows the events that happen, and an initial power period whose
// draw puts it past the window skips its logarithm (firstTicks). A wheel
// delivers every deadline due at a tick as a single batch, so one
// advance step turns into thousands of node transitions; that batching
// is what makes 10⁶ nodes tractable in one process.
//
// A run is cut into one contiguous id range per core (sweepRanges), and
// each range plays the whole run on a goroutine of its own: its own
// draws, counters and wheel, its own copy of every sentinel (wakeup,
// samplers, heartbeat cohorts, the sharded overlay's events), one
// Wheel.AdvanceTo to the end of the window, and no synchronisation until
// every range is there. The ranges record raw counts, and a merge builds
// the Result from them (play). A run hands its node arrays, wheels and
// records to the next one, which then allocates almost nothing
// (takeNodeState). Neither moves a result: it is bit-identical at any
// core count and after any earlier run.
//
// The model: each node alternates exponentially distributed on and off
// periods (means MeanOn, MeanOff), so the stationary probability of
// being on is a = MeanOn/(MeanOn+MeanOff) (analytic.Availability). At
// a configured instant a wakeup message is broadcast; every node that
// is on joins the image carousel at a uniformly random phase and
// completes the load after W ~ U(C, 2C) with C = I·8/β = 80 s — the
// random-phase model behind the paper's W = 1.5·I/β. Nodes that power on
// later join the still-cycling carousel the same way. Joined nodes
// heartbeat every 30 s (generated per cohort, not per node) and leave
// when they power off.
//
// Every run cross-validates itself against internal/analytic:
//
//   - availability: during warm-up the on-fraction at each sample
//     instant is exactly Binomial(Nodes, a) under the stationary
//     initialization, so each sample must sit within 5σ of a;
//   - ramp-up: the fraction of the wakeup-time population that has
//     completed its initial load and is still on t seconds after the
//     broadcast is exactly Binomial(AvailAtWake, F(t)·e^(−t/MeanOn))
//     by the memorylessness of exponential on-times, so each sample
//     must sit within 5σ (plus a one-tick discretization term) of
//     analytic.RampUpWithChurn;
//   - quorum: the first instant that fraction reaches the quorum
//     (Result.QuorumFrac) must match the numerical inverse of the
//     churn-adjusted ramp within the binomial fluctuation divided by
//     the curve's local slope.
//
// Result.Validate applies all three bounds; TestRunValidates holds
// runs of 2·10³ to 10⁵ nodes to them, and the repository benchmark's
// fleet_ramp workload every run of 10⁶.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"oddci/internal/analytic"
	"oddci/internal/netsim"
	"oddci/internal/simtime"
)

// The fixed parameters of every run: the Figure 6 image of I = 10 MB on
// a β = 1 Mbps carousel, so one cycle is C = I·8/β = 80 s, a 30 s
// heartbeat, and 48 availability and 48 ramp-up sample points.
const (
	imageBytes      = 10e6
	beta            = 1e6
	heartbeatPeriod = 30 * time.Second
	samples         = 48
)

// Config parameterizes one fleet run. The zero value of every field
// selects the documented default.
type Config struct {
	// Nodes is the PNA population size.
	Nodes int
	// MeanOn and MeanOff are the exponential power-cycle means
	// (defaults 3 h on, 1 h off: availability 0.75).
	MeanOn, MeanOff time.Duration
	// Seed selects the deterministic per-node RNG streams.
	Seed int64

	// quorumFrac is the fraction of the wakeup-time population whose
	// join ends the ramp measurement (default 0.8).
	quorumFrac float64
	// tick is the wheel resolution (default 10 ms).
	tick time.Duration
	// warmup is the virtual time before the wakeup broadcast, used to
	// measure stationary availability (default 10 min).
	warmup time.Duration
	// window is the observation window after the wakeup (default 2.5·C).
	window time.Duration
}

func (c Config) withDefaults() Config {
	if c.MeanOn == 0 {
		c.MeanOn = 3 * time.Hour
	}
	if c.MeanOff == 0 {
		c.MeanOff = time.Hour
	}
	if c.quorumFrac == 0 {
		c.quorumFrac = 0.8
	}
	if c.tick == 0 {
		c.tick = 10 * time.Millisecond
	}
	if c.warmup == 0 {
		c.warmup = 10 * time.Minute
	}
	if c.window == 0 {
		c.window = time.Duration(2.5 * imageBytes * 8 / beta * float64(time.Second))
	}
	return c
}

// maxRecordBytes bounds the tick-indexed records of one id range (the
// fired, directAt and joinAt of rangeState), which grow with the run's
// length in ticks and not with its events: a default run keeps ~90 kB,
// and a 1 µs tick reaches the bound near a 16 s window. It also keeps
// endTick+1, the stored form of every tick past the window, far inside
// the int32 tick arrays and the wheel's 2³² horizon.
const maxRecordBytes = 64 << 20

// minMeanTicks is the shortest power-cycle mean a run takes, in ticks: a
// period is drawn in whole ticks, at least one, which at 100 moves the
// exponential model's availability by ~10⁻⁵ and at a few ticks by far more.
const minMeanTicks = 100

// recordBytes is the size of one range's tick-indexed records for a run
// of end ticks whose last window ticks follow the wakeup.
func recordBytes(end, window int64) int64 {
	return 8*(end>>6+1) + 4*(window+1) + 8*(window>>6+1)
}

// Validate reports structural problems with the (defaulted) config.
func (c Config) Validate() error {
	var wake, window int64
	if c.tick > 0 {
		wake, window = int64(c.warmup/c.tick), int64(c.window/c.tick)
	}
	switch {
	case c.Nodes <= 0:
		return errors.New("fleet: Nodes must be positive")
	case c.Nodes > math.MaxInt32:
		return errors.New("fleet: Nodes exceeds int32 ids")
	case c.MeanOn <= 0 || c.MeanOff <= 0:
		return errors.New("fleet: MeanOn and MeanOff must be positive")
	case c.quorumFrac <= 0 || c.quorumFrac > 1:
		return errors.New("fleet: quorumFrac must be in (0, 1]")
	case c.tick <= 0:
		return errors.New("fleet: tick must be positive")
	case c.MeanOn/c.tick < minMeanTicks || c.MeanOff/c.tick < minMeanTicks:
		return fmt.Errorf("fleet: MeanOn and MeanOff must each be at least %d ticks", minMeanTicks)
	case wake < samples:
		return errors.New("fleet: warmup too short for the sample ticks")
	case window < samples:
		return errors.New("fleet: window too short for the sample ticks")
	case max(wake, window) > maxRecordBytes || recordBytes(wake+window, window) > maxRecordBytes:
		return fmt.Errorf("fleet: (warmup+window)/tick needs over %d MiB of tick records per range", maxRecordBytes>>20)
	}
	return nil
}

// Point is one cross-validation sample: the simulated value, the
// analytic model's value, and the acceptance tolerance at virtual time
// T seconds (availability: since the run start; ramp-up: since the
// wakeup broadcast).
type Point struct {
	T     float64 `json:"t"`
	Sim   float64 `json:"sim"`
	Model float64 `json:"model"`
	Tol   float64 `json:"tol"`
}

// Result reports one fleet run and carries its own acceptance check.
type Result struct {
	Nodes        int     `json:"nodes"`
	Availability float64 `json:"availability"` // model a = on/(on+off)
	AvailAtWake  int     `json:"avail_at_wake"`

	Avail []Point `json:"avail_curve"`
	Ramp  []Point `json:"ramp_curve"`

	QuorumFrac         float64 `json:"quorum_frac"`
	QuorumSimSeconds   float64 `json:"quorum_sim_seconds"` // -1: not reached
	QuorumModelSeconds float64 `json:"quorum_model_seconds"`
	QuorumTolSeconds   float64 `json:"quorum_tol_seconds"`

	DirectJoins int    `json:"direct_joins"` // wakeup-time nodes that completed the load
	FinalJoined int    `json:"final_joined"` // in-instance nodes at window end
	Heartbeats  uint64 `json:"heartbeats"`

	// NodeEvents / WheelBatches is the batching ratio. SimEvents counts
	// wheel advances, which is WheelBatches; kept because benchmark/ and
	// the golden files read it.
	NodeEvents   uint64 `json:"node_events"`
	WheelBatches uint64 `json:"wheel_batches"`
	SimEvents    uint64 `json:"sim_events"`
}

// Validate checks every cross-validation bound the run recorded.
func (r *Result) Validate() error {
	for _, p := range r.Avail {
		if math.Abs(p.Sim-p.Model) > p.Tol {
			return fmt.Errorf("fleet: availability at t=%.1fs: sim %.5f vs model %.5f exceeds tol %.5f",
				p.T, p.Sim, p.Model, p.Tol)
		}
	}
	for _, p := range r.Ramp {
		if math.Abs(p.Sim-p.Model) > p.Tol {
			return fmt.Errorf("fleet: ramp-up at t=%.1fs: sim %.5f vs model %.5f exceeds tol %.5f",
				p.T, p.Sim, p.Model, p.Tol)
		}
	}
	if !math.IsInf(r.QuorumModelSeconds, 1) {
		// A quorum never reached leaves every ramp sample below it, which
		// the ramp bounds above already hold to the model.
		if r.QuorumSimSeconds < 0 {
			need := max(math.Ceil(r.QuorumFrac*float64(r.AvailAtWake)), 1)
			for _, p := range r.Ramp {
				if math.Round(p.Sim*float64(r.AvailAtWake)) >= need {
					return fmt.Errorf("fleet: quorum %.2f never reached, but the ramp is at %.5f at t=%.1fs",
						r.QuorumFrac, p.Sim, p.T)
				}
			}
			return nil
		}
		if d := math.Abs(r.QuorumSimSeconds - r.QuorumModelSeconds); d > r.QuorumTolSeconds {
			return fmt.Errorf("fleet: quorum time: sim %.2fs vs model %.2fs exceeds tol %.2fs",
				r.QuorumSimSeconds, r.QuorumModelSeconds, r.QuorumTolSeconds)
		}
	}
	return nil
}

// Node lifecycle phases. The high bit marks a "direct" node: one that
// was on at the wakeup instant and has not power-cycled since — the
// population the analytic ramp-up curve describes.
const (
	phaseOff uint8 = iota
	phaseIdle
	phaseLoading
	phaseJoined

	flagDirect uint8 = 0x80
	phaseMask  uint8 = 0x7f
)

// Sentinel wheel ids (negative, so they never collide with node
// indices). Heartbeat cohorts occupy idCohortBase-k for cohort k.
const (
	idWakeup     int32 = -1
	idAvail      int32 = -2
	idRamp       int32 = -3
	idCohortBase int32 = -4
)

const maxCohorts = 256

// nodeState is the part of a run the next one reuses: the
// struct-of-arrays node state, indexed by node id, and one rangeState
// per id range. A range writes every element of its own nodes' arrays
// and resets its wheel and records before it reads them, so nothing of
// the run that left them can be read.
type nodeState struct {
	phase    []uint8
	offAt    []int32 // on nodes: power-off tick; off nodes: 0
	deadline []int32 // tick of the node's (single) live wheel entry
	rng      []uint64
	ranges   []rangeState
}

// rangeState is what one id range keeps between runs: its wheel, its
// join queue, and the raw records the merge reads once every range has
// reached the end of the window.
type rangeState struct {
	whl *simtime.Wheel
	// joinq defers load completions out of the wheel's fire batch; it
	// reuses netsim.Ring, the same structure that fixed the netsim
	// mailbox's dequeue retention.
	joinq netsim.Ring[int32]

	fired    []uint64 // bitset over ticks [0, endTick]: the wheel fired a batch there
	directAt []int32  // direct-on at the end of each window tick, by tick−wakeTick
	joinAt   []uint64 // bitset over window ticks: a direct node joined there
	availAt  []int32  // on nodes at each availability sample
	rampAt   []int32  // direct-on at each ramp sample
}

// spare holds the nodeState of the last run to finish. One slot, not a
// sync.Pool: the collector empties a pool between runs, and each refill
// allocates a million nodes' arrays again while the old ones still await
// collection, which is the memory and time reuse is meant to save.
var spare struct {
	sync.Mutex
	st nodeState
}

// takeNodeState returns node arrays of length n and at least k range
// states: the spare's when its arrays hold n nodes, fresh ones when they
// do not or when another run holds the spare. Range states and their
// wheels are reused whenever there are any.
func takeNodeState(n, k int) nodeState {
	spare.Lock()
	st := spare.st
	spare.st = nodeState{}
	spare.Unlock()
	if cap(st.phase) < n {
		st.phase, st.offAt = make([]uint8, n), make([]int32, n)
		st.deadline, st.rng = make([]int32, n), make([]uint64, n)
	}
	st.phase, st.offAt, st.deadline, st.rng = st.phase[:n], st.offAt[:n], st.deadline[:n], st.rng[:n]
	for len(st.ranges) < k {
		st.ranges = append(st.ranges, rangeState{whl: simtime.NewWheel(0)})
	}
	return st
}

// putNodeState makes st the spare for the next run.
func putNodeState(st nodeState) {
	spare.Lock()
	spare.st = st
	spare.Unlock()
}

// resize returns s with length n, reusing its array when it is large
// enough. The elements are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// plan is what every id range of a run reads and none writes.
type plan struct {
	cfg        Config
	secPerTick float64
	meanOnSec  float64
	meanOffSec float64
	cycleSec   float64
	avail      float64
	params     analytic.Params
	wakeTick   int64
	endTick    int64
	hbTicks    int64
	ncoh       int32

	// farOn and farOff are the unit draws below which an initial on or
	// off period ends past the window (farDraw).
	farOn, farOff float64

	availTicks, rampTicks []int64

	shards *shardPlan // nil: no sharded overlay
}

func newPlan(cfg Config) *plan {
	p := &plan{
		cfg:        cfg,
		secPerTick: cfg.tick.Seconds(),
		meanOnSec:  cfg.MeanOn.Seconds(),
		meanOffSec: cfg.MeanOff.Seconds(),
		cycleSec:   imageBytes * 8 / beta,
		params:     analytic.Params{ImageBits: imageBytes * 8, Beta: beta},
		wakeTick:   int64(cfg.warmup / cfg.tick),
		ncoh:       int32(min(cfg.Nodes, maxCohorts)),
		hbTicks:    max(int64(heartbeatPeriod/cfg.tick), 1),
	}
	p.avail = analytic.Availability(p.meanOnSec, p.meanOffSec)
	p.endTick = p.wakeTick + int64(cfg.window/cfg.tick)
	p.farOn, p.farOff = p.farDraw(p.meanOnSec), p.farDraw(p.meanOffSec)
	p.availTicks = sampleGrid(0, p.wakeTick, samples)
	p.rampTicks = sampleGrid(p.wakeTick, p.endTick, samples)
	return p
}

// engine plays one id range [lo, hi) of a run from start to end: its
// own nodes' draws and deadlines, its own counters, and its own copy of
// every sentinel, on its own wheel. Nothing it writes is read by another
// range before the merge.
type engine struct {
	*plan
	rangeState

	phase    []uint8
	offAt    []int32
	deadline []int32
	rng      []uint64
	lo, hi   int

	cohortOn          [maxCohorts]int32
	onCount           int
	joined            int
	directOn          int
	directJoins       int
	availAtWake       int
	woke              bool
	nodeEvents        uint64
	heartbeats        uint64
	availIdx, rampIdx int

	// ext, when non-nil, overlays the sharded-coordinator view on the
	// node dynamics (see sharded.go). Node behavior is identical with
	// and without it: the broadcast plane does not depend on which
	// coordinator shard consolidates a node's heartbeats.
	ext *shardExt

	_ [64]byte // keeps the next range's counters off this one's cache lines
}

// Run executes one fleet simulation and returns its (self-validating)
// result. It does not call Result.Validate; callers decide whether a
// bound violation is fatal.
func Run(cfg Config) (*Result, error) {
	r, err := play(ShardedConfig{Config: cfg}, false, sweepRanges(cfg.Nodes))
	return r.Result, err
}

// play is Run's and RunSharded's common entry. It checks cfg (the
// overlay's fields too when sharded), cuts the population into k
// contiguous id ranges, plays each range whole on a goroutine of its own
// with no synchronisation until every range has reached the end of the
// window, and merges the ranges' records. The result does not depend on
// k: a range's wheel gets its own nodes' bookings and its sentinel copies
// at the cursors and window rolls the one-wheel run booked them at, so
// every batch, restricted to the range, keeps its order, and every
// sentinel of the one-wheel run reads a sum of per-node terms that the
// ranges' copies read in parts.
func play(cfg ShardedConfig, sharded bool, k int) (ShardedResult, error) {
	cfg.Config = cfg.Config.withDefaults()
	if err := cfg.Config.Validate(); err != nil {
		return ShardedResult{}, err
	}
	p := newPlan(cfg.Config)
	if sharded {
		sp, err := newShardPlan(cfg, p)
		if err != nil {
			return ShardedResult{}, err
		}
		p.shards = sp
	}
	st := takeNodeState(cfg.Nodes, k)
	es := make([]engine, k)
	sweep(k, cfg.Nodes, func(r, lo, hi int) {
		e := &es[r]
		*e = engine{
			plan: p, rangeState: st.ranges[r],
			phase: st.phase, offAt: st.offAt, deadline: st.deadline, rng: st.rng,
			lo: lo, hi: hi,
		}
		e.run()
		st.ranges[r] = e.rangeState
	})
	res := p.merge(es)
	putNodeState(st)
	return res, nil
}

// run sizes the range's records, draws its nodes, books their deadlines
// and the range's sentinel copies, and plays the wheel out to the end of
// the window in one advance, fire booking follow-ups into it.
func (e *engine) run() {
	e.whl.Reset(0)
	e.fired = resize(e.fired, int(e.endTick>>6)+1)
	clear(e.fired)
	window := e.endTick - e.wakeTick
	e.directAt = resize(e.directAt, int(window)+1)
	e.joinAt = resize(e.joinAt, int(window>>6)+1)
	clear(e.joinAt)
	e.availAt = resize(e.availAt, samples)
	e.rampAt = resize(e.rampAt, samples)
	if e.shards != nil {
		e.ext = e.shards.newExt(e.whl, e.lo, e.hi)
	}

	e.init()
	e.whl.AdvanceTo(e.endTick, e.fire)

	// Carry direct-on across the window ticks this range did not fire:
	// nothing changed it there.
	var last int32
	for w := range e.directAt {
		if bit(e.fired, e.wakeTick+int64(w)) {
			last = e.directAt[w]
		} else {
			e.directAt[w] = last
		}
	}
}

// stored is the form every node tick takes in the int32 arrays: a tick
// past the window becomes endTick+1. Every reader asks of such a tick
// only whether it is past endTick (the staleness check, tick >= offAt,
// min(tick+load, offAt)), and endTick+1 answers each as the tick itself
// would.
func (p *plan) stored(tick int64) int32 { return int32(min(tick, p.endTick+1)) }

// setDeadline records id's single live deadline and books it on the
// wheel if it can fire: the run stops at endTick, so a later deadline
// (most of them — the power-cycle means dwarf the window) is only
// remembered, which is all the staleness check needs. Superseded
// entries are cancelled lazily — nodeEvent skips a fired (tick, id)
// whose deadline has moved on.
func (e *engine) setDeadline(id int32, tick int64) {
	e.deadline[id] = e.stored(tick)
	if tick <= e.endTick {
		e.whl.Schedule(tick, id)
	}
}

// SplitMix64: one 8-byte state word per node gives each node an
// independent, deterministic stream regardless of event interleaving.
func nextU64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unitOpen returns a uniform draw in (0, 1], safe for log.
func unitOpen(s *uint64) float64 { return (float64(nextU64(s)>>11) + 1) / (1 << 53) }

// unitHalf returns a uniform draw in [0, 1).
func unitHalf(s *uint64) float64 { return float64(nextU64(s)>>11) / (1 << 53) }

// expTicks turns a unitOpen draw u into Exp(mean seconds) rounded to
// ticks, at least 1 and at most endTick+1. A draw past the window reads
// as endTick+1 to every reader (stored), and the cap keeps the
// conversion to int64 in range however far past the window a draw ends.
func (p *plan) expTicks(u, mean float64) int64 {
	return max(int64(math.Round(min(-mean*math.Log(u)/p.secPerTick, float64(p.endTick+1)))), 1)
}

// farDraw is the threshold below which a unitOpen draw u makes expTicks
// end past the window: u < exp(−(endTick+1)·secPerTick/mean).
//
// expTicks ends past endTick exactly when −mean·ln(u)/secPerTick, as
// computed, is at least endTick+½ (it rounds half away from zero). The
// threshold asks for endTick+1, and that half tick of margin covers the
// rounding. The product and quotient here, and the log, product and
// quotient there, each err by an ulp or so of a value of about endTick
// ticks: a few ε·endTick ticks, ~10⁻⁶ at 2³¹. The exp errs by a few ulps
// of the threshold, which the log reads back as a few ε·mean/secPerTick
// ticks: 0.11 per ulp at mean/secPerTick = 10¹⁵, so up to 4 ulps fit the
// margin there. Past that ratio the threshold is 0 and nothing is
// skipped. A draw at or above the threshold takes expTicks itself, so
// the verdict near it is the exact one (TestFarDrawExact).
func (p *plan) farDraw(mean float64) float64 {
	if mean/p.secPerTick > 1e15 {
		return 0
	}
	return math.Exp(-float64(p.endTick+1) * p.secPerTick / mean)
}

// firstTicks is expTicks for a node's initial period, most of which end
// past the window: a draw below far (farDraw) returns endTick+1 without
// the log, which is what stored makes of expTicks' value there.
func (p *plan) firstTicks(u, mean, far float64) int64 {
	if u < far {
		return p.endTick + 1
	}
	return p.expTicks(u, mean)
}

// loadTicks draws the carousel load time W ~ U(C, 2C) in ticks: the
// node joins the cyclic carousel at a uniformly random phase and needs
// the remainder of the current cycle plus one full cycle.
func (p *plan) loadTicks(s *uint64) int64 {
	w := p.cycleSec * (1 + unitHalf(s))
	return max(int64(math.Round(w/p.secPerTick)), 1)
}

// init draws the range's stationary initial state, booking each node's
// deadline as it is drawn, then books the range's copies of the fixed
// events: the wakeup broadcast, the first availability and ramp
// samplers, one staggered heartbeat generator per cohort, and the
// overlay's. Node deadlines go first, in id order, as they did on the
// one wheel every range shared before.
//
// Stationary initialization is what makes the availability samples
// exactly Binomial(Nodes, a): each node is on with probability a, and
// its residual period is a fresh exponential draw (legitimate by
// memorylessness), so the alternating process starts in equilibrium
// instead of converging toward it during warm-up. Most of those residual
// periods end past the window, where firstTicks skips the log.
func (e *engine) init() {
	for i := e.lo; i < e.hi; i++ {
		s := &e.rng[i]
		*s = uint64(e.cfg.Seed)*0xD1342543DE82EF95 + (uint64(i)+1)*0x9E3779B97F4A7C15
		if unitHalf(s) < e.avail {
			e.phase[i] = phaseIdle
			e.onCount++
			e.cohortOn[int32(i)%e.ncoh]++
			off := e.firstTicks(unitOpen(s), e.meanOnSec, e.farOn)
			e.offAt[i] = e.stored(off)
			e.setDeadline(int32(i), off)
		} else {
			e.phase[i] = phaseOff
			e.offAt[i] = 0
			e.setDeadline(int32(i), e.firstTicks(unitOpen(s), e.meanOffSec, e.farOff))
		}
	}

	e.whl.Schedule(e.wakeTick, idWakeup)
	e.whl.Schedule(e.availTicks[0], idAvail)
	e.whl.Schedule(e.rampTicks[0], idRamp)
	for k := int32(0); k < e.ncoh; k++ {
		first := (int64(k)*e.hbTicks)/int64(e.ncoh) + 1
		e.whl.Schedule(first, idCohortBase-k)
	}
	if e.ext != nil {
		e.ext.book()
	}
}

// minSweepRange is the fewest nodes worth a goroutine of their own (a
// default run of them takes ~1.6 ms).
const minSweepRange = 1 << 14

// sweepRanges is the number of id ranges a run over n nodes uses: one
// per core, but no range under minSweepRange nodes.
func sweepRanges(n int) int {
	return max(min(runtime.GOMAXPROCS(0), n/minSweepRange), 1)
}

// sweep calls f(r, lo, hi) for the k contiguous id ranges that split
// [0, n), range 0 on the calling goroutine and the rest on goroutines of
// their own, and returns once every call has. f touches only its own
// range's nodes and its own partials.
func sweep(k, n int, f func(r, lo, hi int)) {
	if k == 1 {
		f(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for r := 1; r < k; r++ {
		go func() {
			defer wg.Done()
			f(r, n*r/k, n*(r+1)/k)
		}()
	}
	f(0, 0, n/k)
	wg.Wait()
}

// sampleGrid returns n strictly increasing ticks in (from, to].
func sampleGrid(from, to int64, n int) []int64 {
	ticks := make([]int64, n)
	for i := range ticks {
		ticks[i] = from + (to-from)*int64(i+1)/int64(n)
	}
	return ticks
}

// fire applies one tick's batch: every node deadline and sentinel due
// there, then the joins the batch deferred, and records the tick.
func (e *engine) fire(tick int64, ids []int32) {
	e.fired[tick>>6] |= 1 << (tick & 63)
	for _, id := range ids {
		if id >= 0 {
			e.nodeEvent(tick, id)
		} else {
			e.sentinel(tick, id)
		}
	}
	e.drainJoins(tick)
	if tick >= e.wakeTick {
		e.directAt[tick-e.wakeTick] = int32(e.directOn)
	}
}

// nodeEvent applies one node's due transition. The staleness check is
// the wheel's lazy cancellation: a deadline that moved after this entry
// was scheduled leaves the stale (tick, id) behind, and it is dropped
// here.
func (e *engine) nodeEvent(tick int64, id int32) {
	if int64(e.deadline[id]) != tick {
		return
	}
	e.nodeEvents++
	switch e.phase[id] & phaseMask {
	case phaseOff:
		e.powerOn(tick, id)
	case phaseIdle, phaseJoined:
		e.powerOff(tick, id)
	case phaseLoading:
		if tick >= int64(e.offAt[id]) {
			e.powerOff(tick, id) // powered off mid-load
		} else {
			e.joinq.PushBack(id) // load complete; join after the batch
		}
	}
}

func (e *engine) powerOn(tick int64, id int32) {
	e.onCount++
	e.cohortOn[id%e.ncoh]++
	s := &e.rng[id]
	off := tick + e.expTicks(unitOpen(s), e.meanOnSec)
	e.offAt[id] = e.stored(off)
	if tick >= e.wakeTick {
		// The wakeup message and image are still on the carousel:
		// late arrivals load and join too (they are counted in the
		// instance, but not in the direct ramp statistic).
		e.phase[id] = phaseLoading
		e.setDeadline(id, min(tick+e.loadTicks(s), off))
	} else {
		e.phase[id] = phaseIdle
		e.setDeadline(id, off)
	}
}

func (e *engine) powerOff(tick int64, id int32) {
	e.onCount--
	e.cohortOn[id%e.ncoh]--
	if e.phase[id]&phaseMask == phaseJoined {
		e.joined--
		if e.phase[id]&flagDirect != 0 {
			e.directOn--
		}
		if e.ext != nil {
			e.ext.onLeave(id)
		}
	}
	e.phase[id] = phaseOff
	e.setDeadline(id, tick+e.expTicks(unitOpen(&e.rng[id]), e.meanOffSec))
}

// drainJoins completes the load→join transitions deferred by the fire
// batch and marks the tick if a direct node joined: the quorum can only
// be crossed at such a tick, where the one-wheel run checked it.
func (e *engine) drainJoins(tick int64) {
	for {
		id, ok := e.joinq.PopFront()
		if !ok {
			return
		}
		e.phase[id] = phaseJoined | e.phase[id]&flagDirect
		e.setDeadline(id, int64(e.offAt[id]))
		e.joined++
		if e.ext != nil {
			e.ext.onJoin(id)
		}
		if e.phase[id]&flagDirect != 0 {
			e.directOn++
			e.directJoins++
			w := tick - e.wakeTick
			e.joinAt[w>>6] |= 1 << (w & 63)
		}
	}
}

func (e *engine) sentinel(tick int64, id int32) {
	switch id {
	case idWakeup:
		e.wakeup(tick)
	case idAvail:
		e.availAt[e.availIdx] = int32(e.onCount)
		e.availIdx++
		if e.availIdx < len(e.availTicks) {
			e.whl.Schedule(e.availTicks[e.availIdx], idAvail)
		}
	case idRamp:
		e.rampAt[e.rampIdx] = int32(e.directOn)
		e.rampIdx++
		if e.rampIdx < len(e.rampTicks) {
			e.whl.Schedule(e.rampTicks[e.rampIdx], idRamp)
		}
	default:
		// Sharded-overlay sentinels sit far below the cohort range;
		// give the extension first refusal before the cohort decode.
		if e.ext != nil && e.ext.sentinel(tick, id) {
			return
		}
		e.heartbeat(tick, idCohortBase-id)
	}
}

// wakeup broadcasts the instance creation: every on node of the range
// joins the carousel at a random phase. This is the one O(Nodes) event;
// all other work is proportional to transitions, not population.
func (e *engine) wakeup(tick int64) {
	e.woke = true
	e.availAtWake = e.onCount
	for i := e.lo; i < e.hi; i++ {
		if e.phase[i] == phaseIdle {
			e.phase[i] = phaseLoading | flagDirect
			e.setDeadline(int32(i), min(tick+e.loadTicks(&e.rng[i]), int64(e.offAt[i])))
		}
	}
}

// heartbeat generates the range's share of one cohort's heartbeats as a
// single counted batch: cohortOn[k] nodes each owe one heartbeat this
// period. Nothing per-node is materialized — this is the batched
// generation that keeps 10⁶ nodes from costing 10⁶ events every period.
func (e *engine) heartbeat(tick int64, k int32) {
	e.heartbeats += uint64(e.cohortOn[k])
	if next := tick + e.hbTicks; next <= e.endTick {
		e.whl.Schedule(next, idCohortBase-k)
	}
}

// tolFor is the acceptance tolerance for a Binomial(n, p) fraction:
// five standard deviations plus one tick's worth of curve motion (load
// completions and power flips are quantized to ticks). p is clamped
// away from {0, 1} by the discretization floor so the bound never
// collapses to zero at the curve's flats.
func (p *plan) tolFor(pr float64, n int) float64 {
	if n <= 0 {
		return 1
	}
	floor := p.secPerTick / p.cycleSec
	pr = min(max(pr, floor), 1-floor)
	return 5*math.Sqrt(pr*(1-pr)/float64(n)) + floor
}

// bit reports bit i of a bitset.
func bit(set []uint64, i int64) bool { return set[i>>6]&(1<<(i&63)) != 0 }

// merge builds the result from the ranges' records once all of them have
// reached the end of the window. Every count is a sum over the ranges,
// the wheel batches are the union of the ticks they fired, and the
// quorum tick is the first window tick at which some range saw a direct
// join and the ranges' direct-on counts at the end of that tick reach
// the quorum: the one-wheel run checked after each direct join, and
// within a tick's joins direct-on only grows.
func (p *plan) merge(es []engine) ShardedResult {
	r := &Result{
		Nodes:        p.cfg.Nodes,
		Availability: p.avail,
		QuorumFrac:   p.cfg.quorumFrac,
		Avail:        make([]Point, samples),
		Ramp:         make([]Point, samples),
	}
	for i := range es {
		e := &es[i]
		r.AvailAtWake += e.availAtWake
		r.DirectJoins += e.directJoins
		r.FinalJoined += e.joined
		r.Heartbeats += e.heartbeats
		r.NodeEvents += e.nodeEvents
	}
	for w := range es[0].fired {
		var u uint64
		for i := range es {
			u |= es[i].fired[w]
		}
		r.WheelBatches += uint64(bits.OnesCount64(u))
	}
	r.SimEvents = r.WheelBatches

	tolAvail := p.tolFor(p.avail, p.cfg.Nodes)
	for j := range r.Avail {
		on := 0
		for i := range es {
			on += int(es[i].availAt[j])
		}
		r.Avail[j] = Point{
			T:     float64(p.availTicks[j]) * p.secPerTick,
			Sim:   float64(on) / float64(p.cfg.Nodes),
			Model: p.avail,
			Tol:   tolAvail,
		}
	}
	for j := range r.Ramp {
		direct := 0
		for i := range es {
			direct += int(es[i].rampAt[j])
		}
		t := float64(p.rampTicks[j]-p.wakeTick) * p.secPerTick
		model := p.params.RampUpWithChurn(t, p.meanOnSec)
		sim := 0.0
		if r.AvailAtWake > 0 {
			sim = float64(direct) / float64(r.AvailAtWake)
		}
		r.Ramp[j] = Point{T: t, Sim: sim, Model: model, Tol: p.tolFor(model, r.AvailAtWake)}
	}

	r.QuorumSimSeconds = -1
	need := int(math.Ceil(p.cfg.quorumFrac * float64(r.AvailAtWake)))
	for w := range int64(len(es[0].directAt)) {
		joined, on := false, 0
		for i := range es {
			joined = joined || bit(es[i].joinAt, w)
			on += int(es[i].directAt[w])
		}
		if joined && on >= need {
			r.QuorumSimSeconds = float64(w) * p.secPerTick
			break
		}
	}
	p.quorumModel(r)

	res := ShardedResult{Result: r}
	if p.shards != nil {
		p.shards.merge(&res, p, es)
	}
	return res
}

// quorumModel computes the model quorum time by bisecting the
// churn-adjusted ramp and converts the binomial count fluctuation into
// seconds through the curve's local slope.
func (p *plan) quorumModel(r *Result) {
	q := p.cfg.quorumFrac
	curve := func(t float64) float64 { return p.params.RampUpWithChurn(t, p.meanOnSec) }
	r.QuorumModelSeconds = math.Inf(1)
	if hi := 2 * p.cycleSec; curve(hi) >= q {
		lo := p.cycleSec
		for i := 0; i < 64; i++ {
			mid := (lo + hi) / 2
			if curve(mid) < q {
				lo = mid
			} else {
				hi = mid
			}
		}
		t := (lo + hi) / 2
		r.QuorumModelSeconds = t
		// Local slope of the churn-adjusted ramp, for the count→time
		// tolerance conversion. Six standard deviations rather than
		// five: the first-crossing time of a fluctuating count is
		// biased slightly early relative to the mean crossing.
		h := p.secPerTick
		slope := (curve(t+h) - curve(t-h)) / (2 * h)
		if slope <= 0 {
			slope = 1 / p.cycleSec
		}
		sigma := math.Sqrt(q * (1 - q) / float64(max(r.AvailAtWake, 1)))
		r.QuorumTolSeconds = (6*sigma+p.secPerTick/p.cycleSec)/slope + 2*p.secPerTick
	}
}
