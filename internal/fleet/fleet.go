// Package fleet is a compact million-PNA simulation harness: one
// process tracks the power/join lifecycle of up to 10⁶ simulated
// processing-node agents in virtual time, with no per-node goroutines
// and no simtime.Sim event heap at all.
//
// The live stack (internal/system) runs real Controller/Backend/STB
// code and tops out around 10³–10⁴ nodes per run; the analytic package
// gives closed forms with no variance at all. fleet sits between them:
// it keeps only what the paper's population-scale questions need — each
// node's power phase, its next deadline, and a private RNG stream — in
// struct-of-arrays form (25 bytes per node), and schedules the node
// deadlines that fall inside the run on one hierarchical timing wheel
// (simtime.Wheel); a deadline past the window is remembered, not
// booked, so the wheel's size follows the events that happen. The engine
// drives the wheel itself — a run is one Wheel.AdvanceTo to the end of
// the window — and the wheel delivers every deadline due at a tick as a
// single batch, so one advance step turns into thousands of node
// transitions; that batching is what makes 10⁶ nodes tractable in one
// process. A run hands its node arrays and wheel to the next one, which
// then allocates almost nothing (takeNodeState), and the two sweeps over
// every node — the initial draws and the wakeup — split into one id range
// per core (sweep). Neither moves a result: it is bit-identical at any
// core count and after any earlier run.
//
// The model: each node alternates exponentially distributed on and off
// periods (means MeanOn, MeanOff), so the stationary probability of
// being on is a = MeanOn/(MeanOn+MeanOff) (analytic.Availability). At
// a configured instant a wakeup message is broadcast; every node that
// is on joins the image carousel at a uniformly random phase and
// completes the load after W ~ U(C, 2C) with C = ImageBytes·8/Beta —
// the random-phase model behind the paper's W = 1.5·I/β. Nodes that
// power on later join the still-cycling carousel the same way. Joined
// nodes heartbeat every HeartbeatPeriod (generated per cohort, not per
// node) and leave when they power off.
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
//   - quorum: the first instant that fraction reaches QuorumFrac must
//     match the numerical inverse of the churn-adjusted ramp within
//     the binomial fluctuation divided by the curve's local slope.
//
// Result.Validate applies all three bounds; TestRunValidates holds
// runs of 2·10³ to 10⁵ nodes to them, and the repository benchmark's
// fleet_ramp workload every run of 10⁶.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"oddci/internal/analytic"
	"oddci/internal/netsim"
	"oddci/internal/simtime"
)

// Config parameterizes one fleet run. The zero value of every field
// selects the documented default.
type Config struct {
	// Nodes is the PNA population size.
	Nodes int
	// ImageBytes is the application image size I (default 10 MB, the
	// Figure 6 scenario).
	ImageBytes float64
	// Beta is the broadcast carousel capacity in bits/s (default 1 Mbps),
	// so one carousel cycle is C = ImageBytes·8/Beta seconds.
	Beta float64
	// MeanOn and MeanOff are the exponential power-cycle means
	// (defaults 3 h on, 1 h off: availability 0.75).
	MeanOn, MeanOff time.Duration
	// HeartbeatPeriod is the joined-node heartbeat interval (default 30 s).
	HeartbeatPeriod time.Duration
	// QuorumFrac is the fraction of the wakeup-time population whose
	// join ends the ramp measurement (default 0.8).
	QuorumFrac float64
	// Tick is the wheel resolution (default 10 ms).
	Tick time.Duration
	// Warmup is the virtual time before the wakeup broadcast, used to
	// measure stationary availability (default 10 min).
	Warmup time.Duration
	// Window is the observation window after the wakeup (default 2.5·C).
	Window time.Duration
	// Samples is the number of availability and of ramp-up sample
	// points (default 48 each).
	Samples int
	// Seed selects the deterministic per-node RNG streams.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.ImageBytes == 0 {
		c.ImageBytes = 10e6
	}
	if c.Beta == 0 {
		c.Beta = 1e6
	}
	if c.MeanOn == 0 {
		c.MeanOn = 3 * time.Hour
	}
	if c.MeanOff == 0 {
		c.MeanOff = time.Hour
	}
	if c.HeartbeatPeriod == 0 {
		c.HeartbeatPeriod = 30 * time.Second
	}
	if c.QuorumFrac == 0 {
		c.QuorumFrac = 0.8
	}
	if c.Tick == 0 {
		c.Tick = 10 * time.Millisecond
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * time.Minute
	}
	if c.Window == 0 {
		cycle := c.ImageBytes * 8 / c.Beta
		c.Window = time.Duration(2.5 * cycle * float64(time.Second))
	}
	if c.Samples == 0 {
		c.Samples = 48
	}
	return c
}

// Validate reports structural problems with the (defaulted) config.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return errors.New("fleet: Nodes must be positive")
	case c.Nodes > math.MaxInt32:
		return errors.New("fleet: Nodes exceeds int32 ids")
	case c.ImageBytes <= 0 || c.Beta <= 0:
		return errors.New("fleet: ImageBytes and Beta must be positive")
	case c.MeanOn <= 0 || c.MeanOff <= 0:
		return errors.New("fleet: MeanOn and MeanOff must be positive")
	case c.HeartbeatPeriod < c.Tick:
		return errors.New("fleet: HeartbeatPeriod must be at least one tick")
	case c.QuorumFrac <= 0 || c.QuorumFrac > 1:
		return errors.New("fleet: QuorumFrac must be in (0, 1]")
	case c.Tick <= 0:
		return errors.New("fleet: Tick must be positive")
	case c.Samples <= 0:
		return errors.New("fleet: Samples must be positive")
	case int64(c.Warmup/c.Tick) < int64(c.Samples):
		return errors.New("fleet: Warmup too short for Samples distinct ticks")
	case int64(c.Window/c.Tick) < int64(c.Samples):
		return errors.New("fleet: Window too short for Samples distinct ticks")
	case int64(c.Warmup/c.Tick)+int64(c.Window/c.Tick) >= simtime.WheelHorizon:
		return errors.New("fleet: (Warmup+Window)/Tick exceeds the timing wheel horizon")
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
		if r.QuorumSimSeconds < 0 {
			return fmt.Errorf("fleet: quorum %.2f never reached (model predicts %.1fs)",
				r.QuorumFrac, r.QuorumModelSeconds)
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

// nodeState is the part of an engine a run hands to the next one: the
// struct-of-arrays node state, indexed by node id, and the wheel. init
// writes every element of every array and Reset empties the wheel, so
// nothing of the run that left them can be read.
type nodeState struct {
	whl *simtime.Wheel

	phase    []uint8
	offAt    []int64 // on nodes: power-off tick; off nodes: 0
	deadline []int64 // tick of the node's (single) live wheel entry
	rng      []uint64
}

// spare holds the nodeState of the last run to finish. One slot, not a
// sync.Pool: the collector empties a pool between runs, and each refill
// allocates a million nodes' arrays again while the old ones still await
// collection, which is the memory and time reuse is meant to save.
var spare struct {
	sync.Mutex
	st nodeState
}

// takeNodeState returns node arrays of length n and an empty wheel at
// tick 0: the spare's when its arrays hold n nodes, fresh ones when they
// do not or when another run holds the spare. The wheel is reused
// whenever there is one.
func takeNodeState(n int) nodeState {
	spare.Lock()
	st := spare.st
	spare.st = nodeState{}
	spare.Unlock()
	if cap(st.phase) < n {
		st.phase, st.offAt = make([]uint8, n), make([]int64, n)
		st.deadline, st.rng = make([]int64, n), make([]uint64, n)
	}
	st.phase, st.offAt, st.deadline, st.rng = st.phase[:n], st.offAt[:n], st.deadline[:n], st.rng[:n]
	if st.whl == nil {
		st.whl = simtime.NewWheel(0)
	} else {
		st.whl.Reset(0)
	}
	return st
}

// putNodeState makes st the spare for the next run.
func putNodeState(st nodeState) {
	spare.Lock()
	spare.st = st
	spare.Unlock()
}

type engine struct {
	cfg Config
	nodeState

	// joinq defers load completions out of the wheel's fire batch; it
	// reuses netsim.Ring, the same structure that fixed the Mailbox
	// dequeue retention.
	joinq netsim.Ring[int32]

	secPerTick  float64
	wakeTick    int64
	endTick     int64
	meanOnSec   float64
	meanOffSec  float64
	cycleSec    float64
	params      analytic.Params
	avail       float64
	ncoh        int32
	hbTicks     int64
	cohortOn    []int32
	onCount     int
	joined      int
	directOn    int
	directJoins int
	availAtWake int
	quorumTick  int64
	quorumNeed  int

	availTicks, rampTicks []int64
	availIdx, rampIdx     int
	res                   *Result

	// ext, when non-nil, overlays the sharded-coordinator view on the
	// node dynamics (see sharded.go). Node behavior is identical with
	// and without it: the broadcast plane does not depend on which
	// coordinator shard consolidates a node's heartbeats.
	ext *shardExt
}

// Run executes one fleet simulation and returns its (self-validating)
// result. It does not call Result.Validate; callers decide whether a
// bound violation is fatal.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := newEngine(cfg)
	e.init()
	r := e.run()
	putNodeState(e.nodeState)
	return r, nil
}

// run plays the booked events out to the end of the window: one wheel
// advance, every batch in tick order, fire booking follow-ups into it.
func (e *engine) run() *Result {
	e.whl.AdvanceTo(e.endTick, e.fire)
	return e.finish()
}

func newEngine(cfg Config) *engine {
	n := cfg.Nodes
	e := &engine{
		cfg:        cfg,
		nodeState:  takeNodeState(n),
		secPerTick: cfg.Tick.Seconds(),
		meanOnSec:  cfg.MeanOn.Seconds(),
		meanOffSec: cfg.MeanOff.Seconds(),
		cycleSec:   cfg.ImageBytes * 8 / cfg.Beta,
		quorumTick: -1,
	}
	e.params = analytic.Params{ImageBits: cfg.ImageBytes * 8, Beta: cfg.Beta}
	e.avail = analytic.Availability(e.meanOnSec, e.meanOffSec)
	e.wakeTick = int64(cfg.Warmup / cfg.Tick)
	e.endTick = e.wakeTick + int64(cfg.Window/cfg.Tick)
	e.ncoh = int32(min(n, maxCohorts))
	e.hbTicks = max(int64(cfg.HeartbeatPeriod/cfg.Tick), 1)
	e.cohortOn = make([]int32, e.ncoh)
	e.res = &Result{
		Nodes:        n,
		Availability: e.avail,
		QuorumFrac:   cfg.QuorumFrac,
	}
	return e
}

// setDeadline records id's single live deadline and books it on the
// wheel if it can fire: the run stops at endTick, so a later deadline
// (most of them — the power-cycle means dwarf the window) is only
// remembered, which is all the staleness check needs. Superseded
// entries are cancelled lazily — nodeEvent skips a fired (tick, id)
// whose deadline has moved on. init and wakeup store their deadlines in
// a sweep and book them by the same rule in one scan after it.
func (e *engine) setDeadline(id int32, tick int64) {
	e.deadline[id] = tick
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

// expTicks draws Exp(mean seconds) rounded to ticks, at least 1.
func (e *engine) expTicks(s *uint64, mean float64) int64 {
	return max(int64(math.Round(-mean*math.Log(unitOpen(s))/e.secPerTick)), 1)
}

// loadTicks draws the carousel load time W ~ U(C, 2C) in ticks: the
// node joins the cyclic carousel at a uniformly random phase and needs
// the remainder of the current cycle plus one full cycle.
func (e *engine) loadTicks(s *uint64) int64 {
	w := e.cycleSec * (1 + unitHalf(s))
	return max(int64(math.Round(w/e.secPerTick)), 1)
}

// init draws the stationary initial state and books the fixed events:
// the wakeup broadcast, the first availability and ramp samplers, and
// one staggered heartbeat generator per cohort.
//
// Stationary initialization is what makes the availability samples
// exactly Binomial(Nodes, a): each node is on with probability a, and
// its residual period is a fresh exponential draw (legitimate by
// memorylessness), so the alternating process starts in equilibrium
// instead of converging toward it during warm-up.
//
// The draws run as a sweep over id ranges, each range tallying its own
// on-count; the deadlines are booked afterwards in id order, so the
// wheel sees the same insertion sequence at any core count.
func (e *engine) init() {
	k := sweepRanges(len(e.phase))
	tallies := make([]initTally, k)
	sweep(k, len(e.phase), func(r, lo, hi int) { tallies[r] = e.initRange(lo, hi) })
	for r := range tallies {
		e.onCount += tallies[r].on
		for c := range e.cohortOn {
			e.cohortOn[c] += tallies[r].cohortOn[c]
		}
	}
	for i, d := range e.deadline {
		if d <= e.endTick {
			e.whl.Schedule(d, int32(i))
		}
	}

	e.whl.Schedule(e.wakeTick, idWakeup)

	e.availTicks = sampleGrid(0, e.wakeTick, e.cfg.Samples)
	e.rampTicks = sampleGrid(e.wakeTick, e.endTick, e.cfg.Samples)
	e.whl.Schedule(e.availTicks[0], idAvail)
	e.whl.Schedule(e.rampTicks[0], idRamp)

	for k := int32(0); k < e.ncoh; k++ {
		first := (int64(k)*e.hbTicks)/int64(e.ncoh) + 1
		e.whl.Schedule(first, idCohortBase-k)
	}
}

// initTally is one id range's share of the initial on-counts.
type initTally struct {
	on       int
	cohortOn [maxCohorts]int32
}

// initRange draws nodes [lo, hi): seed, phase, offAt and deadline, every
// one written, and tallies the on nodes.
func (e *engine) initRange(lo, hi int) (tl initTally) {
	for i := lo; i < hi; i++ {
		s := &e.rng[i]
		*s = uint64(e.cfg.Seed)*0xD1342543DE82EF95 + (uint64(i)+1)*0x9E3779B97F4A7C15
		if unitHalf(s) < e.avail {
			e.phase[i] = phaseIdle
			tl.on++
			tl.cohortOn[int32(i)%e.ncoh]++
			e.offAt[i] = e.expTicks(s, e.meanOnSec)
			e.deadline[i] = e.offAt[i]
		} else {
			e.phase[i] = phaseOff
			e.offAt[i] = 0
			e.deadline[i] = e.expTicks(s, e.meanOffSec)
		}
	}
	return tl
}

// minSweepRange is the fewest nodes worth a goroutine of their own in a
// sweep (~0.7 ms of init draws).
const minSweepRange = 1 << 14

// sweepRanges is the number of id ranges a sweep over n nodes uses: one
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
// there, then the joins the batch deferred.
func (e *engine) fire(tick int64, ids []int32) {
	e.res.WheelBatches++
	for _, id := range ids {
		if id >= 0 {
			e.nodeEvent(tick, id)
		} else {
			e.sentinel(tick, id)
		}
	}
	e.drainJoins(tick)
}

// nodeEvent applies one node's due transition. The staleness check is
// the wheel's lazy cancellation: a deadline that moved after this entry
// was scheduled leaves the stale (tick, id) behind, and it is dropped
// here.
func (e *engine) nodeEvent(tick int64, id int32) {
	if e.deadline[id] != tick {
		return
	}
	e.res.NodeEvents++
	switch e.phase[id] & phaseMask {
	case phaseOff:
		e.powerOn(tick, id)
	case phaseIdle, phaseJoined:
		e.powerOff(tick, id)
	case phaseLoading:
		if tick >= e.offAt[id] {
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
	e.offAt[id] = tick + e.expTicks(s, e.meanOnSec)
	if tick >= e.wakeTick {
		// The wakeup message and image are still on the carousel:
		// late arrivals load and join too (they are counted in the
		// instance, but not in the direct ramp statistic).
		e.phase[id] = phaseLoading
		e.setDeadline(id, min(tick+e.loadTicks(s), e.offAt[id]))
	} else {
		e.phase[id] = phaseIdle
		e.setDeadline(id, e.offAt[id])
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
	e.setDeadline(id, tick+e.expTicks(&e.rng[id], e.meanOffSec))
}

// drainJoins completes the load→join transitions deferred by the fire
// batch and checks the quorum crossing.
func (e *engine) drainJoins(tick int64) {
	for {
		id, ok := e.joinq.PopFront()
		if !ok {
			return
		}
		e.phase[id] = phaseJoined | e.phase[id]&flagDirect
		e.setDeadline(id, e.offAt[id])
		e.joined++
		if e.ext != nil {
			e.ext.onJoin(id)
		}
		if e.phase[id]&flagDirect != 0 {
			e.directOn++
			e.directJoins++
			if e.quorumTick < 0 && e.directOn >= e.quorumNeed {
				e.quorumTick = tick
			}
		}
	}
}

func (e *engine) sentinel(tick int64, id int32) {
	switch id {
	case idWakeup:
		e.wakeup(tick)
	case idAvail:
		e.sampleAvail(tick)
	case idRamp:
		e.sampleRamp(tick)
	default:
		// Sharded-overlay sentinels sit far below the cohort range;
		// give the extension first refusal before the cohort decode.
		if e.ext != nil && e.ext.sentinel(tick, id) {
			return
		}
		e.heartbeat(tick, idCohortBase-id)
	}
}

// wakeup broadcasts the instance creation: every on node joins the
// carousel at a random phase. This is the one O(Nodes) event; all
// other work is proportional to transitions, not population. Like init,
// it draws in a sweep over id ranges and books in id order after.
func (e *engine) wakeup(tick int64) {
	e.availAtWake = e.onCount
	e.quorumNeed = int(math.Ceil(e.cfg.QuorumFrac * float64(e.availAtWake)))
	n := len(e.phase)
	sweep(sweepRanges(n), n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if e.phase[i] == phaseIdle {
				e.phase[i] = phaseLoading | flagDirect
				e.deadline[i] = min(tick+e.loadTicks(&e.rng[i]), e.offAt[i])
			}
		}
	})
	// Only this sweep sets phaseLoading|flagDirect, so the scan books
	// exactly its deadlines, in id order.
	for i, p := range e.phase {
		if p == phaseLoading|flagDirect && e.deadline[i] <= e.endTick {
			e.whl.Schedule(e.deadline[i], int32(i))
		}
	}
	if e.ext != nil {
		e.ext.onWakeup()
	}
}

func (e *engine) sampleAvail(tick int64) {
	t := float64(tick) * e.secPerTick
	e.res.Avail = append(e.res.Avail, Point{
		T:     t,
		Sim:   float64(e.onCount) / float64(e.cfg.Nodes),
		Model: e.avail,
		Tol:   e.tolFor(e.avail, e.cfg.Nodes),
	})
	e.availIdx++
	if e.availIdx < len(e.availTicks) {
		e.whl.Schedule(e.availTicks[e.availIdx], idAvail)
	}
}

func (e *engine) sampleRamp(tick int64) {
	t := float64(tick-e.wakeTick) * e.secPerTick
	model := e.params.RampUpWithChurn(t, e.meanOnSec)
	sim := 0.0
	if e.availAtWake > 0 {
		sim = float64(e.directOn) / float64(e.availAtWake)
	}
	e.res.Ramp = append(e.res.Ramp, Point{
		T:     t,
		Sim:   sim,
		Model: model,
		Tol:   e.tolFor(model, e.availAtWake),
	})
	e.rampIdx++
	if e.rampIdx < len(e.rampTicks) {
		e.whl.Schedule(e.rampTicks[e.rampIdx], idRamp)
	}
}

// heartbeat generates one cohort's heartbeats as a single counted
// batch: cohortOn[k] nodes each owe one heartbeat this period. Nothing
// per-node is materialized — this is the batched generation that keeps
// 10⁶ nodes from costing 10⁶ events every period.
func (e *engine) heartbeat(tick int64, k int32) {
	e.res.Heartbeats += uint64(e.cohortOn[k])
	if next := tick + e.hbTicks; next <= e.endTick {
		e.whl.Schedule(next, idCohortBase-k)
	}
}

// tolFor is the acceptance tolerance for a Binomial(n, p) fraction:
// five standard deviations plus one tick's worth of curve motion (load
// completions and power flips are quantized to ticks). p is clamped
// away from {0, 1} by the discretization floor so the bound never
// collapses to zero at the curve's flats.
func (e *engine) tolFor(p float64, n int) float64 {
	if n <= 0 {
		return 1
	}
	floor := e.secPerTick / e.cycleSec
	p = min(max(p, floor), 1-floor)
	return 5*math.Sqrt(p*(1-p)/float64(n)) + floor
}

// finish assembles the result, computing the model quorum time by
// bisecting the churn-adjusted ramp and converting the binomial count
// fluctuation into seconds through the curve's local slope.
func (e *engine) finish() *Result {
	r := e.res
	r.AvailAtWake = e.availAtWake
	r.DirectJoins = e.directJoins
	r.FinalJoined = e.joined
	r.SimEvents = r.WheelBatches
	r.QuorumSimSeconds = -1
	if e.quorumTick >= 0 {
		r.QuorumSimSeconds = float64(e.quorumTick-e.wakeTick) * e.secPerTick
	}

	q := e.cfg.QuorumFrac
	curve := func(t float64) float64 { return e.params.RampUpWithChurn(t, e.meanOnSec) }
	r.QuorumModelSeconds = math.Inf(1)
	if hi := 2 * e.cycleSec; curve(hi) >= q {
		lo := e.cycleSec
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
		h := e.secPerTick
		slope := (curve(t+h) - curve(t-h)) / (2 * h)
		if slope <= 0 {
			slope = 1 / e.cycleSec
		}
		sigma := math.Sqrt(q * (1 - q) / float64(max(e.availAtWake, 1)))
		r.QuorumTolSeconds = (6*sigma+e.secPerTick/e.cycleSec)/slope + 2*e.secPerTick
	}
	return r
}
