package federation

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"oddci/internal/analytic"
	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/controller"
	"oddci/internal/core/instance"
	"oddci/internal/dsmcc"
	"oddci/internal/journal"
	"oddci/internal/middleware"
	"oddci/internal/obs"
	"oddci/internal/simtime"
)

// DriverConfig configures a federation convergence run: real journal-
// backed Controllers, one per shard, driven against a simulated PNA
// population on a virtual clock. This is the machinery behind the
// convergence and failover gates in driver_test.go.
type DriverConfig struct {
	Shards      int
	PerShardPop int // simulated PNAs per shard
	TotalTarget int // aggregate instance size requested from the federation

	// ImageBytes and Beta parameterize the node-side load model: a
	// recruited PNA completes its image W ~ U(C, 2C) seconds after the
	// wakeup, C = ImageBytes·8/Beta — the random-phase carousel model
	// behind the paper's W = 1.5·I/β.
	ImageBytes int
	Beta       float64

	Seed    int64
	BaseDir string // per-shard journal state dirs live under here
	Obs     *obs.Registry

	// HeartbeatEvery is the per-shard heartbeat sweep period (default
	// 45s — inside the controller's 3-minute staleness window).
	HeartbeatEvery time.Duration

	// Timeout bounds the simulated run (default 30 minutes).
	Timeout time.Duration

	// KillShard, when >= 0, crashes that shard's controller once the
	// aggregate fill reaches KillAtFrac of the target, then fails it
	// over RecoverAfter later via the journal rebuild path.
	KillShard    int
	KillAtFrac   float64
	RecoverAfter time.Duration

	// StarveShard0 powers off shard 0's entire remaining idle pool and
	// half of its recruits right after the wakeup, leaving a deficit
	// that only cross-shard rebalancing can close.
	StarveShard0 bool
	// RebalanceEvery enables periodic Rebalance passes (0 = never).
	RebalanceEvery time.Duration
}

// DriverResult reports a run's outcome.
type DriverResult struct {
	Converged       bool
	ConvergeSeconds float64 // sim seconds from create to busy >= target
	Wakeups         int     // wakeup broadcasts observed across all shards
	DuplicateWakeup int     // wakeups re-airing an already-seen sequence
	FailedOver      bool
	ReadoptedBusy   int // busy members on the killed shard surviving recovery
	MovedTarget     int // target units shifted by rebalancing
	FinalBusy       int
	Target          int
}

const (
	nodeIdle uint8 = iota
	nodeLoading
	nodeBusy
	nodeOff
)

type driverShard struct {
	id    ShardID
	ids   []uint64
	state []uint8
	inst  instance.ID // instance a loading/busy node belongs to
	store *journal.Store
	// maxSeq tracks the highest wakeup sequence seen per instance part
	// on this shard — a repeat is a duplicate wakeup.
	maxSeq map[instance.ID]uint32
}

type driver struct {
	cfg DriverConfig
	clk *simtime.Sim
	fed *Federation
	rng *rand.Rand

	mu     sync.Mutex
	shards []*driverShard
	res    DriverResult
	done   bool

	// wakeQ holds OnWakeup events; the hook runs with the Controller
	// lock held, so recruitment is deferred to a zero-delay timer.
	wakeQ []wakeEvent
}

type wakeEvent struct {
	shard ShardID
	inst  instance.ID
	seq   uint32
	prob  float64
}

// RunDriver executes one federation convergence scenario.
func RunDriver(cfg DriverConfig) (DriverResult, error) {
	if cfg.Shards <= 0 || cfg.PerShardPop <= 0 || cfg.TotalTarget <= 0 {
		return DriverResult{}, errors.New("federation: driver needs shards, population and target")
	}
	if cfg.Beta <= 0 || cfg.ImageBytes <= 0 {
		return DriverResult{}, errors.New("federation: driver needs a carousel model (ImageBytes, Beta)")
	}
	if cfg.BaseDir == "" {
		return DriverResult{}, errors.New("federation: driver needs a state dir")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 45 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Minute
	}

	clk := simtime.NewSim(time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC))
	d := &driver{cfg: cfg, clk: clk, rng: rand.New(rand.NewSource(cfg.Seed))}

	if err := d.build(); err != nil {
		return d.res, err
	}
	defer d.teardown()
	return d.run()
}

// buildShardController assembles one journal-backed started Controller
// over its own broadcast stack — the initial construction and the
// Failover rebuild share it (the system.RestartController recipe).
func buildShardController(clk *simtime.Sim, dir string, seed int64,
	onWakeup func(instance.ID, uint32, float64)) (*controller.Controller, *journal.Store, error) {
	store, err := journal.Open(dir, journal.Options{NoSync: true, Clock: clk})
	if err != nil {
		return nil, nil, err
	}
	car, err := dsmcc.NewCarousel(0x300, 0)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	bcast, err := dsmcc.NewBroadcaster(clk, car, 1e6)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	_, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	ctrl, err := controller.New(controller.Config{
		Clock: clk, Broadcaster: bcast,
		Signalling: middleware.NewSignalling(clk, 0),
		Key:        priv, Rng: rng, Journal: store,
		OnWakeup: onWakeup,
	})
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	if err := ctrl.Start(); err != nil {
		store.Close()
		return nil, nil, err
	}
	return ctrl, store, nil
}

// build assembles the shards, seeds their populations, and wires the
// federation.
func (d *driver) build() error {
	cfg := d.cfg
	shards := make([]Shard, cfg.Shards)
	d.shards = make([]*driverShard, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		i := i
		dir := filepath.Join(cfg.BaseDir, fmt.Sprintf("shard-%03d", i))
		seed := cfg.Seed + int64(i)*7919
		ctrl, store, err := buildShardController(d.clk, dir, seed, d.onWakeup(ShardID(i)))
		if err != nil {
			return err
		}
		d.shards[i] = &driverShard{id: ShardID(i), store: store, maxSeq: make(map[instance.ID]uint32)}
		shards[i] = Shard{
			ID:   ShardID(i),
			Ctrl: ctrl,
			Rebuild: func() (*controller.Controller, error) {
				c, st, err := buildShardController(d.clk, dir, seed+104729, d.onWakeup(ShardID(i)))
				if err != nil {
					return nil, err
				}
				d.mu.Lock()
				d.shards[i].store = st
				d.mu.Unlock()
				return c, nil
			},
		}
	}
	fed, err := New(Config{Shards: shards, Obs: cfg.Obs})
	if err != nil {
		return err
	}
	d.fed = fed

	// Partition node identities over shards by ring ownership, so the
	// simulated PNAs land on exactly the coordinator their identity
	// hashes to. Stop once every shard holds PerShardPop nodes.
	want := cfg.Shards * cfg.PerShardPop
	placed := 0
	for id := uint64(1); placed < want; id++ {
		s := fed.Ring().Owner(id)
		ds := d.shards[s]
		if len(ds.ids) >= cfg.PerShardPop {
			continue
		}
		ds.ids = append(ds.ids, id)
		ds.state = append(ds.state, nodeIdle)
		placed++
	}
	return nil
}

func (d *driver) teardown() {
	d.mu.Lock()
	d.done = true
	d.mu.Unlock()
	for _, s := range d.fed.Shards() {
		if ctrl, err := d.fed.Controller(s); err == nil {
			ctrl.Stop()
		}
	}
	for _, ds := range d.shards {
		if ds.store != nil {
			ds.store.Close()
		}
	}
	d.clk.Wait()
}

// onWakeup returns the OnWakeup hook for one shard. It runs with the
// Controller lock held, so it only records the event; recruitment runs
// from a zero-delay timer.
func (d *driver) onWakeup(s ShardID) func(instance.ID, uint32, float64) {
	return func(id instance.ID, seq uint32, prob float64) {
		d.mu.Lock()
		if d.done {
			d.mu.Unlock()
			return
		}
		d.res.Wakeups++
		ds := d.shards[s]
		if prev, ok := ds.maxSeq[id]; ok && seq <= prev {
			d.res.DuplicateWakeup++
		} else {
			ds.maxSeq[id] = seq
		}
		d.wakeQ = append(d.wakeQ, wakeEvent{shard: s, inst: id, seq: seq, prob: prob})
		d.mu.Unlock()
		d.clk.AfterFunc(0, d.drainWakeups)
	}
}

// drainWakeups runs deferred recruitment: Bernoulli(prob) over the
// shard's idle nodes; recruits complete their image load W ~ U(C, 2C)
// later and report busy.
func (d *driver) drainWakeups() {
	d.mu.Lock()
	q := d.wakeQ
	d.wakeQ = nil
	if d.done {
		d.mu.Unlock()
		return
	}
	c := float64(d.cfg.ImageBytes) * 8 / d.cfg.Beta
	var joins []driverJoin
	for _, ev := range q {
		ds := d.shards[ev.shard]
		for n := range ds.ids {
			if ds.state[n] != nodeIdle {
				continue
			}
			if d.rng.Float64() >= ev.prob {
				continue
			}
			ds.state[n] = nodeLoading
			ds.inst = ev.inst
			w := time.Duration((c + c*d.rng.Float64()) * float64(time.Second))
			joins = append(joins, driverJoin{shard: ev.shard, node: n, after: w})
		}
		if d.cfg.StarveShard0 && ev.shard == 0 {
			joins = d.starveShard0Locked(joins)
		}
	}
	d.mu.Unlock()
	for _, j := range joins {
		j := j
		d.clk.AfterFunc(j.after, func() { d.joinNode(j.shard, j.node) })
	}
}

type driverJoin struct {
	shard ShardID
	node  int
	after time.Duration
}

// starveShard0Locked powers off shard 0's remaining idle pool and every
// other recruit — the uncoverable-deficit scenario. Caller holds d.mu.
func (d *driver) starveShard0Locked(joins []driverJoin) []driverJoin {
	ds := d.shards[0]
	for n := range ds.ids {
		if ds.state[n] == nodeIdle {
			ds.state[n] = nodeOff
		}
	}
	kept := joins[:0]
	odd := false
	for _, j := range joins {
		if j.shard == 0 {
			odd = !odd
			if odd {
				ds.state[j.node] = nodeOff
				continue
			}
		}
		kept = append(kept, j)
	}
	return kept
}

// joinNode completes one recruit's image load: it turns busy and
// reports in immediately.
func (d *driver) joinNode(s ShardID, n int) {
	d.mu.Lock()
	if d.done || d.shards[s].state[n] != nodeLoading {
		d.mu.Unlock()
		return
	}
	d.shards[s].state[n] = nodeBusy
	id := d.shards[s].ids[n]
	inst := d.shards[s].inst
	d.mu.Unlock()
	d.heartbeat(s, n, id, control.StateBusy, inst)
}

// heartbeat reports one node's state to its home shard and applies the
// reply (reset commands return the node to idle). Heartbeats to a down
// shard are dropped — consolidation stalls until failover.
func (d *driver) heartbeat(s ShardID, n int, id uint64, st control.NodeState, inst instance.ID) {
	_, ctrl, err := d.fed.Route(id)
	if err != nil {
		return
	}
	hb := &control.Heartbeat{
		NodeID: id, State: st, InstanceID: inst,
		Profile: instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100},
		SentAt:  d.clk.Now(),
	}
	reply := ctrl.HandleHeartbeat(hb)
	if reply != nil && reply.Command == control.CmdReset {
		d.mu.Lock()
		if d.shards[s].state[n] == nodeBusy {
			d.shards[s].state[n] = nodeIdle
		}
		d.mu.Unlock()
	}
}

// sweep sends one heartbeat round for every live node on a shard.
func (d *driver) sweep(s ShardID) {
	d.mu.Lock()
	if d.done {
		d.mu.Unlock()
		return
	}
	ds := d.shards[s]
	type hb struct {
		n    int
		id   uint64
		st   control.NodeState
		inst instance.ID
	}
	batch := make([]hb, 0, len(ds.ids))
	for n, id := range ds.ids {
		switch ds.state[n] {
		case nodeIdle:
			batch = append(batch, hb{n: n, id: id, st: control.StateIdle})
		case nodeBusy:
			batch = append(batch, hb{n: n, id: id, st: control.StateBusy, inst: ds.inst})
		}
	}
	d.mu.Unlock()
	for _, b := range batch {
		d.heartbeat(s, b.n, b.id, b.st, b.inst)
	}
}

// run seeds the populations, creates the instance, and steps virtual
// time until convergence (aggregate busy >= target) or timeout.
func (d *driver) run() (DriverResult, error) {
	cfg := d.cfg
	// Initial idle round so Create sees the populations, then periodic
	// sweeps keep them inside the staleness window.
	for i := range d.shards {
		d.sweep(ShardID(i))
	}
	for i := range d.shards {
		s := ShardID(i)
		var tick func()
		tick = func() {
			d.sweep(s)
			d.mu.Lock()
			stop := d.done
			d.mu.Unlock()
			if !stop {
				d.clk.AfterFunc(cfg.HeartbeatEvery, tick)
			}
		}
		d.clk.AfterFunc(cfg.HeartbeatEvery, tick)
	}

	img := &appimage.Image{
		Name: "fed-bench", EntryPoint: "run",
		Payload: []byte("federation-driver"),
	}
	start := d.clk.Now()
	// InitialProbability 0 lets every shard size its own wakeup
	// probability from its idle population (target·safety/idle).
	inst, err := d.fed.Create(controller.InstanceSpec{
		Image: img, Target: cfg.TotalTarget, InitialProbability: 0,
	})
	if err != nil {
		return d.res, err
	}
	d.res.Target = cfg.TotalTarget

	params := analytic.Params{ImageBits: float64(cfg.ImageBytes) * 8, Beta: cfg.Beta}
	killed, recovered := false, false
	var recoverAt time.Time
	lastRebalance := start

	step := time.Second
	for d.clk.Now().Sub(start) < cfg.Timeout {
		d.clk.RunUntil(d.clk.Now().Add(step))
		now := d.clk.Now()

		if cfg.RebalanceEvery > 0 && now.Sub(lastRebalance) >= cfg.RebalanceEvery {
			lastRebalance = now
			moved, err := d.fed.Rebalance(params, now.Sub(start).Seconds(), 0)
			if err != nil {
				return d.res, err
			}
			d.res.MovedTarget += moved
		}

		agg, aggErr := inst.Status()
		if killed && !recovered && now.Sub(recoverAt) >= 0 {
			if _, err := d.fed.Failover(ShardID(cfg.KillShard)); err != nil {
				return d.res, err
			}
			recovered = true
			d.res.FailedOver = true
			// The next sweep re-adopts survivors; count the busy nodes
			// that outlived the outage.
			d.sweep(ShardID(cfg.KillShard))
			d.mu.Lock()
			for n := range d.shards[cfg.KillShard].ids {
				if d.shards[cfg.KillShard].state[n] == nodeBusy {
					d.res.ReadoptedBusy++
				}
			}
			d.mu.Unlock()
			continue
		}
		if aggErr != nil {
			continue // a shard is down; keep stepping toward failover
		}

		if cfg.KillShard >= 0 && !killed &&
			float64(agg.Busy) >= cfg.KillAtFrac*float64(cfg.TotalTarget) {
			killed = true
			recoverAt = now.Add(cfg.RecoverAfter)
			victim := ShardID(cfg.KillShard)
			ctrl, err := d.fed.Controller(victim)
			if err != nil {
				return d.res, err
			}
			if err := d.fed.Kill(victim); err != nil {
				return d.res, err
			}
			ctrl.Stop()
			d.mu.Lock()
			if st := d.shards[victim].store; st != nil {
				st.Close()
				d.shards[victim].store = nil
			}
			d.mu.Unlock()
			continue
		}

		if agg.Busy >= agg.Target && agg.Target > 0 && (cfg.KillShard < 0 || recovered) {
			d.res.Converged = true
			d.res.ConvergeSeconds = now.Sub(start).Seconds()
			d.res.FinalBusy = agg.Busy
			return d.res, nil
		}
	}
	if agg, err := inst.Status(); err == nil {
		d.res.FinalBusy = agg.Busy
	}
	return d.res, nil
}
