// Package system wires a complete OddCI-DTV deployment over virtual
// time: one broadcast head-end (Controller + carousel + AIT), one
// Backend, one Provider, and a fleet of simulated set-top boxes running
// PNA Xlets under real DTV middleware. Every component is the same code
// that unit tests exercise in isolation; this package only assembles
// and starts them.
//
// The same wiring runs under the wall clock (demos) and the
// discrete-event clock (experiments), per the simtime contract.
package system

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"oddci/internal/control"
	"oddci/internal/core/backend"
	"oddci/internal/core/controller"
	"oddci/internal/core/dve"
	"oddci/internal/core/instance"
	"oddci/internal/core/pna"
	"oddci/internal/core/provider"
	"oddci/internal/dsmcc"
	"oddci/internal/flute"
	"oddci/internal/journal"
	"oddci/internal/middleware"
	"oddci/internal/netsim"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
	"oddci/internal/stb"
)

// Config sizes a deployment. Zero values select the paper's defaults.
type Config struct {
	Clock simtime.Clock
	// Nodes is the number of set-top boxes.
	Nodes int
	// Beta is the spare broadcast capacity in bps (default 1 Mbps).
	Beta float64
	// Delta is the per-node direct-channel capacity in bps each way
	// (default 150 kbps).
	Delta float64
	// Seed drives every random stream in the deployment.
	Seed int64
	// HeartbeatPeriod is the default PNA reporting interval.
	HeartbeatPeriod time.Duration
	// MaintenancePeriod is the Controller's instance-size loop.
	MaintenancePeriod time.Duration
	// Strategy selects the carousel receiver behaviour.
	Strategy dsmcc.ReceiverStrategy
	// StandbyFraction of nodes idle in standby; the rest are in use.
	StandbyFraction float64
	// initialPowerOn is the fraction of nodes powered at Start
	// (default 1).
	initialPowerOn float64
	// Replication runs every task on this many distinct nodes with
	// majority voting at the Backend (default 1).
	Replication int
	// TargetHeartbeatRate, if positive, lets the Controller re-tune
	// idle nodes' heartbeat periods to bound its inbound load.
	TargetHeartbeatRate float64
	// Obs, if set, collects telemetry from every component
	// (oddci_controller_*, oddci_backend_*, oddci_pna_*, oddci_dve_*,
	// oddci_dsmcc_*, oddci_netsim_*).
	Obs *obs.Registry
	// Spans, if set, records end-to-end causal traces: wakeup
	// broadcasts start root spans, PNAs hang join/image-load/dve-start
	// under them, and the Backend closes each tree with
	// dispatch/lease-expiry/commit spans. The same collector holds the
	// lifecycle timeline as point events: instance create/trim/destroy/
	// gc and refresh health from the Controller, leaves from the PNAs,
	// power transitions from here.
	Spans *span.Collector
	// HeadEndFaults, if set, injects failures into the Controller's
	// carousel updates (not into the receivers), exercising the
	// refresh-retry path. The first airing is never injected.
	HeadEndFaults *netsim.FaultPlan
	// Adversary, if set, turns the assigned fraction of nodes byzantine:
	// their result submissions are rewritten on the wire (wrong payloads,
	// forged or replayed credentials) per the plan's deterministic
	// per-node streams. The nodes run the stock worker; only their
	// uplinks lie.
	Adversary *netsim.AdversaryPlan
	// CredentialMode selects the Backend's result-credential policy
	// (default CredOff: the pre-credential wire).
	CredentialMode backend.CredentialMode
	// ResetRetransmitTicks is how many maintenance passes a destroyed
	// instance's reset stays on air before GC (default 3).
	ResetRetransmitTicks int
	// RefreshRetryBase and RefreshRetryMax bound the Controller's
	// head-end retry backoff (defaults 5s and 2min).
	RefreshRetryBase time.Duration
	RefreshRetryMax  time.Duration
	// Transport selects the broadcast substrate: the DTV DSM-CC
	// carousel (default) or the FLUTE-style IP-multicast caster of
	// §3.3.
	Transport Transport
	// DeviceMix, if non-empty, draws each node's profile from these
	// weighted specs (fractions are normalized); empty means a uniform
	// reference-STB population. This is §3's heterogeneous device
	// universe — wakeup requirements select within it.
	DeviceMix []DeviceSpec
	// StateDir, if set, makes the control plane durable: the Controller
	// journals lifecycle mutations there, and CrashController /
	// RestartController exercise a hard stop + journal recovery
	// while the carousel keeps cycling and the devices stay up.
	StateDir string
}

// DeviceSpec is one stratum of a heterogeneous population.
type DeviceSpec struct {
	Fraction float64
	Profile  instance.DeviceProfile
}

// Transport enumerates broadcast substrates.
type Transport int

// Broadcast substrates (§3.3 enabling technologies).
const (
	TransportDTV Transport = iota
	TransportIPMulticast
)

func (c *Config) fill() error {
	if c.Clock == nil {
		return errors.New("system: clock is required")
	}
	if c.Nodes <= 0 {
		return errors.New("system: need at least one node")
	}
	if c.Beta == 0 {
		c.Beta = 1e6
	}
	if c.Delta == 0 {
		c.Delta = 150e3
	}
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = time.Minute
	}
	if c.MaintenancePeriod <= 0 {
		c.MaintenancePeriod = time.Minute
	}
	if c.initialPowerOn == 0 {
		c.initialPowerOn = 1
	}
	if c.initialPowerOn < 0 || c.initialPowerOn > 1 || c.StandbyFraction < 0 || c.StandbyFraction > 1 {
		return errors.New("system: fractions must be in [0,1]")
	}
	return nil
}

// System is an assembled deployment.
type System struct {
	cfg Config

	Clock      simtime.Clock
	Controller *controller.Controller
	Provider   *provider.Provider
	Backend    *backend.Backend
	Registry   *dve.Registry
	STBs       []*stb.STB

	bcast         *dsmcc.Broadcaster
	controllerPub ed25519.PublicKey

	// Durable control-plane state (Config.StateDir): the journal store,
	// the controller config template (head-end included) needed to
	// rebuild a Controller after a crash, and a dedicated restart rng
	// stream so recovery does not perturb the deployment's other
	// deterministic draws.
	store      *journal.Store
	ctrlCfg    controller.Config
	restartRng *rand.Rand

	mu      sync.Mutex
	byInst  map[instance.ID]map[uint64]bool // live busy membership, direct observation
	started bool
	crashed bool
}

// New assembles (but does not start) a deployment.
func New(cfg Config) (*System, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	clk := cfg.Clock
	rng := rand.New(rand.NewSource(cfg.Seed))

	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("system: keygen: %w", err)
	}

	// The broadcast substrate is a choice of wire layout; one playout
	// engine airs either, so the rest of the system is identical.
	var content dsmcc.Content
	switch cfg.Transport {
	case TransportIPMulticast:
		content = flute.NewSession()
	default:
		content, err = dsmcc.NewCarousel(0x300, 0)
		if err != nil {
			return nil, err
		}
	}
	bcast, err := dsmcc.NewBroadcaster(clk, content, cfg.Beta)
	if err != nil {
		return nil, err
	}
	bcast.Instrument(cfg.Obs)
	sig := middleware.NewSignalling(clk, middleware.DefaultAITPeriod)

	// Fault injection wraps only the Controller's transmit path; the
	// receivers keep reading whatever the carousel last committed.
	head := controller.HeadEnd(bcast)
	if cfg.HeadEndFaults != nil {
		head = &faultyHeadEnd{HeadEnd: bcast, plan: cfg.HeadEndFaults}
		cfg.HeadEndFaults.Instrument(cfg.Obs, "headend")
	}

	ctrlCfg := controller.Config{
		Clock:                clk,
		Broadcaster:          head,
		Signalling:           sig,
		Key:                  priv,
		OrgID:                0x0DDC1,
		MaintenancePeriod:    cfg.MaintenancePeriod,
		TargetHeartbeatRate:  cfg.TargetHeartbeatRate,
		ResetRetransmitTicks: cfg.ResetRetransmitTicks,
		RefreshRetryBase:     cfg.RefreshRetryBase,
		RefreshRetryMax:      cfg.RefreshRetryMax,
		Obs:                  cfg.Obs,
		Spans:                cfg.Spans,
	}
	var store *journal.Store
	if cfg.StateDir != "" {
		var err error
		store, err = journal.Open(cfg.StateDir, journal.Options{Obs: cfg.Obs, Clock: clk})
		if err != nil {
			return nil, err
		}
	}
	runCfg := ctrlCfg
	runCfg.Journal = store
	runCfg.Rng = rand.New(rand.NewSource(rng.Int63()))
	ctrl, err := controller.New(runCfg)
	if err != nil {
		return nil, err
	}
	beCfg := backend.Config{Clock: clk, Replication: cfg.Replication, Obs: cfg.Obs, Spans: cfg.Spans, CredentialMode: cfg.CredentialMode}
	if cfg.CredentialMode != backend.CredOff {
		// Deterministic MAC secret: derived from the deployment seed so
		// credentialed runs replay bit-identically.
		secret := make([]byte, 32)
		rng.Read(secret)
		beCfg.CredentialSecret = secret
	}
	if cfg.Adversary != nil {
		// Facing an adversary, track credibility even at Replication 1 so
		// credential rejections still quarantine.
		beCfg.TrackCredibility = true
		cfg.Adversary.Instrument(cfg.Obs, "adversary")
	}
	be, err := backend.New(beCfg)
	if err != nil {
		return nil, err
	}
	reg := dve.NewRegistry()
	reg.Register(backend.WorkerEntryPoint, backend.Worker)

	s := &System{
		cfg:           cfg,
		Clock:         clk,
		Controller:    ctrl,
		Provider:      provider.New(ctrl),
		Backend:       be,
		Registry:      reg,
		bcast:         bcast,
		controllerPub: pub,
		store:         store,
		ctrlCfg:       ctrlCfg,
		restartRng:    rand.New(rand.NewSource(rng.Int63())),
		byInst:        make(map[instance.ID]map[uint64]bool),
	}

	var mixTotal float64
	for _, d := range cfg.DeviceMix {
		if d.Fraction <= 0 {
			return nil, errors.New("system: device-mix fractions must be positive")
		}
		mixTotal += d.Fraction
	}
	drawProfile := func(r *rand.Rand) instance.DeviceProfile {
		if len(cfg.DeviceMix) == 0 {
			return instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100}
		}
		x := r.Float64() * mixTotal
		for _, d := range cfg.DeviceMix {
			if x < d.Fraction {
				return d.Profile
			}
			x -= d.Fraction
		}
		return cfg.DeviceMix[len(cfg.DeviceMix)-1].Profile
	}

	linkCfg := netsim.LinkConfig{RateBps: cfg.Delta}
	for i := 0; i < cfg.Nodes; i++ {
		nodeID := uint64(i + 1)
		nodeRng := rand.New(rand.NewSource(rng.Int63()))
		mode := stb.InUse
		if nodeRng.Float64() < cfg.StandbyFraction {
			mode = stb.Standby
		}
		box, err := stb.New(stb.Config{
			ID:          nodeID,
			Clock:       clk,
			Broadcaster: bcast,
			Signalling:  sig,
			Profile:     drawProfile(nodeRng),
			Mode:        mode,
			Strategy:    cfg.Strategy,
			Rng:         nodeRng,
		})
		if err != nil {
			return nil, err
		}
		factory, err := pna.NewFactory(pna.Config{
			NodeID:           nodeID,
			Profile:          box.Profile(),
			ControllerKey:    pub,
			DialController:   s.dialer(linkCfg, "controller", s.serveController),
			DialBackend:      s.backendDialer(linkCfg, be.Serve, nodeID),
			Registry:         reg,
			TaskDuration:     box.TaskDuration,
			Rng:              rand.New(rand.NewSource(nodeRng.Int63())),
			DefaultHeartbeat: cfg.HeartbeatPeriod,
			OnStateChange:    s.noteState,
			Obs:              cfg.Obs,
			Spans:            cfg.Spans,
		})
		if err != nil {
			return nil, err
		}
		box.OnPower = func(on bool, _ time.Time) {
			if !on {
				// A box that dies mid-task leaves no state-change
				// callback behind; evict it from the oracle so LiveBusy
				// does not count ghosts.
				s.notePowerGone(nodeID)
			}
			if cfg.Spans != nil {
				name := "power-off"
				if on {
					name = "power-on"
				}
				cfg.Spans.Event(span.Context{}, name, fmt.Sprintf("node-%d", nodeID), "")
			}
		}
		box.RegisterApp(controller.PNAClassFile, factory)
		s.STBs = append(s.STBs, box)
	}
	return s, nil
}

// faultyHeadEnd makes the Controller's carousel updates fail according
// to a deterministic netsim.FaultPlan. The first airing (bring-up) is
// passed through untouched so injected runs always reach steady state,
// and so is Check: a fault is never a refusal of the content.
type faultyHeadEnd struct {
	controller.HeadEnd
	plan  *netsim.FaultPlan
	aired bool
}

func (f *faultyHeadEnd) Update(files []dsmcc.File) error {
	if f.aired && f.plan.Next() {
		return errors.New("system: injected head-end update failure")
	}
	f.aired = true
	return f.HeadEnd.Update(files)
}

// serveController is the head-end side of every node's direct channel.
// It resolves the current Controller per message, so node sessions survive a controller
// crash: while crashed, heartbeats simply go unanswered (the PNA's
// RecvTimeout tolerates missing replies), and after a restart the same
// sessions feed the recovered Controller — re-adoption, not re-waking.
func (s *System) serveController(ep *netsim.Endpoint) {
	for {
		pkt, err := ep.Recv()
		if err != nil {
			return
		}
		raw, ok := pkt.Payload.([]byte)
		if !ok {
			continue
		}
		hb, err := control.DecodeHeartbeat(raw)
		if err != nil {
			continue
		}
		ctrl := s.currentController()
		if ctrl == nil {
			continue // controller down: the report vanishes, no reply
		}
		reply := ctrl.HandleHeartbeat(hb)
		ep.Send(pkt.From, control.EncodeHeartbeatReply(reply), control.HeartbeatReplyWireSize)
	}
}

// currentController returns the live Controller, or nil while crashed.
func (s *System) currentController() *controller.Controller {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil
	}
	return s.Controller
}

// CrashController hard-stops the control plane in place, as a killed
// coordinator process would: maintenance and refresh loops halt, the
// journal store closes, and heartbeats go unanswered. Everything else
// — the cycling carousel, AIT repetition, devices, running DVEs, the
// Backend — stays up, which is exactly the failure split durability is
// for.
func (s *System) CrashController() error {
	s.mu.Lock()
	if s.store == nil {
		s.mu.Unlock()
		return errors.New("system: no StateDir, control plane is not durable")
	}
	if s.crashed {
		s.mu.Unlock()
		return errors.New("system: controller already crashed")
	}
	s.crashed = true
	ctrl := s.Controller
	store := s.store
	s.mu.Unlock()
	ctrl.Stop()
	return store.Close()
}

// RestartController brings the control plane back from the state
// directory: it reopens the journal store, replays the journal
// into a fresh Controller, re-airs the recovered content in one
// head-end update, and rebinds the Provider's outstanding handles.
func (s *System) RestartController() error {
	s.mu.Lock()
	if !s.crashed {
		s.mu.Unlock()
		return errors.New("system: controller is not crashed")
	}
	cfg := s.ctrlCfg
	cfg.Rng = rand.New(rand.NewSource(s.restartRng.Int63()))
	s.mu.Unlock()

	store, err := journal.Open(s.cfg.StateDir, journal.Options{Obs: s.cfg.Obs, Clock: s.Clock})
	if err != nil {
		return err
	}
	cfg.Journal = store
	ctrl, err := controller.New(cfg)
	if err != nil {
		store.Close()
		return err
	}
	if err := ctrl.Start(); err != nil {
		store.Close()
		return err
	}
	s.mu.Lock()
	s.Controller = ctrl
	s.store = store
	s.crashed = false
	s.mu.Unlock()
	s.Provider.Rebind(ctrl)
	return nil
}

// ContentStats reports the current Controller's head-end content
// (crash-safe accessor for tests that span a restart).
func (s *System) ContentStats() (controlFileBytes, carouselFiles, live, destroyedOnAir int) {
	s.mu.Lock()
	ctrl := s.Controller
	s.mu.Unlock()
	return ctrl.ContentStats()
}

// dialer builds a Dialer that creates a fresh duplex channel to a
// server component and spawns its per-connection session.
func (s *System) dialer(cfg netsim.LinkConfig, server string, serve func(*netsim.Endpoint)) pna.Dialer {
	clk := s.Clock
	return func() (*netsim.Endpoint, func()) {
		client, srv := netsim.NewDuplex(clk, "node", server, cfg, cfg)
		clk.Go(func() { serve(srv) })
		hangup := func() {
			client.Close()
			srv.Close()
		}
		return client, hangup
	}
}

// backendDialer is the node-side backend dialer; when nodeID is assigned
// a byzantine behavior, the client endpoint's SendHook rewrites result
// submissions on the wire per the plan.
func (s *System) backendDialer(cfg netsim.LinkConfig, serve func(*netsim.Endpoint), nodeID uint64) pna.Dialer {
	inner := s.dialer(cfg, "backend", serve)
	plan := s.cfg.Adversary
	if plan == nil || !plan.IsByzantine(nodeID) {
		return inner
	}
	hook := adversaryHook(plan, nodeID)
	return func() (*netsim.Endpoint, func()) {
		client, hangup := inner()
		client.SendHook = hook
		return client, hangup
	}
}

// adversaryHook applies nodeID's assigned misbehavior to outgoing task
// results. Netsim stays payload-agnostic; this is where the plan's
// decisions meet the task-plane message types.
func adversaryHook(plan *netsim.AdversaryPlan, nodeID uint64) func(to string, payload any) (any, bool) {
	behavior := plan.Behavior(nodeID)
	return func(to string, payload any) (any, bool) {
		res, ok := payload.(*backend.TaskResult)
		if !ok {
			return payload, true
		}
		mut := *res
		switch behavior {
		case netsim.WrongResult, netsim.FlipFlop, netsim.Collude:
			if !plan.ShouldLie(nodeID) {
				return payload, true
			}
			mut.Payload = plan.WrongPayload(nodeID, res.JobID, res.TaskID)
		case netsim.ForgeCred:
			mut.Credential = plan.ForgeCredential(nodeID, res.Credential)
		case netsim.ReplayCred:
			mut.Credential = plan.ReplayCredential(nodeID, res.Credential)
		default:
			return payload, true
		}
		return &mut, true
	}
}

// noteState maintains the direct (oracle) view of instance membership
// used by tests and experiments; the Controller's own view comes only
// from heartbeats.
func (s *System) noteState(nodeID uint64, st control.NodeState, inst instance.ID) {
	s.mu.Lock()
	for _, members := range s.byInst {
		delete(members, nodeID)
	}
	if st == control.StateBusy {
		m := s.byInst[inst]
		if m == nil {
			m = make(map[uint64]bool)
			s.byInst[inst] = m
		}
		m[nodeID] = true
	}
	s.mu.Unlock()
}

// notePowerGone drops a powered-off node from the oracle membership.
func (s *System) notePowerGone(nodeID uint64) {
	s.mu.Lock()
	for _, members := range s.byInst {
		delete(members, nodeID)
	}
	s.mu.Unlock()
}

// LiveBusy reports the oracle count of nodes busy on an instance.
func (s *System) LiveBusy(id instance.ID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byInst[id])
}

// Start boots the head-end and powers on the initial node fraction.
func (s *System) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return errors.New("system: already started")
	}
	s.started = true
	s.mu.Unlock()

	if err := s.Controller.Start(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ 0x51B0))
	for _, box := range s.STBs {
		if rng.Float64() < s.cfg.initialPowerOn {
			if err := box.PowerOn(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Shutdown powers every node off and stops the head-end loops, letting
// a simulated clock's Wait return.
func (s *System) Shutdown() {
	for _, box := range s.STBs {
		box.StopChurn()
		box.PowerOff()
	}
	s.mu.Lock()
	ctrl := s.Controller
	s.mu.Unlock()
	ctrl.Stop()
}
