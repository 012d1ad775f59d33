// Package pna implements the Processing Node Agent: the OddCI component
// resident on every device reachable by the broadcast network. It is
// written as an Xlet (the OddCI-DTV realization of §4.3): AUTOSTART
// launches it on every tuned receiver, after which it listens to the
// carousel for signed control messages, reports its state over the
// direct channel through periodic heartbeats, and runs application
// images inside disposable virtual environments.
//
// Behaviour per §3.2:
//   - only messages signed by the associated Controller are accepted;
//   - busy PNAs drop wakeup messages;
//   - idle PNAs handle a wakeup with the probability it carries;
//   - a compliant idle PNA fetches the image, verifies its digest,
//     creates a DVE and switches to busy;
//   - reset messages (broadcast, or piggybacked on heartbeat replies)
//     destroy the DVE and switch the PNA back to idle.
package pna

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/dve"
	"oddci/internal/core/instance"
	"oddci/internal/netsim"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
	"oddci/internal/xlet"
)

// DefaultConfigFile is the carousel file carrying control messages.
const DefaultConfigFile = "oddci.config"

// heartbeatTimeout bounds the wait for a heartbeat reply.
const heartbeatTimeout = 10 * time.Second

// Dialer opens a direct channel, returning the local endpoint and a
// hangup function.
type Dialer func() (*netsim.Endpoint, func())

// Config parameterizes a PNA.
type Config struct {
	NodeID  uint64
	Profile instance.DeviceProfile
	// ControllerKey authenticates broadcast control messages.
	ControllerKey ed25519.PublicKey
	// DialController and DialBackend open the two direct channels.
	DialController Dialer
	DialBackend    Dialer
	// Registry resolves image entry points.
	Registry *dve.Registry
	// TaskDuration is the device performance model (nil = identity).
	TaskDuration func(refSTBSeconds float64) time.Duration
	// Rng drives the probability gate and heartbeat jitter. Required.
	Rng *rand.Rand
	// DefaultHeartbeat applies before any wakeup tunes the period.
	DefaultHeartbeat time.Duration
	// OnStateChange observes idle/busy transitions (experiment hooks).
	OnStateChange func(nodeID uint64, st control.NodeState, inst instance.ID)
	// Obs, if set, receives fleet-wide agent telemetry (oddci_pna_*
	// metrics: join/drop/rejection counters, image-load and DVE-start
	// latency histograms). Agents from one factory share the handles.
	Obs *obs.Registry
	// Spans, if set, records join/image-load/dve-start spans. The
	// wakeup root context is resolved from the collector's link table
	// (keyed by instance ID and wakeup sequence, published by the
	// Controller), so the signed control codec never changes shape.
	Spans *span.Collector
}

func (c *Config) fill() error {
	if c.Rng == nil {
		return errors.New("pna: rng is required")
	}
	if c.DialController == nil {
		return errors.New("pna: controller dialer is required")
	}
	if c.Registry == nil {
		return errors.New("pna: registry is required")
	}
	if len(c.ControllerKey) == 0 {
		return errors.New("pna: controller key is required")
	}
	if c.DefaultHeartbeat <= 0 {
		c.DefaultHeartbeat = time.Minute
	}
	return nil
}

// NewFactory returns an Xlet factory producing PNA instances, ready to
// register with a receiver's middleware under the PNA class file name.
// Each instance gets its own rand stream derived from cfg.Rng, so an
// agent outliving a power cycle never races its successor.
func NewFactory(cfg Config) (xlet.Factory, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	met := newPNAMetrics(cfg.Obs)
	var mu sync.Mutex
	seeds := cfg.Rng
	return func() xlet.Xlet {
		mu.Lock()
		seed := seeds.Int63()
		mu.Unlock()
		c := cfg
		c.Rng = rand.New(rand.NewSource(seed))
		return &PNA{cfg: c, met: met}
	}, nil
}

// pnaMetrics bundles the fleet-wide agent telemetry handles (all nil
// and no-op when Config.Obs is unset).
type pnaMetrics struct {
	joins      *obs.Counter
	drops      *obs.Counter
	rejections *obs.Counter
	resets     *obs.Counter
	aborts     *obs.Counter
	imageLoad  *obs.Histogram
	dveStart   *obs.Histogram
}

func newPNAMetrics(reg *obs.Registry) pnaMetrics {
	return pnaMetrics{
		joins:      reg.Counter("oddci_pna_joins_total", "Wakeups committed (agent went busy)"),
		drops:      reg.Counter("oddci_pna_wakeups_dropped_total", "Wakeups discarded by the probability gate"),
		rejections: reg.Counter("oddci_pna_rejections_total", "Signature or digest verification failures"),
		resets:     reg.Counter("oddci_pna_resets_total", "Instances reset (broadcast, reply command, or lifetime)"),
		aborts:     reg.Counter("oddci_pna_join_aborts_total", "Joins abandoned before the DVE launched"),
		imageLoad:  reg.Histogram("oddci_pna_image_load_seconds", "Carousel image fetch latency", nil),
		dveStart:   reg.Histogram("oddci_pna_dve_start_seconds", "Wakeup commitment to DVE running", nil),
	}
}

// PNA is one agent instance. Its lifetime is one middleware launch; a
// power cycle produces a fresh instance.
type PNA struct {
	cfg Config
	met pnaMetrics
	ctx xlet.Context

	mu             sync.Mutex
	rngMu          sync.Mutex // cfg.Rng: heartbeat jitter races the probability gate under the wall clock
	state          control.NodeState
	instID         instance.ID
	d              *dve.DVE
	seenSeq        map[instance.ID]uint32
	hbPeriod       time.Duration
	hbInterrupt    simtime.Interrupter
	ctrl           *netsim.Endpoint
	ctrlHangup     func()
	cancelCarousel func()
	lifetimeTimer  simtime.Timer
	tasksDone      uint32
	destroyed      bool
	started        bool
	joinStartedAt  time.Time // wakeup commitment time (DVE-start latency)
	joinSpan       *span.Span
	joinCtx        span.Context // where this membership's leave event hangs
}

// InitXlet implements xlet.Xlet.
func (p *PNA) InitXlet(ctx xlet.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ctx = ctx
	p.seenSeq = make(map[instance.ID]uint32)
	p.hbPeriod = p.cfg.DefaultHeartbeat
	return nil
}

// StartXlet implements xlet.Xlet: dial the Controller, watch the
// carousel, start heartbeating, and process any control message already
// on air.
func (p *PNA) StartXlet() error {
	p.mu.Lock()
	if p.ctx == nil {
		p.mu.Unlock()
		return errors.New("pna: not initialized")
	}
	if p.started {
		p.mu.Unlock()
		return nil
	}
	p.started = true
	ep, hangup := p.cfg.DialController()
	p.ctrl = ep
	p.ctrlHangup = hangup
	ctx := p.ctx
	p.mu.Unlock()

	p.mu.Lock()
	p.cancelCarousel = ctx.OnCarouselUpdate(p.checkConfig)
	p.mu.Unlock()
	ctx.Go(p.heartbeatLoop)
	p.checkConfig()
	return nil
}

// DestroyXlet implements xlet.Xlet.
func (p *PNA) DestroyXlet(unconditional bool) error {
	p.mu.Lock()
	if !unconditional && p.state == control.StateBusy {
		p.mu.Unlock()
		return errors.New("pna: busy executing an instance")
	}
	if p.destroyed {
		p.mu.Unlock()
		return nil
	}
	p.destroyed = true
	cancelCarousel := p.cancelCarousel
	d := p.d
	p.d = nil
	ctrl := p.ctrl
	hangup := p.ctrlHangup
	lt := p.lifetimeTimer
	p.mu.Unlock()

	if cancelCarousel != nil {
		cancelCarousel()
	}
	lt.Stop()
	p.hbInterrupt.Cancel()
	if d != nil {
		d.Destroy()
	}
	if ctrl != nil {
		ctrl.Close()
	}
	if hangup != nil {
		hangup()
	}
	return nil
}

// checkConfig fetches and processes the control file currently on the
// carousel.
func (p *PNA) checkConfig() {
	p.mu.Lock()
	ctx := p.ctx
	destroyed := p.destroyed
	p.mu.Unlock()
	if destroyed || ctx == nil {
		return
	}
	ctx.ReadFile(DefaultConfigFile, &configRead{p: p, key: p.cfg.ControllerKey})
}

// configRead is one read of the control file; OpenAll is its check.
type configRead struct {
	p    *PNA
	key  ed25519.PublicKey
	msgs []any
	err  error
}

func (r *configRead) Check(data []byte) { r.msgs, r.err = control.OpenAll(data, r.key) }

// Deliver applies the control messages the check authenticated.
func (r *configRead) Deliver(_ []byte, _ time.Time, err error) {
	if err != nil {
		return // no control message on air
	}
	if r.err != nil {
		r.p.met.rejections.Inc()
		return
	}
	for _, msg := range r.msgs {
		switch m := msg.(type) {
		case *control.Wakeup:
			r.p.handleWakeup(m)
		case *control.Reset:
			r.p.handleReset(m)
		}
	}
}

// handleWakeup applies §3.2's wakeup rules.
func (p *PNA) handleWakeup(w *control.Wakeup) {
	p.mu.Lock()
	if p.destroyed {
		p.mu.Unlock()
		return
	}
	if last, ok := p.seenSeq[w.InstanceID]; ok && w.Seq <= last {
		p.mu.Unlock()
		return // retransmission already evaluated
	}
	p.seenSeq[w.InstanceID] = w.Seq
	if p.state == control.StateBusy {
		p.mu.Unlock()
		return // busy PNAs drop wakeups
	}
	if !w.Requirements.Match(p.cfg.Profile) {
		p.mu.Unlock()
		return
	}
	p.rngMu.Lock()
	draw := p.cfg.Rng.Float64()
	p.rngMu.Unlock()
	if draw >= w.Probability {
		p.mu.Unlock()
		p.met.drops.Inc()
		return
	}
	// Committed: become busy immediately so concurrent wakeups are
	// dropped while the image downloads.
	p.state = control.StateBusy
	p.instID = w.InstanceID
	if w.HeartbeatPeriod > 0 {
		p.hbPeriod = w.HeartbeatPeriod
	}
	ctx := p.ctx
	clk := ctx.Clock()
	start := clk.Now()
	p.joinStartedAt = start
	hook := p.cfg.OnStateChange
	p.mu.Unlock()
	p.met.joins.Inc()

	// Resolve the wakeup broadcast's root span via the link table and
	// open the join span under it. A miss (old controller, evicted
	// link, sampled-out trace) degrades to untraced — never an error.
	rootCtx, _ := p.cfg.Spans.GetLink(span.LinkKey(uint64(w.InstanceID), uint64(w.Seq)))
	joinSp := p.startSpan(rootCtx, "join")
	if joinSp != nil {
		joinSp.SetDetail("instance=%d seq=%d", w.InstanceID, w.Seq)
		p.mu.Lock()
		p.joinSpan, p.joinCtx = joinSp, joinSp.Context()
		p.mu.Unlock()
	} else if p.cfg.Spans != nil {
		// The timeline lists every join: one that has no span (the
		// trace lost the sampling draw) is a point event instead.
		p.cfg.Spans.Event(rootCtx, "join", p.nodeName(), "instance=%d seq=%d", w.InstanceID, w.Seq)
	}
	if hook != nil {
		hook(p.cfg.NodeID, control.StateBusy, w.InstanceID)
	}

	ctx.ReadFile(w.ImageFile, &imageRead{
		p: p, w: w, start: start, joinSp: joinSp,
		imgSp: p.startSpan(joinSp.Context(), "image-load"),
	})
}

// imageRead is one node's read of its wakeup's image; Verify is its
// check.
type imageRead struct {
	p             *PNA
	w             *control.Wakeup
	start         time.Time // wakeup commitment
	joinSp, imgSp *span.Span
	img           *appimage.Image
	err           error
}

// Check verifies the bytes this node was handed. They are shared with
// every other PNA this generation reached, and img.Payload aliases them
// into the DVE (read-only, see xlet.Context.ReadFile): sharing the
// slice does not share the check.
func (r *imageRead) Check(data []byte) { r.img, r.err = appimage.Verify(data, r.w.ImageDigest) }

// Deliver launches the verified image.
func (r *imageRead) Deliver(data []byte, at time.Time, err error) {
	p, w := r.p, r.w
	if err != nil {
		r.imgSp.SetError()
		r.imgSp.End()
		p.abortJoin(w.InstanceID, fmt.Errorf("image fetch: %w", err))
		return
	}
	loadDur := at.Sub(r.start)
	if r.imgSp != nil {
		r.imgSp.SetDetail("bytes=%d file=%s", len(data), w.ImageFile)
		r.imgSp.End()
		p.met.imageLoad.ObserveWithExemplar(loadDur.Seconds(), r.joinSp.Context().Trace.String())
	} else {
		p.met.imageLoad.ObserveDuration(loadDur)
	}
	if r.err != nil {
		p.met.rejections.Inc()
		p.abortJoin(w.InstanceID, r.err)
		return
	}
	p.launchDVE(w, r.img)
}

// startSpan opens a span of this node under parent; untraced, it
// returns nil without building the node's name.
func (p *PNA) startSpan(parent span.Context, name string) *span.Span {
	if p.cfg.Spans == nil {
		return nil
	}
	return p.cfg.Spans.Start(parent, name, p.nodeName())
}

func (p *PNA) nodeName() string { return fmt.Sprintf("node-%d", p.cfg.NodeID) }

// leaveEvent puts the end of a membership on the span timeline, under
// the join that began it.
func (p *PNA) leaveEvent(id instance.ID) {
	if p.cfg.Spans == nil {
		return
	}
	p.mu.Lock()
	ctx := p.joinCtx
	p.joinCtx = span.Context{}
	p.mu.Unlock()
	p.cfg.Spans.Event(ctx, "leave", p.nodeName(), "instance=%d", id)
}

// takeJoinSpan detaches the open join span (if any) for ending.
func (p *PNA) takeJoinSpan() *span.Span {
	p.mu.Lock()
	sp := p.joinSpan
	p.joinSpan = nil
	p.mu.Unlock()
	return sp
}

// abortJoin reverts a failed join to idle.
func (p *PNA) abortJoin(id instance.ID, _ error) {
	p.mu.Lock()
	if p.instID != id || p.state != control.StateBusy || p.d != nil {
		p.mu.Unlock()
		return
	}
	p.state = control.StateIdle
	p.instID = 0
	hook := p.cfg.OnStateChange
	p.mu.Unlock()
	p.met.aborts.Inc()
	if sp := p.takeJoinSpan(); sp != nil {
		sp.SetError()
		sp.End()
	}
	p.leaveEvent(id)
	if hook != nil {
		hook(p.cfg.NodeID, control.StateIdle, 0)
	}
}

// launchDVE creates the environment and runs the image.
func (p *PNA) launchDVE(w *control.Wakeup, img *appimage.Image) {
	p.mu.Lock()
	if p.destroyed || p.instID != w.InstanceID {
		p.mu.Unlock()
		return
	}
	clk := p.ctx.Clock()
	joinSp := p.joinSpan
	p.mu.Unlock()

	dveSp := p.startSpan(joinSp.Context(), "dve-start")
	// A node without a backend channel hands the DVE a nil Channel, not
	// a typed nil endpoint, so the worker sees it has none.
	var backend dve.Channel
	var hangup func()
	if p.cfg.DialBackend != nil {
		var ep *netsim.Endpoint
		ep, hangup = p.cfg.DialBackend()
		backend = ep
	}
	// Hand the DVE the dve-start span's context (falling back to the
	// join context) so worker task requests parent under this launch.
	dveTrace := dveSp.Context()
	if !dveTrace.Valid() {
		dveTrace = joinSp.Context()
	}
	d, err := dve.Launch(dve.Config{
		Clock:        clk,
		Registry:     p.cfg.Registry,
		Image:        img,
		NodeID:       p.cfg.NodeID,
		InstanceID:   w.InstanceID,
		Backend:      backend,
		Hangup:       hangup,
		TaskDuration: p.cfg.TaskDuration,
		Obs:          p.cfg.Obs,
		Trace:        dveTrace,
		OnTask: func() {
			p.mu.Lock()
			p.tasksDone++
			p.mu.Unlock()
		},
		OnExit: func(error) { p.resetInstance(w.InstanceID) },
	})
	if err != nil {
		if hangup != nil {
			hangup()
		}
		dveSp.SetError()
		dveSp.End()
		p.met.rejections.Inc()
		p.abortJoin(w.InstanceID, err)
		return
	}
	p.mu.Lock()
	if p.destroyed {
		p.mu.Unlock()
		dveSp.End()
		d.Destroy()
		return
	}
	p.d = d
	startDur := clk.Now().Sub(p.joinStartedAt)
	if dveSp != nil {
		dveSp.SetDetail("entry=%s", img.EntryPoint)
		p.met.dveStart.ObserveWithExemplar(startDur.Seconds(), dveSp.Context().Trace.String())
	} else {
		p.met.dveStart.ObserveDuration(startDur)
	}
	if w.Lifetime > 0 {
		id := w.InstanceID
		p.lifetimeTimer = clk.AfterFunc(w.Lifetime, func() { p.resetInstance(id) })
	}
	p.mu.Unlock()
	dveSp.End()
	if sp := p.takeJoinSpan(); sp != nil {
		sp.End()
	}
}

// handleReset applies a broadcast reset.
func (p *PNA) handleReset(r *control.Reset) {
	p.mu.Lock()
	target := p.instID
	p.mu.Unlock()
	if r.InstanceID == 0 || r.InstanceID == target {
		p.resetInstance(target)
	}
}

// resetInstance destroys the DVE (if any) and returns to idle.
func (p *PNA) resetInstance(id instance.ID) {
	p.mu.Lock()
	if p.instID != id || p.state != control.StateBusy {
		p.mu.Unlock()
		return
	}
	d := p.d
	p.d = nil
	lt := p.lifetimeTimer
	p.lifetimeTimer = simtime.Timer{}
	p.state = control.StateIdle
	p.instID = 0
	hook := p.cfg.OnStateChange
	p.mu.Unlock()
	p.met.resets.Inc()
	lt.Stop()
	if d != nil {
		d.Destroy()
	}
	p.leaveEvent(id)
	if hook != nil {
		hook(p.cfg.NodeID, control.StateIdle, 0)
	}
}

// heartbeatLoop reports state to the Controller at the configured
// period (with an initial random phase so a million PNAs do not
// synchronize) and applies reply commands.
func (p *PNA) heartbeatLoop() {
	p.mu.Lock()
	clk := p.ctx.Clock()
	period := p.hbPeriod
	ctrl := p.ctrl
	p.mu.Unlock()

	// Initial phase jitter.
	if period > 0 {
		p.rngMu.Lock()
		jitter := time.Duration(p.cfg.Rng.Int63n(int64(period)))
		p.rngMu.Unlock()
		if !p.hbInterrupt.Sleep(clk, jitter) {
			return
		}
	}
	for {
		p.mu.Lock()
		if p.destroyed {
			p.mu.Unlock()
			return
		}
		hb := &control.Heartbeat{
			NodeID:     p.cfg.NodeID,
			State:      p.state,
			InstanceID: p.instID,
			Profile:    p.cfg.Profile,
			TasksDone:  p.tasksDone,
			SentAt:     clk.Now(),
		}
		p.mu.Unlock()

		ctrl.Send("controller", control.EncodeHeartbeat(hb), control.HeartbeatWireSize)
		pkt, err := ctrl.RecvTimeout(heartbeatTimeout)
		if err == nil {
			if raw, ok := pkt.Payload.([]byte); ok {
				if reply, derr := control.DecodeHeartbeatReply(raw); derr == nil {
					p.applyReply(reply)
				}
			}
		} else if err == netsim.ErrClosed {
			return
		}

		p.mu.Lock()
		period = p.hbPeriod
		p.mu.Unlock()
		if !p.hbInterrupt.Sleep(clk, period) {
			return
		}
	}
}

func (p *PNA) applyReply(r control.HeartbeatReply) {
	if r.Period > 0 {
		p.mu.Lock()
		p.hbPeriod = r.Period
		p.mu.Unlock()
	}
	if r.Command == control.CmdReset {
		p.mu.Lock()
		target := p.instID
		p.mu.Unlock()
		p.resetInstance(target)
	}
}
