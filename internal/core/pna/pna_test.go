package pna

import (
	"crypto/ed25519"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/dve"
	"oddci/internal/core/instance"
	"oddci/internal/dsmcc"
	"oddci/internal/netsim"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

// snapshot returns the agent's current state and instance.
func (p *PNA) snapshot() (control.NodeState, instance.ID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state, p.instID
}

// doneTasks returns the completed-task counter.
func (p *PNA) doneTasks() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tasksDone
}

// fakeCtx is a scripted xlet.Context: a mutable in-memory carousel with
// a fixed delivery delay, each read handed its own copy. With bcast
// set, reads go through that broadcaster instead, with cache as the
// node's chunk store.
type fakeCtx struct {
	clk       *simtime.Sim
	mu        sync.Mutex
	files     map[string][]byte
	delay     time.Duration
	listeners map[int]func()
	nextID    int

	bcast *dsmcc.Broadcaster
	cache *dsmcc.ChunkCache
}

func newFakeCtx(clk *simtime.Sim) *fakeCtx {
	return &fakeCtx{
		clk:       clk,
		files:     make(map[string][]byte),
		delay:     time.Second,
		listeners: make(map[int]func()),
	}
}

func (c *fakeCtx) Clock() simtime.Clock { return c.clk }
func (c *fakeCtx) Go(fn func())         { c.clk.Go(fn) }

func (c *fakeCtx) ReadFile(name string, r dsmcc.Read) {
	if c.bcast != nil {
		c.bcast.RequestFile(name, dsmcc.FileGranularity, c.cache, r)
		return
	}
	c.clk.AfterFunc(c.delay, func() {
		c.mu.Lock()
		data, ok := c.files[name]
		c.mu.Unlock()
		if !ok {
			r.Deliver(nil, c.clk.Now(), errors.New("no such file"))
			return
		}
		data = append([]byte(nil), data...)
		r.Check(data)
		r.Deliver(data, c.clk.Now(), nil)
	})
}

func (c *fakeCtx) OnCarouselUpdate(fn func()) func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	c.listeners[id] = fn
	return func() {
		c.mu.Lock()
		delete(c.listeners, id)
		c.mu.Unlock()
	}
}

// setFiles replaces carousel content and fires generation listeners.
func (c *fakeCtx) setFiles(files map[string][]byte) {
	c.mu.Lock()
	c.files = files
	ls := make([]func(), 0, len(c.listeners))
	for _, fn := range c.listeners {
		ls = append(ls, fn)
	}
	c.mu.Unlock()
	for _, fn := range ls {
		fn()
	}
}

// heartbeatServer records heartbeats and replies per script.
type heartbeatServer struct {
	mu           sync.Mutex
	beats        []*control.Heartbeat
	command      control.Command
	retunePeriod time.Duration
}

func (h *heartbeatServer) serve(ep *netsim.Endpoint) {
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
		h.mu.Lock()
		h.beats = append(h.beats, hb)
		cmd := h.command
		h.command = control.CmdNone // one-shot commands
		period := h.retunePeriod
		h.mu.Unlock()
		ep.Send(pkt.From, control.EncodeHeartbeatReply(&control.HeartbeatReply{Command: cmd, Period: period}),
			control.HeartbeatReplyWireSize)
	}
}

func (h *heartbeatServer) states() []control.NodeState {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]control.NodeState, len(h.beats))
	for i, b := range h.beats {
		out[i] = b.State
	}
	return out
}

type rig struct {
	clk   *simtime.Sim
	ctx   *fakeCtx
	pub   ed25519.PublicKey
	priv  ed25519.PrivateKey
	hbSrv *heartbeatServer
	reg   *dve.Registry
	agent *PNA

	appRuns  int
	appRunMu sync.Mutex
}

func newRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	return newRigOn(t, simtime.NewSim(epoch), mutate)
}

// newRigOn builds a rig on clk, which several rigs may share. Every rig
// has the same controller key.
func newRigOn(t *testing.T, clk *simtime.Sim, mutate func(*Config)) *rig {
	t.Helper()
	r := &rig{clk: clk, ctx: newFakeCtx(clk), hbSrv: &heartbeatServer{}, reg: dve.NewRegistry()}
	var err error
	r.pub, r.priv, err = ed25519.GenerateKey(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	r.reg.Register("testapp", func(env *dve.Env) error {
		r.appRunMu.Lock()
		r.appRuns++
		r.appRunMu.Unlock()
		for env.Sleep(time.Minute) {
		}
		return nil
	})
	cfg := Config{
		NodeID:           7,
		Profile:          instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100},
		ControllerKey:    r.pub,
		Registry:         r.reg,
		Rng:              rand.New(rand.NewSource(2)),
		DefaultHeartbeat: 10 * time.Second,
		heartbeatTimeout: 5 * time.Second,
		DialController: func() (*netsim.Endpoint, func()) {
			cfgL := netsim.LinkConfig{RateBps: 150e3}
			client, srv := netsim.NewDuplex(clk, "node", "controller", cfgL, cfgL)
			clk.Go(func() { r.hbSrv.serve(srv) })
			return client, func() { client.Close(); srv.Close() }
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	factory, err := NewFactory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.agent = factory().(*PNA)
	if err := r.agent.InitXlet(r.ctx); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) image(t *testing.T) (*appimage.Image, []byte, appimage.Digest) {
	t.Helper()
	img := &appimage.Image{Name: "app", EntryPoint: "testapp", Payload: make([]byte, 1000)}
	raw, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d, err := img.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return img, raw, d
}

func (r *rig) wakeupConfig(t *testing.T, w *control.Wakeup) []byte {
	t.Helper()
	raw, err := control.SignWakeup(w, r.priv)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func (r *rig) baseWakeup(d appimage.Digest) *control.Wakeup {
	return &control.Wakeup{
		InstanceID:  1,
		Seq:         1,
		Probability: 1,
		ImageFile:   "image.1",
		ImageDigest: d,
	}
}

func TestWakeupJoinsAndHeartbeatsBusy(t *testing.T) {
	r := newRig(t, nil)
	_, imgRaw, digest := r.image(t)
	r.ctx.setFiles(map[string][]byte{
		DefaultConfigFile: r.wakeupConfig(t, r.baseWakeup(digest)),
		"image.1":         imgRaw,
	})
	if err := r.agent.StartXlet(); err != nil {
		t.Fatal(err)
	}
	r.clk.AfterFunc(2*time.Minute, func() { r.agent.DestroyXlet(true) })
	r.clk.Wait()

	if r.appRuns != 1 {
		t.Fatalf("app ran %d times", r.appRuns)
	}
	states := r.hbSrv.states()
	if len(states) == 0 {
		t.Fatal("no heartbeats")
	}
	busy := 0
	for _, s := range states {
		if s == control.StateBusy {
			busy++
		}
	}
	if busy == 0 {
		t.Fatal("no busy heartbeats after join")
	}
}

func TestWrongSignatureRejected(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Obs = obs.NewRegistry() })
	_, imgRaw, digest := r.image(t)
	_, rogueKey, _ := ed25519.GenerateKey(rand.New(rand.NewSource(666)))
	rogue, err := control.SignWakeup(r.baseWakeup(digest), rogueKey)
	if err != nil {
		t.Fatal(err)
	}
	r.ctx.setFiles(map[string][]byte{DefaultConfigFile: rogue, "image.1": imgRaw})
	r.agent.StartXlet()
	r.clk.AfterFunc(time.Minute, func() { r.agent.DestroyXlet(true) })
	r.clk.Wait()
	if r.appRuns != 0 {
		t.Fatal("rogue wakeup executed")
	}
	if r.agent.met.rejections.Value() == 0 {
		t.Fatal("rejection not recorded")
	}
	if st, _ := r.agent.snapshot(); st != control.StateIdle {
		t.Fatalf("state = %v", st)
	}
}

func TestImageDigestMismatchAborts(t *testing.T) {
	r := newRig(t, nil)
	_, imgRaw, digest := r.image(t)
	tampered := append([]byte(nil), imgRaw...)
	tampered[len(tampered)-1] ^= 1
	r.ctx.setFiles(map[string][]byte{
		DefaultConfigFile: r.wakeupConfig(t, r.baseWakeup(digest)),
		"image.1":         tampered,
	})
	r.agent.StartXlet()
	r.clk.AfterFunc(time.Minute, func() { r.agent.DestroyXlet(true) })
	r.clk.Wait()
	if r.appRuns != 0 {
		t.Fatal("tampered image executed")
	}
	if st, _ := r.agent.snapshot(); st != control.StateIdle {
		t.Fatalf("state = %v after aborted join", st)
	}
}

// An image the carousel does not carry aborts the join as a failed
// fetch, not a rejection: its check never ran. Traced, the membership
// still ends on the timeline.
func TestImageFetchFailureAborts(t *testing.T) {
	clk := simtime.NewSim(epoch)
	spans := span.NewCollector(span.Config{Clock: clk, Capacity: 64})
	r := newRigOn(t, clk, func(c *Config) { c.Obs, c.Spans = obs.NewRegistry(), spans })
	_, _, digest := r.image(t)
	r.ctx.setFiles(map[string][]byte{DefaultConfigFile: r.wakeupConfig(t, r.baseWakeup(digest))})
	r.agent.StartXlet()
	r.clk.AfterFunc(time.Minute, func() { r.agent.DestroyXlet(true) })
	r.clk.Wait()
	if r.appRuns != 0 || r.agent.met.aborts.Value() != 1 || r.agent.met.rejections.Value() != 0 {
		t.Fatalf("app ran %d times, %d aborts, %d rejections; want 0, 1, 0",
			r.appRuns, r.agent.met.aborts.Value(), r.agent.met.rejections.Value())
	}
	if st, _ := r.agent.snapshot(); st != control.StateIdle {
		t.Fatalf("state = %v after aborted join", st)
	}
	if tl := spans.RenderTimeline(0); !strings.Contains(tl, "leave") || !strings.Contains(tl, "node-7") {
		t.Fatalf("timeline has no leave of node-7:\n%s", tl)
	}
}

func TestProbabilityZeroNeverJoins(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Obs = obs.NewRegistry() })
	_, imgRaw, digest := r.image(t)
	w := r.baseWakeup(digest)
	w.Probability = 0
	r.ctx.setFiles(map[string][]byte{
		DefaultConfigFile: r.wakeupConfig(t, w),
		"image.1":         imgRaw,
	})
	r.agent.StartXlet()
	r.clk.AfterFunc(time.Minute, func() { r.agent.DestroyXlet(true) })
	r.clk.Wait()
	if r.appRuns != 0 {
		t.Fatal("joined despite probability 0")
	}
	if d := r.agent.met.drops.Value(); d != 1 {
		t.Fatalf("drops = %d", d)
	}
}

func TestRequirementsMismatchIgnored(t *testing.T) {
	r := newRig(t, nil)
	_, imgRaw, digest := r.image(t)
	w := r.baseWakeup(digest)
	w.Requirements = instance.Requirements{Class: instance.ClassConsole}
	r.ctx.setFiles(map[string][]byte{
		DefaultConfigFile: r.wakeupConfig(t, w),
		"image.1":         imgRaw,
	})
	r.agent.StartXlet()
	r.clk.AfterFunc(time.Minute, func() { r.agent.DestroyXlet(true) })
	r.clk.Wait()
	if r.appRuns != 0 {
		t.Fatal("non-compliant PNA joined")
	}
}

func TestRetransmissionDeduplicated(t *testing.T) {
	r := newRig(t, nil)
	_, imgRaw, digest := r.image(t)
	files := map[string][]byte{
		DefaultConfigFile: r.wakeupConfig(t, r.baseWakeup(digest)),
		"image.1":         imgRaw,
	}
	r.ctx.setFiles(files)
	r.agent.StartXlet()
	// Re-air the identical generation several times.
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * 30 * time.Second
		r.clk.AfterFunc(d, func() { r.ctx.setFiles(files) })
	}
	r.clk.AfterFunc(5*time.Minute, func() { r.agent.DestroyXlet(true) })
	r.clk.Wait()
	if r.appRuns != 1 {
		t.Fatalf("app ran %d times; seq dedup failed", r.appRuns)
	}
}

func TestBusyDropsWakeups(t *testing.T) {
	r := newRig(t, nil)
	_, imgRaw, digest := r.image(t)
	r.ctx.setFiles(map[string][]byte{
		DefaultConfigFile: r.wakeupConfig(t, r.baseWakeup(digest)),
		"image.1":         imgRaw,
	})
	r.agent.StartXlet()
	// A second instance's wakeup while busy on the first.
	r.clk.AfterFunc(time.Minute, func() {
		w2 := r.baseWakeup(digest)
		w2.InstanceID = 2
		w2.ImageFile = "image.1"
		r.ctx.setFiles(map[string][]byte{
			DefaultConfigFile: r.wakeupConfig(t, w2),
			"image.1":         imgRaw,
		})
	})
	r.clk.AfterFunc(3*time.Minute, func() { r.agent.DestroyXlet(true) })
	r.clk.Wait()
	if r.appRuns != 1 {
		t.Fatalf("app ran %d times; busy PNA must drop wakeups", r.appRuns)
	}
}

func TestHeartbeatResetCommand(t *testing.T) {
	r := newRig(t, nil)
	_, imgRaw, digest := r.image(t)
	r.ctx.setFiles(map[string][]byte{
		DefaultConfigFile: r.wakeupConfig(t, r.baseWakeup(digest)),
		"image.1":         imgRaw,
	})
	r.agent.StartXlet()
	// After a minute, script one CmdReset reply.
	r.clk.AfterFunc(time.Minute, func() {
		r.hbSrv.mu.Lock()
		r.hbSrv.command = control.CmdReset
		r.hbSrv.mu.Unlock()
	})
	var state control.NodeState
	var inst instance.ID
	r.clk.AfterFunc(3*time.Minute, func() {
		state, inst = r.agent.snapshot()
		r.agent.DestroyXlet(true)
	})
	r.clk.Wait()
	if state != control.StateIdle || inst != 0 {
		t.Fatalf("state=%v inst=%d after reset command", state, inst)
	}
}

func TestBroadcastResetReturnsToIdle(t *testing.T) {
	r := newRig(t, nil)
	_, imgRaw, digest := r.image(t)
	r.ctx.setFiles(map[string][]byte{
		DefaultConfigFile: r.wakeupConfig(t, r.baseWakeup(digest)),
		"image.1":         imgRaw,
	})
	r.agent.StartXlet()
	r.clk.AfterFunc(time.Minute, func() {
		reset, err := control.SignReset(&control.Reset{InstanceID: 1, Seq: 2}, r.priv)
		if err != nil {
			t.Error(err)
			return
		}
		r.ctx.setFiles(map[string][]byte{DefaultConfigFile: reset})
	})
	var state control.NodeState
	r.clk.AfterFunc(2*time.Minute, func() {
		state, _ = r.agent.snapshot()
		r.agent.DestroyXlet(true)
	})
	r.clk.Wait()
	if state != control.StateIdle {
		t.Fatalf("state = %v after broadcast reset", state)
	}
}

func TestLifetimeAutoReset(t *testing.T) {
	r := newRig(t, nil)
	_, imgRaw, digest := r.image(t)
	w := r.baseWakeup(digest)
	w.Lifetime = 2 * time.Minute
	r.ctx.setFiles(map[string][]byte{
		DefaultConfigFile: r.wakeupConfig(t, w),
		"image.1":         imgRaw,
	})
	r.agent.StartXlet()
	var state control.NodeState
	r.clk.AfterFunc(5*time.Minute, func() {
		state, _ = r.agent.snapshot()
		r.agent.DestroyXlet(true)
	})
	r.clk.Wait()
	if state != control.StateIdle {
		t.Fatalf("state = %v after lifetime expiry", state)
	}
}

func TestConditionalDestroyRefusedWhileBusy(t *testing.T) {
	r := newRig(t, nil)
	_, imgRaw, digest := r.image(t)
	r.ctx.setFiles(map[string][]byte{
		DefaultConfigFile: r.wakeupConfig(t, r.baseWakeup(digest)),
		"image.1":         imgRaw,
	})
	r.agent.StartXlet()
	r.clk.AfterFunc(time.Minute, func() {
		if err := r.agent.DestroyXlet(false); err == nil {
			t.Error("busy PNA accepted conditional destroy")
		}
		if err := r.agent.DestroyXlet(true); err != nil {
			t.Errorf("unconditional destroy failed: %v", err)
		}
	})
	r.clk.Wait()
}

func TestFactoryValidation(t *testing.T) {
	if _, err := NewFactory(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestTaskCounterAndPause(t *testing.T) {
	r := newRig(t, nil)
	// An app that reports three tasks then stays resident. The rig dials
	// no backend, so the app must see a nil channel, not a typed nil
	// endpoint the worker's nil check would miss.
	var noBackend bool
	r.reg.Register("counter", func(env *dve.Env) error {
		noBackend = env.Backend == nil
		for i := 0; i < 3; i++ {
			env.Execute(1)
			env.NoteTaskDone()
		}
		for env.Sleep(time.Minute) {
		}
		return nil
	})
	img := &appimage.Image{Name: "c", EntryPoint: "counter", Payload: []byte{1}}
	raw, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	digest, _ := img.Digest()
	r.ctx.setFiles(map[string][]byte{
		DefaultConfigFile: r.wakeupConfig(t, r.baseWakeup(digest)),
		"image.1":         raw,
	})
	r.agent.StartXlet()
	var tasks uint32
	r.clk.AfterFunc(2*time.Minute, func() {
		tasks = r.agent.doneTasks()
		r.agent.DestroyXlet(true)
	})
	r.clk.Wait()
	if tasks != 3 {
		t.Fatalf("tasks done = %d", tasks)
	}
	if !noBackend {
		t.Fatal("a node without a backend dialer handed its DVE a non-nil channel")
	}
}

func TestUnknownEntryPointAborts(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Obs = obs.NewRegistry() })
	img := &appimage.Image{Name: "x", EntryPoint: "not-registered", Payload: []byte{1}}
	raw, _ := img.Encode()
	digest, _ := img.Digest()
	r.ctx.setFiles(map[string][]byte{
		DefaultConfigFile: r.wakeupConfig(t, r.baseWakeup(digest)),
		"image.1":         raw,
	})
	r.agent.StartXlet()
	var state control.NodeState
	r.clk.AfterFunc(time.Minute, func() {
		state, _ = r.agent.snapshot()
		r.agent.DestroyXlet(true)
	})
	r.clk.Wait()
	if state != control.StateIdle {
		t.Fatalf("state = %v after unresolvable image", state)
	}
	if r.agent.met.rejections.Value() == 0 {
		t.Fatal("unresolvable entry point not counted")
	}
}

func TestHeartbeatPeriodRetuneApplied(t *testing.T) {
	r := newRig(t, func(cfg *Config) { cfg.DefaultHeartbeat = 30 * time.Second })
	// Server instructs a 5-second period on every reply.
	r.hbSrv.mu.Lock()
	r.hbSrv.retunePeriod = 5 * time.Second
	r.hbSrv.mu.Unlock()
	r.ctx.setFiles(map[string][]byte{}) // no wakeup: idle heartbeats only
	r.agent.StartXlet()
	r.clk.AfterFunc(5*time.Minute, func() { r.agent.DestroyXlet(true) })
	r.clk.Wait()
	// 5 minutes at ~5 s period (after the first 30 s interval and
	// jitter) yields far more beats than the default 30 s would (≤10).
	if got := len(r.hbSrv.states()); got < 30 {
		t.Fatalf("heartbeats = %d; period retune not applied", got)
	}
}

// Each PNA verifies the bytes it was itself handed: of two nodes that
// hear one signed wakeup and receive different buffers of equal length,
// only the one whose buffer matches the digest launches. The same holds
// when the reads complete at one instant on one broadcaster, so their
// checks form one delivery group shared out over the cores: the node
// handed other bytes is the one rejected.
func TestDigestCheckedPerNodeBuffer(t *testing.T) {
	withObs := func(c *Config) { c.Obs = obs.NewRegistry() }
	good, bad := newRig(t, withObs), newRig(t, withObs)
	_, imgRaw, digest := good.image(t)
	other := append([]byte(nil), imgRaw...)
	other[len(other)/2] ^= 0x80 // inside the payload: still decodes, no longer the signed image
	for _, n := range []struct {
		r   *rig
		raw []byte
	}{{good, imgRaw}, {bad, other}} {
		n.r.ctx.setFiles(map[string][]byte{
			DefaultConfigFile: n.r.wakeupConfig(t, n.r.baseWakeup(digest)),
			"image.1":         n.raw,
		})
		n.r.agent.StartXlet()
		n.r.clk.AfterFunc(time.Minute, func() { n.r.agent.DestroyXlet(true) })
		n.r.clk.Wait()
	}
	if good.appRuns != 1 || good.agent.met.rejections.Value() != 0 {
		t.Fatalf("matching buffer: app ran %d times, %d rejections", good.appRuns, good.agent.met.rejections.Value())
	}
	if bad.appRuns != 0 || bad.agent.met.rejections.Value() == 0 {
		t.Fatalf("mismatching buffer: app ran %d times, %d rejections", bad.appRuns, bad.agent.met.rejections.Value())
	}
	if st, _ := bad.agent.snapshot(); st != control.StateIdle {
		t.Fatalf("state = %v after aborted join", st)
	}

	// Six nodes on one clock and carousel, each with its image already
	// in its chunk cache, so every image read completes at the next
	// directory. Node 3's cache holds the other buffer under the hash
	// the directory advertises.
	clk := simtime.NewSim(epoch)
	nodes := make([]*rig, 6)
	for i := range nodes {
		nodes[i] = newRigOn(t, clk, withObs)
	}
	const badNode = 3
	car, err := dsmcc.NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dsmcc.NewBroadcaster(clk, car, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start([]dsmcc.File{
		{Name: DefaultConfigFile, Data: good.wakeupConfig(t, good.baseWakeup(digest))},
		{Name: "image.1", Data: imgRaw},
	}); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		held := append([]byte(nil), imgRaw...)
		if i == badNode {
			held = other
		}
		n.ctx.bcast, n.ctx.cache = b, dsmcc.NewChunkCache(1<<20)
		n.ctx.cache.Put(dsmcc.HashOf(imgRaw), held)
	}
	// One event starts every agent, so all reads are booked at one
	// virtual instant.
	clk.AfterFunc(0, func() {
		for _, n := range nodes {
			n.agent.StartXlet()
		}
	})
	clk.AfterFunc(time.Minute, func() {
		for _, n := range nodes {
			n.agent.DestroyXlet(true)
		}
	})
	clk.Wait()
	for i, n := range nodes {
		runs, rejected := n.appRuns, n.agent.met.rejections.Value()
		if i == badNode {
			if runs != 0 || rejected == 0 {
				t.Fatalf("node %d, other bytes: app ran %d times, %d rejections", i, runs, rejected)
			}
		} else if runs != 1 || rejected != 0 {
			t.Fatalf("node %d, signed bytes: app ran %d times, %d rejections", i, runs, rejected)
		}
	}
}
