package pna

import (
	"crypto/ed25519"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/dve"
	"oddci/internal/core/instance"
	"oddci/internal/netsim"
	"oddci/internal/simtime"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

// fakeCtx is a scripted xlet.Context: a mutable in-memory carousel with
// a fixed delivery delay.
type fakeCtx struct {
	clk       *simtime.Sim
	mu        sync.Mutex
	files     map[string][]byte
	delay     time.Duration
	listeners map[int]func()
	nextID    int
	destroyed bool
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
func (c *fakeCtx) AppKey() uint64       { return 1 }
func (c *fakeCtx) Go(fn func())         { c.clk.Go(fn) }
func (c *fakeCtx) After(d time.Duration, fn func()) simtime.Timer {
	return c.clk.AfterFunc(d, fn)
}
func (c *fakeCtx) NotifyDestroyed() { c.destroyed = true }

func (c *fakeCtx) ReadFile(name string, fn func([]byte, error)) {
	c.clk.AfterFunc(c.delay, func() {
		c.mu.Lock()
		data, ok := c.files[name]
		c.mu.Unlock()
		if !ok {
			fn(nil, errors.New("no such file"))
			return
		}
		fn(append([]byte(nil), data...), nil)
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
	clk := simtime.NewSim(epoch)
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
		HeartbeatTimeout: 5 * time.Second,
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
	r := newRig(t, nil)
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
	if r.agent.Rejections == 0 {
		t.Fatal("rejection not recorded")
	}
	if st, _ := r.agent.State(); st != control.StateIdle {
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
	if st, _ := r.agent.State(); st != control.StateIdle {
		t.Fatalf("state = %v after aborted join", st)
	}
}

func TestProbabilityZeroNeverJoins(t *testing.T) {
	r := newRig(t, nil)
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
	if r.agent.Drops != 1 {
		t.Fatalf("drops = %d", r.agent.Drops)
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
		state, inst = r.agent.State()
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
		state, _ = r.agent.State()
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
		state, _ = r.agent.State()
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
	// An app that reports three tasks then stays resident.
	r.reg.Register("counter", func(env *dve.Env) error {
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
	r.agent.PauseXlet() // heartbeating continues; no state change
	var tasks uint32
	r.clk.AfterFunc(2*time.Minute, func() {
		tasks = r.agent.TasksDone()
		r.agent.DestroyXlet(true)
	})
	r.clk.Wait()
	if tasks != 3 {
		t.Fatalf("tasks done = %d", tasks)
	}
}

func TestUnknownEntryPointAborts(t *testing.T) {
	r := newRig(t, nil)
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
		state, _ = r.agent.State()
		r.agent.DestroyXlet(true)
	})
	r.clk.Wait()
	if state != control.StateIdle {
		t.Fatalf("state = %v after unresolvable image", state)
	}
	if r.agent.Rejections == 0 {
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
// only the one whose buffer matches the digest launches.
func TestDigestCheckedPerNodeBuffer(t *testing.T) {
	good, bad := newRig(t, nil), newRig(t, nil)
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
	if good.appRuns != 1 || good.agent.Rejections != 0 {
		t.Fatalf("matching buffer: app ran %d times, %d rejections", good.appRuns, good.agent.Rejections)
	}
	if bad.appRuns != 0 || bad.agent.Rejections == 0 {
		t.Fatalf("mismatching buffer: app ran %d times, %d rejections", bad.appRuns, bad.agent.Rejections)
	}
	if st, _ := bad.agent.State(); st != control.StateIdle {
		t.Fatalf("state = %v after aborted join", st)
	}
}
