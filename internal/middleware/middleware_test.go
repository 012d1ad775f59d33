package middleware

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"oddci/internal/ait"
	"oddci/internal/dsmcc"
	"oddci/internal/simtime"
	"oddci/internal/xlet"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

// fakeXlet records lifecycle calls.
type fakeXlet struct {
	mu         sync.Mutex
	ctx        xlet.Context
	inits      int
	starts     int
	pauses     int
	destroys   int
	initErr    error
	refuseSoft bool
}

func (f *fakeXlet) InitXlet(ctx xlet.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ctx = ctx
	f.inits++
	return f.initErr
}
func (f *fakeXlet) StartXlet() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.starts++
	return nil
}
func (f *fakeXlet) PauseXlet() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pauses++
}
func (f *fakeXlet) DestroyXlet(unconditional bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !unconditional && f.refuseSoft {
		return errors.New("busy")
	}
	f.destroys++
	return nil
}

type rig struct {
	clk   *simtime.Sim
	bcast *dsmcc.Broadcaster
	sig   *Signalling
}

func newRig(t *testing.T, files ...dsmcc.File) *rig {
	t.Helper()
	clk := simtime.NewSim(epoch)
	car, err := dsmcc.NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dsmcc.NewBroadcaster(clk, car, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(files); err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, bcast: b, sig: NewSignalling(clk, 0)}
}

func pnaAIT(code ait.ControlCode) *ait.AIT {
	return &ait.AIT{
		Type:    ait.TypeDVBJ,
		Version: 1,
		Applications: []ait.Application{
			{OrgID: 0xDD, AppID: 1, ControlCode: code, Name: "PNA", ClassFile: "pna.xlet"},
		},
	}
}

func newManager(t *testing.T, r *rig, cfg Config) *Manager {
	t.Helper()
	if cfg.Rng == nil {
		cfg.Rng = rand.New(rand.NewSource(1))
	}
	m, err := NewManager(r.clk, r.bcast, r.sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAutostartLaunchesXlet(t *testing.T) {
	code := bytes.Repeat([]byte{0x50}, 100000)
	r := newRig(t, dsmcc.File{Name: "pna.xlet", Data: code})
	m := newManager(t, r, Config{})
	fx := &fakeXlet{}
	m.RegisterFactory("pna.xlet", func() xlet.Xlet { return fx })
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.sig.Publish(pnaAIT(ait.Autostart)); err != nil {
		t.Fatal(err)
	}
	r.clk.Wait()
	if fx.inits != 1 || fx.starts != 1 {
		t.Fatalf("inits=%d starts=%d, want 1,1", fx.inits, fx.starts)
	}
	apps := appStates(m)
	if len(apps) != 1 || apps[0] != xlet.Started {
		t.Fatalf("apps: %+v", apps)
	}
	if m.LaunchErrors != 0 {
		t.Fatalf("launch errors: %d", m.LaunchErrors)
	}
}

func TestAutostartIdempotentAcrossRepetitions(t *testing.T) {
	r := newRig(t, dsmcc.File{Name: "pna.xlet", Data: make([]byte, 1000)})
	m := newManager(t, r, Config{})
	launches := 0
	m.RegisterFactory("pna.xlet", func() xlet.Xlet { launches++; return &fakeXlet{} })
	m.Start()
	table := pnaAIT(ait.Autostart)
	// Three repetitions of the same AIT.
	for i := 0; i < 3; i++ {
		r.sig.Publish(table)
	}
	r.clk.Wait()
	if launches != 1 {
		t.Fatalf("launched %d instances, want 1", launches)
	}
}

func TestKillDestroysXlet(t *testing.T) {
	r := newRig(t, dsmcc.File{Name: "pna.xlet", Data: make([]byte, 1000)})
	m := newManager(t, r, Config{})
	fx := &fakeXlet{refuseSoft: true}
	m.RegisterFactory("pna.xlet", func() xlet.Xlet { return fx })
	m.Start()
	r.sig.Publish(pnaAIT(ait.Autostart))
	r.clk.Wait()
	r.sig.Publish(pnaAIT(ait.Kill))
	r.clk.Wait()
	if fx.destroys != 1 {
		t.Fatalf("destroys = %d (KILL is unconditional)", fx.destroys)
	}
	if len(appStates(m)) != 0 {
		t.Fatalf("apps still present: %+v", appStates(m))
	}
}

func TestAuthenticationFailureBlocksLaunch(t *testing.T) {
	r := newRig(t, dsmcc.File{Name: "pna.xlet", Data: []byte("evil")})
	m := newManager(t, r, Config{
		Authenticate: func(name string, code []byte) error {
			return errors.New("bad signature")
		},
	})
	fx := &fakeXlet{}
	m.RegisterFactory("pna.xlet", func() xlet.Xlet { return fx })
	m.Start()
	r.sig.Publish(pnaAIT(ait.Autostart))
	r.clk.Wait()
	if fx.inits != 0 {
		t.Fatal("unauthenticated code ran")
	}
	if m.AuthFailures != 1 {
		t.Fatalf("auth failures = %d", m.AuthFailures)
	}
	if len(appStates(m)) != 0 {
		t.Fatal("rejected app left registered")
	}
}

func TestUnknownClassFileCountsError(t *testing.T) {
	r := newRig(t, dsmcc.File{Name: "pna.xlet", Data: []byte{1}})
	m := newManager(t, r, Config{})
	m.Start()
	r.sig.Publish(pnaAIT(ait.Autostart))
	r.clk.Wait()
	if m.LaunchErrors == 0 {
		t.Fatal("missing factory not recorded")
	}
}

func TestStopDestroysRunningApps(t *testing.T) {
	r := newRig(t, dsmcc.File{Name: "pna.xlet", Data: make([]byte, 1000)})
	m := newManager(t, r, Config{})
	fx := &fakeXlet{}
	m.RegisterFactory("pna.xlet", func() xlet.Xlet { return fx })
	m.Start()
	r.sig.Publish(pnaAIT(ait.Autostart))
	r.clk.Wait()
	m.Stop()
	if fx.destroys != 1 {
		t.Fatalf("destroys = %d after power-off", fx.destroys)
	}
	// New AITs are ignored after Stop.
	r.sig.Publish(pnaAIT(ait.Autostart))
	r.clk.Wait()
	if fx.inits != 1 {
		t.Fatal("app relaunched after Stop")
	}
}

func TestLaunchDelayIncludesCarouselCycle(t *testing.T) {
	// The Xlet code is 1 MiB on a 1 Mbps channel: launch cannot complete
	// before the carousel delivers it (~8.4s + signalling).
	code := make([]byte, 1<<20)
	r := newRig(t, dsmcc.File{Name: "pna.xlet", Data: code})
	m := newManager(t, r, Config{})
	var startedAt time.Time
	m.RegisterFactory("pna.xlet", func() xlet.Xlet { return &fakeXlet{} })
	m.Start()
	r.sig.Publish(pnaAIT(ait.Autostart))
	r.clk.Wait()
	apps := appStates(m)
	if len(apps) != 1 || apps[0] != xlet.Started {
		t.Fatalf("apps: %+v", apps)
	}
	startedAt = r.clk.Now()
	minDelay := time.Duration(float64(len(code)) * 8 / 1e6 * float64(time.Second))
	if startedAt.Sub(epoch) < minDelay {
		t.Fatalf("started after %v, carousel needs ≥ %v", startedAt.Sub(epoch), minDelay)
	}
}

func TestNotifyDestroyedDeregisters(t *testing.T) {
	r := newRig(t, dsmcc.File{Name: "pna.xlet", Data: make([]byte, 100)})
	m := newManager(t, r, Config{})
	fx := &fakeXlet{}
	m.RegisterFactory("pna.xlet", func() xlet.Xlet { return fx })
	m.Start()
	r.sig.Publish(pnaAIT(ait.Autostart))
	r.clk.Wait()
	fx.ctx.NotifyDestroyed()
	if len(appStates(m)) != 0 {
		t.Fatal("self-destroyed app still registered")
	}
}

func TestSignallingTuneInSeesCurrentAIT(t *testing.T) {
	clk := simtime.NewSim(epoch)
	sig := NewSignalling(clk, 200*time.Millisecond)
	sig.Publish(pnaAIT(ait.Autostart))
	var seen int
	var at time.Time
	sig.Subscribe(rand.New(rand.NewSource(5)), func(raw []byte) {
		seen++
		at = clk.Now()
	})
	clk.Wait()
	if seen != 1 {
		t.Fatalf("late subscriber saw %d tables", seen)
	}
	if at.Sub(epoch) >= 200*time.Millisecond {
		t.Fatalf("tune-in delay %v exceeds repetition period", at.Sub(epoch))
	}
}

func TestSignallingCancelledListenerSilent(t *testing.T) {
	clk := simtime.NewSim(epoch)
	sig := NewSignalling(clk, 0)
	n := 0
	cancel := sig.Subscribe(rand.New(rand.NewSource(5)), func([]byte) { n++ })
	cancel()
	sig.Publish(pnaAIT(ait.Autostart))
	clk.Wait()
	if n != 0 {
		t.Fatal("cancelled listener received AIT")
	}
	sig.mu.Lock()
	tuned := len(sig.listeners)
	sig.mu.Unlock()
	if tuned != 0 {
		t.Fatal("listener count wrong")
	}
}

// appStates snapshots the lifecycle state of each application m holds.
func appStates(m *Manager) []xlet.State {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []xlet.State
	for _, a := range m.apps {
		out = append(out, a.lc.State())
	}
	return out
}
