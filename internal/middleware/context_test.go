package middleware

import (
	"errors"
	"testing"
	"time"

	"oddci/internal/ait"
	"oddci/internal/dsmcc"
	"oddci/internal/xlet"
)

// ctxProbe captures the context handed to an Xlet and exercises every
// managerContext method.
type ctxProbe struct {
	fakeXlet
	ctx xlet.Context
}

func (p *ctxProbe) InitXlet(ctx xlet.Context) error {
	p.ctx = ctx
	return p.fakeXlet.InitXlet(ctx)
}

func TestManagerContextMethods(t *testing.T) {
	r := newRig(t, dsmcc.File{Name: "pna.xlet", Data: make([]byte, 1000)},
		dsmcc.File{Name: "extra", Data: []byte("payload")})
	m := newManager(t, r, Config{})
	probe := &ctxProbe{}
	m.RegisterFactory("pna.xlet", func() xlet.Xlet { return probe })
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	r.sig.Publish(pnaAIT(ait.Autostart))
	r.clk.Wait()
	if probe.ctx == nil {
		t.Fatal("xlet never initialized")
	}
	ctx := probe.ctx
	if ctx.Clock() != r.clk {
		t.Fatal("Clock() wrong")
	}

	var fileData []byte
	var fileErr error
	ctx.ReadFile("extra", func(data []byte, err error) { fileData, fileErr = data, err })
	r.clk.Wait()
	if fileErr != nil || string(fileData) != "payload" {
		t.Fatalf("ReadFile = %q, %v", fileData, fileErr)
	}

	ran := false
	ctx.Go(func() { ran = true })
	r.clk.Wait()
	if !ran {
		t.Fatal("Go() did not run")
	}

	updates := 0
	cancel := ctx.OnCarouselUpdate(func() { updates++ })
	r.bcast.Update([]dsmcc.File{
		{Name: "pna.xlet", Data: make([]byte, 1000)},
		{Name: "extra", Data: []byte("v2")},
	})
	r.clk.Wait()
	if updates != 1 {
		t.Fatalf("carousel updates seen = %d", updates)
	}
	cancel()
	m.Stop()
	r.clk.Wait()
}

func TestInitFailureDestroysXlet(t *testing.T) {
	r := newRig(t, dsmcc.File{Name: "pna.xlet", Data: make([]byte, 100)})
	m := newManager(t, r, Config{})
	fx := &fakeXlet{initErr: errors.New("boom")}
	m.RegisterFactory("pna.xlet", func() xlet.Xlet { return fx })
	m.Start()
	r.sig.Publish(pnaAIT(ait.Autostart))
	r.clk.Wait()
	if fx.destroys != 1 {
		t.Fatalf("destroys = %d after init failure", fx.destroys)
	}
	if m.launchErrors == 0 {
		t.Fatal("init failure not counted")
	}
	if len(appStates(m)) != 0 {
		t.Fatal("failed app left registered")
	}
}

func TestGarbageAITCounted(t *testing.T) {
	r := newRig(t, dsmcc.File{Name: "pna.xlet", Data: []byte{1}})
	m := newManager(t, r, Config{})
	m.Start()
	// Raw garbage into the signalling listener path.
	r.clk.Go(func() { m.handleAIT([]byte{0xDE, 0xAD}) })
	r.clk.Wait()
	if m.launchErrors != 1 {
		t.Fatalf("launch errors = %d", m.launchErrors)
	}
	m.Stop()
	r.clk.Wait()
}

func TestDestroyWhileDownloadInFlight(t *testing.T) {
	// KILL arriving while the Xlet code is still on the carousel must
	// abandon the launch entirely.
	code := make([]byte, 2<<20) // ~17 s on the carousel
	r := newRig(t, dsmcc.File{Name: "pna.xlet", Data: code})
	m := newManager(t, r, Config{})
	launched := false
	m.RegisterFactory("pna.xlet", func() xlet.Xlet { launched = true; return &fakeXlet{} })
	m.Start()
	r.sig.Publish(pnaAIT(ait.Autostart))
	r.clk.AfterFunc(2*time.Second, func() { r.sig.Publish(pnaAIT(ait.Kill)) })
	r.clk.Wait()
	if launched {
		t.Fatal("killed-in-flight app still launched")
	}
	if len(appStates(m)) != 0 {
		t.Fatalf("apps: %+v", appStates(m))
	}
	m.Stop()
	r.clk.Wait()
}

func TestNewManagerRequiresRng(t *testing.T) {
	r := newRig(t, dsmcc.File{Name: "x", Data: []byte{1}})
	if _, err := NewManager(r.clk, r.bcast, r.sig, Config{}); err == nil {
		t.Fatal("missing rng accepted")
	}
}

// The carousel's delivery reaches the application by reference: the
// authenticator and every Xlet's ReadFile, with or without a chunk
// cache, cold or warm, see the one slice the carousel was staged with.
func TestDeliveryReachesXletsByReference(t *testing.T) {
	code := make([]byte, 1000)
	image := make([]byte, 50000)
	r := newRig(t, dsmcc.File{Name: "pna.xlet", Data: code}, dsmcc.File{Name: "image", Data: image})
	var authSaw [][]byte
	auth := func(_ string, c []byte) error { authSaw = append(authSaw, c); return nil }
	probes := []*ctxProbe{{}, {}}
	for i, cfg := range []Config{
		{Authenticate: auth},
		{Authenticate: auth, Cache: dsmcc.NewChunkCache(1 << 20)},
	} {
		probe := probes[i]
		m := newManager(t, r, cfg)
		m.RegisterFactory("pna.xlet", func() xlet.Xlet { return probe })
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		defer m.Stop()
	}
	r.sig.Publish(pnaAIT(ait.Autostart))
	r.clk.Wait()
	if len(authSaw) != 2 || &authSaw[0][0] != &code[0] || &authSaw[1][0] != &code[0] {
		t.Fatalf("authenticator saw %d deliveries, want 2 of the staged code slice", len(authSaw))
	}
	for round := 0; round < 2; round++ { // the second round is a cache hit for probe 1
		for i, p := range probes {
			var got []byte
			p.ctx.ReadFile("image", func(data []byte, err error) {
				if err != nil {
					t.Errorf("round %d probe %d: %v", round, i, err)
				}
				got = data
			})
			r.clk.Wait()
			if len(got) != len(image) || &got[0] != &image[0] {
				t.Fatalf("round %d probe %d read a copy (len %d), want the staged slice", round, i, len(got))
			}
		}
	}
}
