package provider

import (
	"crypto/ed25519"
	"math/rand"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/controller"
	"oddci/internal/dsmcc"
	"oddci/internal/middleware"
	"oddci/internal/simtime"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

func newProvider(t *testing.T) (*Provider, *simtime.Sim, *controller.Controller) {
	t.Helper()
	clk := simtime.NewSim(epoch)
	car, err := dsmcc.NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	bcast, err := dsmcc.NewBroadcaster(clk, car, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	_, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(controller.Config{
		Clock: clk, Broadcaster: bcast,
		Signalling: middleware.NewSignalling(clk, 0),
		Key:        priv, Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	return New(ctrl), clk, ctrl
}

func spec() controller.InstanceSpec {
	return controller.InstanceSpec{
		Image:              &appimage.Image{Name: "a", EntryPoint: "e", Payload: []byte{1}},
		Target:             5,
		InitialProbability: 1,
	}
}

func TestCreateAndTrack(t *testing.T) {
	p, clk, ctrl := newProvider(t)
	inst, err := p.Create(spec())
	if err != nil {
		t.Fatal(err)
	}
	if inst.ID() == 0 {
		t.Fatal("zero instance id")
	}
	st, err := inst.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Target != 5 || st.Wakeups != 1 {
		t.Fatalf("status %+v", st)
	}
	ctrl.Stop()
	clk.Wait()
}

func TestDestroyRemovesHandle(t *testing.T) {
	p, clk, ctrl := newProvider(t)
	inst, err := p.Create(spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Destroy(); err != nil {
		t.Fatal(err)
	}
	// Idempotent destroy; resize after destroy fails.
	if err := inst.Destroy(); err != nil {
		t.Fatalf("second destroy: %v", err)
	}
	if err := inst.Resize(3); err == nil {
		t.Fatal("resize after destroy accepted")
	}
	ctrl.Stop()
	clk.Wait()
}

func TestResizePassesThrough(t *testing.T) {
	p, clk, ctrl := newProvider(t)
	inst, err := p.Create(spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Resize(9); err != nil {
		t.Fatal(err)
	}
	st, _ := inst.Status()
	if st.Target != 9 {
		t.Fatalf("target = %d", st.Target)
	}
	ctrl.Stop()
	clk.Wait()
}

func TestCreateErrorPropagates(t *testing.T) {
	p, clk, ctrl := newProvider(t)
	if _, err := p.Create(controller.InstanceSpec{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	ctrl.Stop()
	clk.Wait()
}

func TestPopulationDelegates(t *testing.T) {
	p, clk, ctrl := newProvider(t)
	if idle, busy := p.Population(); idle != 0 || busy != 0 {
		t.Fatalf("population = %d/%d", idle, busy)
	}
	ctrl.Stop()
	clk.Wait()
}
