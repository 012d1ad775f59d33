package stb

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"oddci/internal/core/instance"
	"oddci/internal/dsmcc"
	"oddci/internal/middleware"
	"oddci/internal/simtime"
	"oddci/internal/xlet"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

func TestPerfModelConversions(t *testing.T) {
	m := DefaultPerf()
	// Reference STB = in-use: identity.
	if d := m.TaskDuration(10, InUse); d != 10*time.Second {
		t.Fatalf("in-use duration = %v", d)
	}
	// Standby is 1.65× faster.
	if d := m.TaskDuration(10, Standby); math.Abs(d.Seconds()-10/1.65) > 1e-9 {
		t.Fatalf("standby duration = %v", d)
	}
	// PC is 20.6× faster than the in-use STB.
	if pc := m.PCSeconds(20.6); math.Abs(pc-1) > 1e-9 {
		t.Fatalf("PCSeconds = %v", pc)
	}
	// Round trip.
	if got := m.FromPCSeconds(m.PCSeconds(7), InUse); math.Abs(got-7) > 1e-9 {
		t.Fatalf("round trip = %v", got)
	}
	// The two published factors compose: standby/PC = 20.6/1.65.
	if got := m.FromPCSeconds(1, Standby); math.Abs(got-20.6/1.65) > 1e-9 {
		t.Fatalf("standby/PC = %v", got)
	}
}

func newTestSTB(t *testing.T, clk simtime.Clock, id uint64) *STB {
	t.Helper()
	car, err := dsmcc.NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dsmcc.NewBroadcaster(clk, car, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Update([]dsmcc.File{{Name: "x", Data: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		ID:          id,
		Clock:       clk,
		Broadcaster: b,
		Signalling:  middleware.NewSignalling(clk, 0),
		Profile:     instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100},
		Rng:         rand.New(rand.NewSource(int64(id))),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPowerCycleCreatesFreshManager(t *testing.T) {
	clk := simtime.NewSim(epoch)
	s := newTestSTB(t, clk, 1)
	if s.Powered() {
		t.Fatal("new STB should be off")
	}
	if err := s.PowerOn(); err != nil {
		t.Fatal(err)
	}
	m1 := s.Manager()
	if m1 == nil {
		t.Fatal("no manager while powered")
	}
	s.PowerOff()
	if s.Manager() != nil {
		t.Fatal("manager survives power off")
	}
	if err := s.PowerOn(); err != nil {
		t.Fatal(err)
	}
	if s.Manager() == m1 {
		t.Fatal("manager not recreated across power cycle")
	}
	if s.PowerCycles != 1 {
		t.Fatalf("power cycles = %d", s.PowerCycles)
	}
	s.PowerOff()
	clk.Wait()
}

func TestRegisteredAppsSurvivePowerCycle(t *testing.T) {
	clk := simtime.NewSim(epoch)
	s := newTestSTB(t, clk, 2)
	s.RegisterApp("a.xlet", func() xlet.Xlet { return nil })
	if err := s.PowerOn(); err != nil {
		t.Fatal(err)
	}
	s.PowerOff()
	if err := s.PowerOn(); err != nil {
		t.Fatal(err)
	}
	// Registration is reflected in the fresh manager: launching through
	// it would find the factory (counted indirectly: no launchErrors
	// path is exercised here, so check the internal map via a second
	// registration being idempotent).
	s.RegisterApp("a.xlet", func() xlet.Xlet { return nil })
	s.PowerOff()
	clk.Wait()
}

func TestModeSwitchAffectsTaskDuration(t *testing.T) {
	clk := simtime.NewSim(epoch)
	s := newTestSTB(t, clk, 3)
	inUse := s.TaskDuration(10)
	s.SetMode(Standby)
	standby := s.TaskDuration(10)
	if standby >= inUse {
		t.Fatalf("standby (%v) not faster than in-use (%v)", standby, inUse)
	}
	if s.Mode() != Standby {
		t.Fatal("mode not recorded")
	}
	clk.Wait()
}

func TestChurnTogglesPower(t *testing.T) {
	clk := simtime.NewSim(epoch)
	s := newTestSTB(t, clk, 4)
	var transitions int
	s.OnPower = func(on bool, at time.Time) { transitions++ }
	if err := s.StartChurn(10*time.Minute, 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	clk.AfterFunc(3*time.Hour, s.StopChurn)
	clk.Wait()
	if transitions < 10 {
		t.Fatalf("only %d power transitions in 3h of 13-min-mean churn", transitions)
	}
	if s.PowerCycles == 0 {
		t.Fatal("no power cycles recorded")
	}
}

func TestChurnDeterministicPerSeed(t *testing.T) {
	run := func() []time.Duration {
		clk := simtime.NewSim(epoch)
		s := newTestSTB(t, clk, 42)
		var at []time.Duration
		s.OnPower = func(on bool, when time.Time) { at = append(at, when.Sub(epoch)) }
		s.StartChurn(20*time.Minute, 5*time.Minute)
		clk.AfterFunc(2*time.Hour, s.StopChurn)
		clk.Wait()
		return at
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transition %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestChurnValidation(t *testing.T) {
	clk := simtime.NewSim(epoch)
	s := newTestSTB(t, clk, 5)
	if err := s.StartChurn(0, time.Minute); err == nil {
		t.Fatal("zero mean accepted")
	}
	if err := s.StartChurn(time.Minute, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := s.StartChurn(time.Minute, time.Minute); err == nil {
		t.Fatal("double churn accepted")
	}
	s.StopChurn()
	s.PowerOff()
	clk.Wait()
}

func TestSTBValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	clk := simtime.NewSim(epoch)
	car, _ := dsmcc.NewCarousel(1, 0)
	b, _ := dsmcc.NewBroadcaster(clk, car, 1e6)
	if _, err := New(Config{Clock: clk, Broadcaster: b,
		Signalling: middleware.NewSignalling(clk, 0)}); err == nil {
		t.Fatal("missing rng accepted")
	}
}

func TestModeString(t *testing.T) {
	if InUse.String() != "in-use" || Standby.String() != "standby" {
		t.Fatal("mode strings wrong")
	}
}
