package controller

import (
	"crypto/ed25519"
	"math/rand"
	"testing"
	"time"

	"oddci/internal/control"
	"oddci/internal/core/instance"
	"oddci/internal/dsmcc"
	"oddci/internal/middleware"
	"oddci/internal/simtime"
)

func newBackpressureRig(t *testing.T, rate float64) *rig {
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
	sig := middleware.NewSignalling(clk, 0)
	rng := rand.New(rand.NewSource(1))
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(Config{
		Clock: clk, Broadcaster: bcast, Signalling: sig,
		Key: priv, Rng: rng,
		TargetHeartbeatRate: rate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, ctrl: ctrl, pub: pub, sig: sig, bcast: bcast}
}

func TestBackpressureTunesIdlePeriod(t *testing.T) {
	r := newBackpressureRig(t, 10) // want ≤10 heartbeats/s
	// 3000 idle nodes: desired period = 300 s.
	var lastPeriod time.Duration
	for i := uint64(1); i <= 3000; i++ {
		reply := r.ctrl.HandleHeartbeat(&control.Heartbeat{
			NodeID: i, State: control.StateIdle,
			Profile: stbProfile(), SentAt: r.clk.Now(),
		})
		if reply.Period > 0 {
			lastPeriod = reply.Period
		}
	}
	want := 300 * time.Second
	if relDiff(lastPeriod, want) > 0.25 {
		t.Fatalf("instructed period %v, want ≈%v", lastPeriod, want)
	}
	// Node 1 was tuned when the population looked tiny; its next report
	// gets the corrected period, and the one after that is settled.
	beat := func() *control.HeartbeatReply {
		return r.ctrl.HandleHeartbeat(&control.Heartbeat{
			NodeID: 1, State: control.StateIdle,
			Profile: stbProfile(), SentAt: r.clk.Now(),
		})
	}
	if reply := beat(); relDiff(reply.Period, want) > 0.25 {
		t.Fatalf("correction = %v, want ≈%v", reply.Period, want)
	}
	if reply := beat(); reply.Period != 0 {
		t.Fatalf("re-instructed a settled node: %v", reply.Period)
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

func TestBackpressureClamps(t *testing.T) {
	r := newBackpressureRig(t, 1000) // tiny population, huge budget
	reply := r.ctrl.HandleHeartbeat(&control.Heartbeat{
		NodeID: 1, State: control.StateIdle,
		Profile: stbProfile(), SentAt: r.clk.Now(),
	})
	if reply.Period != MinHeartbeatPeriod {
		t.Fatalf("period = %v, want clamp at %v", reply.Period, MinHeartbeatPeriod)
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

func TestBackpressureDisabledByDefault(t *testing.T) {
	r := newRig(t)
	reply := r.ctrl.HandleHeartbeat(&control.Heartbeat{
		NodeID: 1, State: control.StateIdle,
		Profile: stbProfile(), SentAt: r.clk.Now(),
	})
	if reply.Period != 0 {
		t.Fatalf("unexpected period instruction %v", reply.Period)
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

func TestBackpressureLeavesBusyNodesAlone(t *testing.T) {
	r := newBackpressureRig(t, 10)
	id, err := r.ctrl.CreateInstance(InstanceSpec{
		Image: testImage(t), Target: 1, InitialProbability: 1,
		HeartbeatPeriod: 7 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	reply := r.ctrl.HandleHeartbeat(&control.Heartbeat{
		NodeID: 1, State: control.StateBusy, InstanceID: id,
		Profile: stbProfile(), SentAt: r.clk.Now(),
	})
	if reply.Period != 0 {
		t.Fatalf("busy node re-tuned to %v", reply.Period)
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

// The heartbeat budget is spent by the nodes that actually obey the
// tuning — the idle ones. A mostly-busy population must not inflate
// the instructed idle period (the old derivation used total node
// count: 1000 nodes at 2/s gave 500 s where 100 idle nodes want 50 s).
func TestBackpressureDerivesFromIdlePopulation(t *testing.T) {
	r := newBackpressureRig(t, 2)
	id, err := r.ctrl.CreateInstance(InstanceSpec{
		Image: testImage(t), Target: 900, InitialProbability: 1,
		HeartbeatPeriod: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 900; i++ {
		r.heartbeatBusy(i, id)
	}
	for i := uint64(901); i <= 1000; i++ {
		r.heartbeatIdle(i)
	}
	reply := r.ctrl.HandleHeartbeat(&control.Heartbeat{
		NodeID: 901, State: control.StateIdle,
		Profile: stbProfile(), SentAt: r.clk.Now(),
	})
	want := 50 * time.Second // 100 idle nodes / 2 per second
	if relDiff(reply.Period, want) > 0.25 {
		t.Fatalf("instructed idle period %v, want ≈%v (idle population only)", reply.Period, want)
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

// End-of-loop sanity: a PNA receiving the instruction applies it (the
// PNA side is covered in pna tests; this pins the protocol field).
func TestBackpressureFieldSurvivesCodec(t *testing.T) {
	reply := &control.HeartbeatReply{Period: 300 * time.Second}
	got, err := control.DecodeHeartbeatReply(control.EncodeHeartbeatReply(reply))
	if err != nil || got.Period != 300*time.Second {
		t.Fatalf("period round trip: %v %v", got, err)
	}
	_ = instance.AnyClass
}
