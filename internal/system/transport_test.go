package system

import (
	"testing"
	"time"

	"oddci/internal/core/controller"
	"oddci/internal/simtime"
	"oddci/internal/workload"
)

// The whole OddCI control plane — wakeup, image staging, heartbeats,
// task execution — must run unchanged over the IP-multicast substrate
// of §3.3.
func TestEndToEndOverIPMulticast(t *testing.T) {
	clk := simtime.NewSim(epoch)
	sys, err := New(Config{
		Clock:             clk,
		Nodes:             30,
		Seed:              41,
		Transport:         TransportIPMulticast,
		HeartbeatPeriod:   30 * time.Second,
		MaintenancePeriod: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	gen := workload.Generator{Name: "mcast", Tasks: 90, InputBytes: 512, OutputBytes: 256, MeanSeconds: 5}
	job, _ := gen.Generate()
	h, err := sys.Backend.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Provider.Create(controller.InstanceSpec{
		Image:              testImage(1 << 20),
		Target:             30,
		InitialProbability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	h.OnComplete(func(time.Time) { sys.Shutdown() })
	clk.Wait()
	if len(h.Results()) != 90 {
		t.Fatalf("results = %d", len(h.Results()))
	}
}

// With identical parameters and late joiners at random carousel phases,
// the multicast transport's inherent chunk caching must not be slower
// than the DTV file-granularity receiver.
func TestMulticastJoinNotSlowerThanDTV(t *testing.T) {
	run := func(tr Transport) time.Duration {
		clk := simtime.NewSim(epoch)
		sys, err := New(Config{
			Clock:             clk,
			Nodes:             20,
			Seed:              42,
			Transport:         tr,
			HeartbeatPeriod:   30 * time.Second,
			MaintenancePeriod: time.Hour,
			initialPowerOn:    0.001, // almost everyone joins late
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Provider.Create(controller.InstanceSpec{
			Image:              testImage(2 << 20),
			Target:             20,
			InitialProbability: 1,
		}); err != nil {
			t.Fatal(err)
		}
		// Power the fleet on at staggered times mid-cycle, then measure
		// when everyone has joined.
		for i, box := range sys.STBs {
			box := box
			clk.AfterFunc(time.Duration(30+i*7)*time.Second, func() { box.PowerOn() })
		}
		var allBusyAt time.Duration
		var check func()
		check = func() {
			if sys.LiveBusy(1) == len(sys.STBs) {
				allBusyAt = clk.Now().Sub(epoch)
				sys.Shutdown()
				return
			}
			clk.AfterFunc(5*time.Second, check)
		}
		clk.AfterFunc(time.Minute, check)
		clk.AfterFunc(2*time.Hour, sys.Shutdown) // safety valve
		clk.Wait()
		if allBusyAt == 0 {
			t.Fatalf("fleet never fully joined over transport %d", tr)
		}
		return allBusyAt
	}
	dtv := run(TransportDTV)
	mcast := run(TransportIPMulticast)
	t.Logf("full join: dtv=%v multicast=%v", dtv, mcast)
	if mcast > dtv {
		t.Fatalf("multicast join (%v) slower than DTV (%v)", mcast, dtv)
	}
}
