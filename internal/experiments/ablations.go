package experiments

import (
	"crypto/ed25519"
	"fmt"
	"math"
	"math/rand"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/backend"
	"oddci/internal/core/controller"
	"oddci/internal/core/instance"
	"oddci/internal/dsmcc"
	"oddci/internal/experiments/stats"
	"oddci/internal/middleware"
	"oddci/internal/simtime"
	"oddci/internal/system"
)

func init() {
	register("abl-prob", "Ablation: accuracy of probabilistic instance sizing", runAblProb)
	register("abl-churn", "Ablation: instance maintenance under device churn", runAblChurn)
	register("abl-heartbeat", "Ablation: Controller heartbeat-consolidation throughput", runAblHeartbeat)
	register("abl-carousel", "Ablation: carousel receiver strategy (file granularity vs block cache)", runAblCarousel)
}

var simEpoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

func workerImage(size int) *appimage.Image {
	return &appimage.Image{
		Name:       "worker",
		Version:    1,
		EntryPoint: backend.WorkerEntryPoint,
		Payload:    make([]byte, size),
	}
}

// runAblProb broadcasts one wakeup with probability p over an idle
// population and compares the joining count with the binomial model —
// the mechanism the Provider relies on to size instances without
// knowing individual nodes.
func runAblProb(cfg Config) (*Result, error) {
	nodes := 1000
	if cfg.Quick {
		nodes = 300
	}
	probs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	if cfg.Quick {
		probs = []float64{0.3, 0.7}
	}
	tbl := stats.NewTable(
		fmt.Sprintf("Joiners after one wakeup over %d idle nodes", nodes),
		"p", "expected p·N", "joined", "|z| (binomial std units)")
	maxZ := 0.0
	for i, p := range probs {
		clk := simtime.NewSim(simEpoch)
		sys, err := system.New(system.Config{
			Clock: clk, Nodes: nodes, Seed: cfg.Seed + int64(i),
			HeartbeatPeriod: time.Minute, MaintenancePeriod: time.Hour, // no recomposition
		})
		if err != nil {
			return nil, err
		}
		if err := sys.Start(); err != nil {
			return nil, err
		}
		if _, err := sys.Provider.Create(controller.InstanceSpec{
			Image:              workerImage(10000),
			Target:             nodes, // target irrelevant: single broadcast
			InitialProbability: p,
		}); err != nil {
			return nil, err
		}
		var joined int
		clk.AfterFunc(5*time.Minute, func() {
			joined = sys.LiveBusy(1)
			sys.Shutdown()
		})
		clk.Wait()
		mean := p * float64(nodes)
		std := math.Sqrt(float64(nodes) * p * (1 - p))
		z := math.Abs(float64(joined)-mean) / std
		if z > maxZ {
			maxZ = z
		}
		tbl.AddRow(p, mean, joined, z)
	}
	return &Result{
		Tables: []*stats.Table{tbl},
		Notes: []string{
			fmt.Sprintf("worst deviation %.2f binomial standard units — the gate sizes instances to ±√N accuracy, which the maintenance loop then trims", maxZ),
		},
	}, nil
}

// runAblChurn keeps an instance at target size while devices power
// cycle, measuring how close maintenance holds the size and how many
// wakeup rebroadcasts it costs.
func runAblChurn(cfg Config) (*Result, error) {
	nodes := 120
	if cfg.Quick {
		nodes = 60
	}
	type churnCase struct {
		name    string
		meanOn  time.Duration
		meanOff time.Duration
	}
	cases := []churnCase{
		{"calm (2h on / 5m off)", 2 * time.Hour, 5 * time.Minute},
		{"evening (30m on / 5m off)", 30 * time.Minute, 5 * time.Minute},
		{"zapping (8m on / 2m off)", 8 * time.Minute, 2 * time.Minute},
	}
	if cfg.Quick {
		cases = cases[2:]
	}
	target := nodes / 2
	tbl := stats.NewTable(
		fmt.Sprintf("Instance size under churn (N=%d, target=%d, 45 min)", nodes, target),
		"churn", "mean size", "min", "max", "wakeup rebroadcasts", "power cycles")
	for ci, cc := range cases {
		clk := simtime.NewSim(simEpoch)
		sys, err := system.New(system.Config{
			Clock: clk, Nodes: nodes, Seed: cfg.Seed + 100 + int64(ci),
			HeartbeatPeriod: 20 * time.Second, MaintenancePeriod: 30 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		if err := sys.Start(); err != nil {
			return nil, err
		}
		for _, box := range sys.STBs {
			if err := box.StartChurn(cc.meanOn, cc.meanOff); err != nil {
				return nil, err
			}
		}
		if _, err := sys.Provider.Create(controller.InstanceSpec{
			Image:              workerImage(10000),
			Target:             target,
			InitialProbability: float64(target) / float64(nodes) * 1.2,
		}); err != nil {
			return nil, err
		}
		var size stats.Sample
		for m := 10; m <= 45; m++ {
			m := m
			clk.AfterFunc(time.Duration(m)*time.Minute, func() {
				size.Add(float64(sys.LiveBusy(1)))
			})
		}
		var wakeups, cycles int
		clk.AfterFunc(46*time.Minute, func() {
			st, err := sys.Controller.Status(1)
			if err == nil {
				wakeups = st.Wakeups
			}
			for _, box := range sys.STBs {
				cycles += box.PowerCycles
			}
			sys.Shutdown()
		})
		clk.Wait()
		tbl.AddRow(cc.name, size.Mean(), size.Min(), size.Max(), wakeups, cycles)
	}
	return &Result{
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"the maintenance loop (heartbeat expiry + wakeup retransmission with re-estimated probability) holds the instance near target across churn regimes; harsher churn costs more rebroadcasts",
		},
	}, nil
}

// runAblHeartbeat measures the Controller's consolidation throughput:
// how many heartbeats per second one Controller absorbs, and therefore
// what population a given heartbeat period supports.
func runAblHeartbeat(cfg Config) (*Result, error) {
	clk := simtime.NewSim(simEpoch)
	car, err := dsmcc.NewCarousel(0x300, 0)
	if err != nil {
		return nil, err
	}
	bcast, err := dsmcc.NewBroadcaster(clk, car, 1e6)
	if err != nil {
		return nil, err
	}
	sigch := middleware.NewSignalling(clk, 0)
	_, priv, err := ed25519.GenerateKey(rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	ctrl, err := controller.New(controller.Config{
		Clock: clk, Broadcaster: bcast, Signalling: sigch,
		Key: priv, Rng: rand.New(rand.NewSource(cfg.Seed)),
	})
	if err != nil {
		return nil, err
	}
	if err := ctrl.Start(); err != nil {
		return nil, err
	}

	n := 2_000_000
	if cfg.Quick {
		n = 200_000
	}
	profile := instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100}
	hb := &control.Heartbeat{State: control.StateIdle, Profile: profile, SentAt: simEpoch}
	// Explicitly a host-cost calibration: the consolidator's real
	// throughput on this machine, not a virtual-time quantity.
	elapsed := hostSeconds(func() {
		for i := 0; i < n; i++ {
			hb.NodeID = uint64(i%100000) + 1
			ctrl.HandleHeartbeat(hb)
		}
	})
	ctrl.Stop()
	perSec := float64(n) / elapsed

	tbl := stats.NewTable("Heartbeat consolidation throughput (sharded consolidator, one core)",
		"heartbeats", "wall seconds", "heartbeats/s", "population @30s period", "population @5min period")
	tbl.AddRow(n, elapsed, perSec, perSec*30, perSec*300)
	return &Result{
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"the paper defers Controller-bottleneck engineering to future work (§3, footnote 3); the consolidator shards node state 64 ways (BenchmarkHandleHeartbeatParallel exercises all cores) and the heartbeat period — adaptively re-tuned when TargetHeartbeatRate is set — is the first-order scaling knob",
		},
	}, nil
}

// runAblCarousel contrasts the two receiver strategies across the file's
// share of the carousel cycle.
func runAblCarousel(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	samples := 4000
	if cfg.Quick {
		samples = 1000
	}
	tbl := stats.NewTable("Carousel access latency in cycles, by target file share of cycle",
		"file share", "file-gran. mean", "file-gran. max", "block-cache mean", "block-cache max")
	for _, share := range []float64{0.1, 0.5, 0.9, 0.99} {
		const total = 1 << 20
		target := int(share * total)
		car, err := dsmcc.NewCarousel(0x300, 0)
		if err != nil {
			return nil, err
		}
		if err := car.SetFiles([]dsmcc.File{
			{Name: "other", Data: make([]byte, total-target)},
			{Name: "target", Data: make([]byte, target)},
		}); err != nil {
			return nil, err
		}
		l, err := car.Layout()
		if err != nil {
			return nil, err
		}
		var fg, bc stats.Sample
		for i := 0; i < samples; i++ {
			pos := rng.Int63n(l.CycleWire)
			f, _ := l.NextCompletion("target", pos, dsmcc.FileGranularity)
			b, _ := l.NextCompletion("target", pos, dsmcc.BlockCache)
			fg.Add(float64(f-pos) / float64(l.CycleWire))
			bc.Add(float64(b-pos) / float64(l.CycleWire))
		}
		tbl.AddRow(share, fg.Mean(), fg.Max(), bc.Mean(), bc.Max())
	}
	return &Result{
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"file-granularity receivers (the paper's model) pay up to ~2 cycles when the file dominates; block caching caps the wait at ~1 cycle — a free 33% wakeup improvement the standard permits",
		},
	}, nil
}
