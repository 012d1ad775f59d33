package main

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/backend"
	"oddci/internal/core/controller"
	"oddci/internal/core/instance"
	"oddci/internal/dsmcc"
	"oddci/internal/federation"
	"oddci/internal/journal"
	"oddci/internal/middleware"
	"oddci/internal/mpegts"
	"oddci/internal/netsim"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/workload"
)

// A probe replays seeded inputs of the workloads' sizes straight
// through one layer's public function, on one goroutine, and reports
// the median over a few rounds. Every traced run executes every probe
// the same way, whatever its workload: a probe prices a layer, the
// spans say how much of it an op buys.

var probes = []func(env, map[string]float64) error{
	probeBackend, probeControl, probeImage, probeCarousel, probeDelta,
	probeJournal, probeSimtime, probeBus, probeController, probeRing,
}

func runProbes(m map[string]float64, e env) error {
	for _, p := range probes {
		if err := p(e, m); err != nil {
			return err
		}
	}
	return nil
}

// rounds is how often a probe repeats its timed body.
func rounds(e env) int {
	if e.quick {
		return 3
	}
	return 5
}

// medianNS runs fn once per round and returns the median duration in
// nanoseconds.
func medianNS(e env, fn func() error) (float64, error) {
	var ns []float64
	for r := 0; r < rounds(e); r++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t0)))
	}
	return median(ns), nil
}

func mbPerS(bytes int, ns float64) float64 { return float64(bytes) / 1e6 / (ns / 1e9) }

// probeBackend drives dispatch and commit over the tcp_tasks job on a
// fresh backend, with that workload's credential policy. The quorum
// path runs the same at Replication 3 over an eighth of the job: there
// a request scans past the tasks its node already holds, so dispatch
// cost grows with the backlog and the full job would eat the budget.
func probeBackend(e env, m map[string]float64) error {
	n := jobTasks(e)
	job := payloadJob(rand.New(rand.NewSource(e.seed)), "probe", n, 512)
	small := &workload.Job{Name: job.Name, Tasks: job.Tasks[:n/8]}
	var dispatch, commit, allocs, r3dispatch, r3commit []float64
	for r := 0; r < rounds(e); r++ {
		d, c, a, err := handOff(job, 1)
		if err != nil {
			return err
		}
		dispatch, commit, allocs = append(dispatch, d), append(commit, c), append(allocs, a)
		if d, c, _, err = handOff(small, 3); err != nil {
			return err
		}
		r3dispatch, r3commit = append(r3dispatch, d), append(r3commit, c)
	}
	m["backend.dispatch_ns"] = median(dispatch)
	m["backend.commit_ns"] = median(commit)
	m["backend.handoff_allocs"] = median(allocs)
	m["backend.r3_dispatch_ns"] = median(r3dispatch)
	m["backend.r3_commit_ns"] = median(r3commit)
	return nil
}

// handOff dispatches every task of job to each of replication nodes
// on a fresh backend and commits every result, returning nanoseconds
// per dispatch, per commit and allocations per hand-off.
func handOff(job *workload.Job, replication int) (dispatchNS, commitNS, allocs float64, err error) {
	be, err := backend.New(backend.Config{Clock: simtime.NewReal(), LeaseBase: time.Hour,
		CredentialMode: backend.CredEnforce, Replication: replication})
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := be.Submit(job); err != nil {
		return 0, 0, 0, err
	}
	n := len(job.Tasks)
	results := make([]backend.TaskResult, 0, n*replication)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	t0 := time.Now()
	for node := uint64(1); node <= uint64(replication); node++ {
		req := &backend.TaskRequest{NodeID: node}
		for i := 0; i < n; i++ {
			a, ok := be.HandleRequest(req).(*backend.TaskAssign)
			if !ok {
				return 0, 0, 0, fmt.Errorf("backend probe: dispatch %d of node %d came up empty", i, node)
			}
			results = append(results, backend.TaskResult{NodeID: node, JobID: a.JobID, TaskID: a.TaskID, Credential: a.Credential})
		}
	}
	t1 := time.Now()
	for i := range results {
		be.HandleResult(&results[i])
	}
	t2 := time.Now()
	runtime.ReadMemStats(&ms)
	if be.Completed != int64(n) {
		return 0, 0, 0, fmt.Errorf("backend probe: %d of %d tasks committed at replication %d", be.Completed, n, replication)
	}
	per := float64(len(results))
	return float64(t1.Sub(t0)) / per, float64(t2.Sub(t1)) / per, float64(ms.Mallocs-mallocs0) / per, nil
}

var probeProfile = instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100}

// probeControl signs and opens the wakeup a join verifies, and
// round-trips the heartbeat codec.
func probeControl(e env, m map[string]float64) error {
	rng := rand.New(rand.NewSource(e.seed))
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return err
	}
	w := &control.Wakeup{InstanceID: 1, Seq: 1, Probability: 1, ImageFile: "image.1",
		HeartbeatPeriod: 10 * time.Second}
	rng.Read(w.ImageDigest[:])
	const n = 200
	var signed []byte
	ns, err := medianNS(e, func() error {
		for i := 0; i < n; i++ {
			w.Seq++
			if signed, err = control.SignWakeup(w, priv); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["control.sign_wakeup_us"] = ns / n / 1e3
	ns, err = medianNS(e, func() error {
		for i := 0; i < n; i++ {
			msgs, err := control.OpenAll(signed, pub)
			if err != nil || len(msgs) != 1 {
				return fmt.Errorf("control probe: OpenAll gave %d messages, %v", len(msgs), err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["control.open_all_us"] = ns / n / 1e3

	hb := &control.Heartbeat{NodeID: 7, State: control.StateBusy, InstanceID: 1, Profile: probeProfile,
		SentAt: time.Unix(1257033600, 0)}
	const codecs = 20000
	ns, err = medianNS(e, func() error {
		for i := 0; i < codecs; i++ {
			hb.TasksDone = uint32(i)
			got, err := control.DecodeHeartbeat(control.EncodeHeartbeat(hb))
			if err != nil || got.TasksDone != hb.TasksDone {
				return fmt.Errorf("control probe: heartbeat round trip: %v", err)
			}
		}
		return nil
	})
	m["control.heartbeat_codec_ns"] = ns / codecs
	return err
}

// probeImage encodes, verifies and chunk-hashes the tcp_stage image.
func probeImage(e env, m map[string]float64) error {
	img := &appimage.Image{Name: "bench", Version: 1, EntryPoint: "w", Payload: make([]byte, stageChunks(e)*stageChunkBytes)}
	rand.New(rand.NewSource(e.seed)).Read(img.Payload)
	var raw []byte
	ns, err := medianNS(e, func() (err error) {
		raw, err = img.Encode()
		return err
	})
	if err != nil {
		return err
	}
	m["appimage.encode_ms"] = ns / 1e6
	digest := appimage.DigestOf(raw)
	ns, err = medianNS(e, func() error {
		_, err := appimage.Verify(raw, digest)
		return err
	})
	if err != nil {
		return err
	}
	m["appimage.verify_mb_per_s"] = mbPerS(len(raw), ns)
	var sink dsmcc.ModuleHash
	ns, err = medianNS(e, func() error {
		for off := 0; off < len(raw); off += stageChunkBytes {
			sink += dsmcc.HashOf(raw[off:min(off+stageChunkBytes, len(raw))])
		}
		return nil
	})
	if sink == 0 {
		return errors.New("image probe: chunk hashes sum to zero")
	}
	m["dsmcc.hash_mb_per_s"] = mbPerS(len(raw), ns)
	return err
}

const probePID = 0x300

// probeCarousel encodes one cycle of the sim_deploy carousel (1 MiB
// image, agent Xlet, control file), receives it, and pushes the same
// sections through the transport-stream mux and demux.
func probeCarousel(e env, m map[string]float64) error {
	rng := rand.New(rand.NewSource(e.seed))
	size := 1 << 20
	if e.quick {
		size = 128 << 10
	}
	files := []dsmcc.File{
		{Name: "image.1", Data: make([]byte, size)},
		{Name: "pna.xlet", Data: make([]byte, 32<<10)},
		{Name: "control", Data: make([]byte, 256)},
	}
	total := 0
	for _, f := range files {
		rng.Read(f.Data)
		total += len(f.Data)
	}
	car, err := dsmcc.NewCarousel(probePID, 0)
	if err != nil {
		return err
	}
	var sections [][]byte
	ns, err := medianNS(e, func() (err error) {
		if err = car.SetFiles(files); err != nil {
			return err
		}
		sections, err = car.EncodeCycle()
		return err
	})
	if err != nil {
		return err
	}
	m["dsmcc.encode_cycle_ms"] = ns / 1e6
	ns, err = medianNS(e, func() error {
		rx := dsmcc.NewReceiver()
		for _, s := range sections {
			rx.HandleSection(s)
		}
		if got, ok := rx.File("image.1"); !ok || len(got) != size {
			return errors.New("carousel probe: receiver did not assemble the image")
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["dsmcc.receive_cycle_ms"] = ns / 1e6

	var ts []byte
	ns, err = medianNS(e, func() (err error) {
		mux := mpegts.NewMux()
		for _, s := range sections {
			if err = mux.EnqueueSection(probePID, s); err != nil {
				return err
			}
		}
		ts, err = mux.DrainBytes()
		return err
	})
	if err != nil {
		return err
	}
	m["mpegts.mux_mb_per_s"] = mbPerS(len(ts), ns)
	ns, err = medianNS(e, func() error {
		got := 0
		demux := mpegts.NewDemux()
		demux.Handle(probePID, func([]byte) { got++ })
		if err := demux.PushBytes(ts); err != nil {
			return err
		}
		if got != len(sections) {
			return fmt.Errorf("mpegts probe: demux gave %d of %d sections", got, len(sections))
		}
		return nil
	})
	m["mpegts.demux_mb_per_s"] = mbPerS(len(ts), ns)
	return err
}

// probeDelta re-airs 2 changed modules of 16 and counts what the delta
// costs on the wire and how often the shared chunk cache answers.
func probeDelta(e env, m map[string]float64) error {
	const modules, moduleBytes, changed = 16, 64 << 10, 2
	rng := rand.New(rand.NewSource(e.seed))
	files := make([]dsmcc.File, modules)
	for i := range files {
		files[i] = dsmcc.File{Name: fmt.Sprintf("m%02d", i), Data: make([]byte, moduleBytes)}
		rng.Read(files[i].Data)
	}
	car, err := dsmcc.NewCarousel(probePID, 0)
	if err != nil {
		return err
	}
	if err := car.SetFiles(files); err != nil {
		return err
	}
	full, err := car.EncodeCycle()
	if err != nil {
		return err
	}
	cache := dsmcc.NewChunkCache(dsmcc.DefaultChunkCacheBytes)
	met := dsmcc.NewCacheMetrics(obs.NewRegistry())
	cache.Instrument(met)
	warm := dsmcc.NewReceiver()
	warm.SetCache(cache)
	for _, s := range full {
		warm.HandleSection(s)
	}
	for i := 0; i < changed; i++ {
		files[i] = dsmcc.File{Name: files[i].Name, Data: make([]byte, moduleBytes)}
		rng.Read(files[i].Data)
	}
	if err := car.SetFiles(files); err != nil {
		return err
	}
	layout, err := car.Layout()
	if err != nil {
		return err
	}
	delta, err := car.EncodeDeltaCycle()
	if err != nil {
		return err
	}
	cold := dsmcc.NewReceiver()
	cold.SetCache(cache)
	for _, s := range delta {
		warm.HandleSection(s)
		cold.HandleSection(s)
	}
	for _, f := range files {
		if got, ok := cold.File(f.Name); !ok || len(got) != len(f.Data) {
			return fmt.Errorf("delta probe: cold receiver did not converge on %s", f.Name)
		}
	}
	m["dsmcc.delta_wire_ratio"] = float64(layout.DeltaWire) / float64(changed*moduleBytes)
	if lookups := met.Hits() + met.Misses(); lookups > 0 {
		m["dsmcc.cache_hit_frac"] = float64(met.Hits()) / float64(lookups)
	}
	return nil
}

// probeJournal appends the records a Controller journals, with the
// store's default fsync, then reopens and loads a directory shaped
// like the one tcp_stage leaves behind: a snapshot carrying the staged
// image plus the appended records.
func probeJournal(e env, m map[string]float64) error {
	dir := filepath.Join(e.dir, "journal-probe")
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	rec := journal.InstanceRecord{ID: 1, Seq: 1, Wakeups: 1, Probability: 1, Target: 1,
		HeartbeatPeriod: 10 * time.Second, ImageFile: "image.1", Image: make([]byte, stageChunks(e)*stageChunkBytes)}
	rand.New(rand.NewSource(e.seed)).Read(rec.Image)
	st := journal.NewState()
	st.NextID, st.Instances[1], st.Order = 2, &rec, []uint64{1}
	if err := store.Compact(st); err != nil {
		store.Close()
		return err
	}
	const appends = 8
	ns, err := medianNS(e, func() error {
		for i := 0; i < appends; i++ {
			rec.Target++
			if err := store.Append(journal.Record{Op: journal.OpResize, Inst: journal.InstanceRecord{ID: 1, Target: rec.Target}}); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m["journal.append_us"] = ns / appends / 1e3
	ns, err = medianNS(e, func() error {
		s, err := journal.Open(dir, journal.Options{})
		if err != nil {
			return err
		}
		defer s.Close()
		got, err := s.Load()
		if err != nil {
			return err
		}
		if r := got.Instances[1]; r == nil || r.Target != rec.Target || len(r.Image) != len(rec.Image) {
			return errors.New("journal probe: loaded state differs from what was written")
		}
		return nil
	})
	m["journal.load_ms"] = ns / 1e6
	return err
}

var simEpoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

// probeSimtime fires timers through the event heap sim_deploy runs on
// and through the timing wheel fleet_ramp runs on.
func probeSimtime(e env, m map[string]float64) error {
	timers, ids := 100_000, 1_000_000
	if e.quick {
		timers, ids = 10_000, 50_000
	}
	rng := rand.New(rand.NewSource(e.seed))
	delays := make([]time.Duration, timers)
	for i := range delays {
		delays[i] = time.Duration(1 + rng.Int63n(int64(time.Hour)))
	}
	ns, err := medianNS(e, func() error {
		sim := simtime.NewSim(simEpoch)
		fired := 0
		for _, d := range delays {
			sim.AfterFunc(d, func() { fired++ })
		}
		sim.Wait()
		if fired != timers {
			return fmt.Errorf("simtime probe: %d of %d timers fired", fired, timers)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["simtime.heap_ns_per_event"] = ns / float64(timers)

	const horizon = 1 << 20 // ticks; about three hours at the fleet's 10 ms tick
	ticks := make([]int64, ids)
	for i := range ticks {
		ticks[i] = 1 + rng.Int63n(horizon)
	}
	ns, err = medianNS(e, func() error {
		wheel := simtime.NewWheel(0)
		for id, t := range ticks {
			wheel.Schedule(t, int32(id))
		}
		fired := 0
		wheel.AdvanceTo(horizon, func(_ int64, batch []int32) { fired += len(batch) })
		if fired != ids {
			return fmt.Errorf("simtime probe: wheel fired %d of %d ids", fired, ids)
		}
		return nil
	})
	m["simtime.wheel_ns_per_event"] = ns / float64(ids)
	return err
}

// probeBus publishes to as many subscribers as sim_deploy has nodes.
func probeBus(e env, m map[string]float64) error {
	const subscribers = 128
	packets := 2000
	if e.quick {
		packets = 200
	}
	ns, err := medianNS(e, func() error {
		sim := simtime.NewSim(simEpoch)
		bus := netsim.NewBus(sim, netsim.BusConfig{RateBps: 1e6})
		delivered := 0
		for i := 0; i < subscribers; i++ {
			bus.Subscribe(func(netsim.Packet) { delivered++ })
		}
		for i := 0; i < packets; i++ {
			bus.Publish("headend", i, 188)
		}
		sim.Wait()
		if delivered != packets*subscribers {
			return fmt.Errorf("bus probe: %d of %d deliveries", delivered, packets*subscribers)
		}
		return nil
	})
	m["netsim.bus_ns_per_delivery"] = ns / float64(packets*subscribers)
	return err
}

// probeController consolidates heartbeats from 128 nodes, the
// sim_deploy population, on a started Controller.
func probeController(e env, m map[string]float64) error {
	const nodes = 128
	beats := 200_000
	if e.quick {
		beats = 20_000
	}
	clk := simtime.NewSim(simEpoch)
	car, err := dsmcc.NewCarousel(probePID, 0)
	if err != nil {
		return err
	}
	bcast, err := dsmcc.NewBroadcaster(clk, car, 1e6)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	_, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return err
	}
	ctrl, err := controller.New(controller.Config{Clock: clk, Broadcaster: bcast,
		Signalling: middleware.NewSignalling(clk, 0), Key: priv, Rng: rng})
	if err != nil {
		return err
	}
	if err := ctrl.Start(); err != nil {
		return err
	}
	defer ctrl.Stop()
	hb := &control.Heartbeat{State: control.StateIdle, Profile: probeProfile, SentAt: simEpoch}
	ns, err := medianNS(e, func() error {
		for i := 0; i < beats; i++ {
			hb.NodeID = uint64(i%nodes) + 1
			if ctrl.HandleHeartbeat(hb) == nil {
				return errors.New("controller probe: heartbeat got no reply")
			}
		}
		return nil
	})
	m["controller.heartbeat_ns"] = ns / float64(beats)
	return err
}

// probeRing resolves the owner shard of as many node ids as fleet_ramp
// has nodes.
func probeRing(e env, m map[string]float64) error {
	ids := 1_000_000
	if e.quick {
		ids = 50_000
	}
	ring, err := federation.NewRing(16, 0)
	if err != nil {
		return err
	}
	base := uint64(e.seed) << 20
	ns, err := medianNS(e, func() error {
		var spread federation.ShardID
		for i := 0; i < ids; i++ {
			spread |= ring.Owner(base + uint64(i))
		}
		if spread == 0 {
			return errors.New("ring probe: every id maps to shard 0")
		}
		return nil
	})
	m["federation.ring_owner_ns"] = ns / float64(ids)
	return err
}
