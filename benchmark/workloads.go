package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"oddci"
	"oddci/internal/appimage"
	"oddci/internal/core/backend"
	"oddci/internal/fleet"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
	"oddci/internal/transport"
	"oddci/internal/workload"
)

// sessions is how many node agents run side by side inside one TCP op:
// as many as this box has cores, never more.
const sessions = 2

// Node agents divide every protocol delay by timeScale, so the idle
// poll is 1 ms and the heartbeat period 10 ms. Tasks last taskSeconds
// on the reference receiver, which divided by timeScale rounds to a
// zero sleep: the node side costs only its protocol work.
const (
	timeScale   = 1000
	taskSeconds = 1e-7
)

// payloadJob builds a job whose tasks each carry payloadBytes of
// seeded input on the wire.
func payloadJob(rng *rand.Rand, name string, tasks, payloadBytes int) *workload.Job {
	job := &workload.Job{Name: name, Tasks: make([]workload.Task, tasks)}
	for i := range job.Tasks {
		p := make([]byte, payloadBytes)
		rng.Read(p)
		job.Tasks[i] = workload.Task{ID: i, InputBytes: payloadBytes, OutputBytes: payloadBytes,
			STBSeconds: taskSeconds, Payload: p}
	}
	return job
}

// tcpSide is one long-lived Coordinator with its serve loop. A traced
// run has two, one with Obs and Spans switched on and one without.
type tcpSide struct {
	coord  *transport.Coordinator
	served chan struct{}
	reg    *obs.Registry
	spans  *span.Collector

	// Totals over the ops this side ran inside the window.
	tasks, redispatches int
	// Obs and span counters when the window began (traced side only).
	bytesOut0, framesIn0, spans0 float64
}

func newTCPSide(e env, name string, img *appimage.Image, stateDir string, mode backend.CredentialMode, traced bool) (*tcpSide, error) {
	s := &tcpSide{served: make(chan struct{})}
	cfg := transport.CoordinatorConfig{
		Listen: "127.0.0.1:0", Name: name, Image: img,
		StateDir: stateDir, CredentialMode: mode,
	}
	if traced {
		s.reg = obs.NewRegistry()
		s.spans = span.NewCollector(span.Config{Clock: simtime.NewReal(), Capacity: 1 << 14, Seed: e.seed})
		cfg.Obs, cfg.Spans = s.reg, s.spans
	}
	id := e.rec.start(0, 0, "transport.coordinator_new")
	coord, err := transport.NewCoordinator(cfg)
	e.rec.end(id)
	if err != nil {
		return nil, err
	}
	s.coord = coord
	go func() {
		coord.Serve()
		close(s.served)
	}()
	return s, nil
}

func (s *tcpSide) close() {
	s.coord.Close()
	<-s.served
}

// round submits job and drains it with fresh node sessions, then
// checks that every session joined and every task came back once.
func (s *tcpSide) round(i int, c opCtx, job *workload.Job, seed int64) error {
	end := c.span("backend.submit")
	h, err := s.coord.Submit(job)
	end()
	if err != nil {
		return err
	}
	var (
		reports [sessions]transport.NodeReport
		errs    [sessions]error
		wg      sync.WaitGroup
	)
	for n := 0; n < sessions; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			end := c.span("transport.session")
			reports[n], errs[n] = transport.RunNode(transport.NodeConfig{
				Addr: s.coord.Addr(), NodeID: uint64(n + 1), TimeScale: timeScale,
				PinnedKey: s.coord.PublicKey(), Seed: seed, Spans: s.spans,
			})
			end()
		}(n)
	}
	wg.Wait()
	defer c.span(spanCheck)()
	done := 0
	for n := range reports {
		if errs[n] != nil {
			return fmt.Errorf("session %d: %w", n+1, errs[n])
		}
		if !reports[n].Joined {
			return fmt.Errorf("session %d did not join", n+1)
		}
		done += reports[n].TasksDone
	}
	if _, ok := h.Done(); !ok {
		return errors.New("job not done after every session returned")
	}
	if got := len(h.Results()); done != len(job.Tasks) || got != len(job.Tasks) {
		return fmt.Errorf("%d tasks: sessions report %d done, backend holds %d results", len(job.Tasks), done, got)
	}
	if i > 0 {
		s.tasks += len(job.Tasks)
		s.redispatches += h.Redispatches()
	}
	return nil
}

// counter reads one of the coordinator's existing Obs counters.
func (s *tcpSide) counter(name string) float64 {
	v, _ := s.reg.Value(name)
	return v
}

// counters reads what the traced side has sent, received and recorded
// so far.
func (s *tcpSide) counters() (bytesOut, framesIn, spans float64) {
	_, kept, _ := s.spans.Stats()
	return s.counter("oddci_transport_bytes_out_total"),
		s.counter("oddci_transport_frames_in_task_request_total") +
			s.counter("oddci_transport_frames_in_task_result_total") +
			s.counter("oddci_transport_frames_in_heartbeat_total") +
			s.counter("oddci_transport_frames_in_other_total"),
		float64(kept)
}

// warmTraced gives the traced side the round the warm-up op gave the
// plain side, so neither side's first window op is its first ever,
// then marks where the window's counters start.
func (s *tcpSide) warmTraced(job *workload.Job, seed int64) error {
	if err := s.round(0, opCtx{}, job, seed); err != nil {
		return err
	}
	s.bytesOut0, s.framesIn0, s.spans0 = s.counters()
	return nil
}

// jobTasks is the size of the tcp_tasks job, which the backend probes
// replay.
func jobTasks(e env) int {
	if e.quick {
		return 256
	}
	return 4096
}

// stageChunks is how many 256 KiB chunks the tcp_stage image splits
// into; the image and journal probes use the same image size.
func stageChunks(e env) int {
	if e.quick {
		return 4
	}
	return 32
}

// tcpTasks is the task-plane workload.
type tcpTasks struct {
	e     env
	sides []*tcpSide // [0] plain, [1] traced (traced runs only)
	img   *appimage.Image
	job   *workload.Job
}

// tasksCycle is how many jobs one Coordinator of tcp_tasks serves. A
// Coordinator keeps every finished job, so the heap, the collector's
// pace and the peak RSS would otherwise depend on how many ops the
// window held.
const tasksCycle = 16

func newTCPTasks(e env) (prepared, error) {
	rng := rand.New(rand.NewSource(e.seed))
	img := &appimage.Image{Name: "bench", Version: 1, EntryPoint: "w", Payload: make([]byte, 32<<10)}
	rng.Read(img.Payload)
	w := &tcpTasks{e: e, img: img, job: payloadJob(rng, wTCPTasks, jobTasks(e), 512)}
	for t := 0; t <= b2i(e.traced); t++ {
		s, err := newTCPSide(e, wTCPTasks, img, "", backend.CredEnforce, t == 1)
		if err != nil {
			w.close()
			return nil, err
		}
		w.sides = append(w.sides, s)
	}
	if e.traced {
		if err := w.sides[1].warmTraced(w.job, e.seed); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (w *tcpTasks) op(i int, c opCtx) (string, error) {
	return kindMain, w.sides[b2i(c.traced())].round(i, c, w.job, w.e.seed)
}

func (w *tcpTasks) cycle() int { return tasksCycle }

// renew replaces the Coordinator with a fresh one. A traced run keeps
// its pair: their counters are read as differences over the window.
func (w *tcpTasks) renew() error {
	if w.e.traced {
		return nil
	}
	w.sides[0].close()
	s, err := newTCPSide(w.e, wTCPTasks, w.img, "", backend.CredEnforce, false)
	if err != nil {
		return err
	}
	w.sides[0] = s
	return nil
}

func (w *tcpTasks) close() {
	for _, s := range w.sides {
		s.close()
	}
}

// layer fills the per-layer metrics both TCP workloads share, from
// the traced side's ops.
func (s *tcpSide) layer(m map[string]float64, tr *tracedWindow) error {
	m["transport.coordinator_new_ms"] = median(spanDurationsMS(tr.spans, "transport.coordinator_new"))
	m["transport.session_ms"] = median(slowerSessionMS(tr.spans))
	tracedOps := float64(len(tr.win.all(true)))
	if tracedOps == 0 || s.tasks == 0 {
		return errors.New("the window held no traced op")
	}
	bytesOut, framesIn, spans := s.counters()
	_, _, evicted := s.spans.Stats()
	m["transport.bytes_out_per_op"] = (bytesOut - s.bytesOut0) / tracedOps
	m["transport.frames_in_per_task"] = (framesIn - s.framesIn0) / float64(s.tasks)
	m["backend.submit_us_per_task"] = sum(spanDurationsMS(tr.spans, "backend.submit")) * 1e3 / float64(s.tasks)
	m["backend.redispatch_frac"] = float64(s.redispatches) / float64(s.tasks)
	m["span.spans_per_op"] = (spans - s.spans0) / tracedOps
	m["span.evicted"] = float64(evicted)
	return nil
}

// slowerSessionMS returns, for every traced op, the duration of its
// slower session: the op ends when that one does.
func slowerSessionMS(spans []spanData) []float64 {
	slowest := map[int]float64{}
	for _, s := range spans {
		if s.Name == "transport.session" && s.Op > 0 {
			if d := float64(s.End-s.Start) / 1e6; d > slowest[s.Op] {
				slowest[s.Op] = d
			}
		}
	}
	out := make([]float64, 0, len(slowest))
	for _, d := range slowest {
		out = append(out, d)
	}
	return out
}

func (w *tcpTasks) layer(m map[string]float64, tr *tracedWindow) error {
	s := w.sides[1]
	if err := s.layer(m, tr); err != nil {
		return err
	}
	m["transport.task_us"] = sum(tr.win.ops(kindMain, true)) * 1e3 * sessions / float64(s.tasks)
	return nil
}

// tcpStage is the image-plane workload.
type tcpStage struct {
	e     env
	sides []*stageSide
	job   *workload.Job
	// every is the op period of updates; chunk the staged chunk size.
	every, chunks int
}

// stageSide is a tcpSide plus the image it currently stages.
type stageSide struct {
	*tcpSide
	img *appimage.Image
	rng *rand.Rand
	ops int // window ops run on this side, to place the updates

	joins, updates             int
	joinEncodes, updateEncodes int64
}

const stageChunkBytes = 256 << 10 // the Coordinator's default split size

func newTCPStage(e env) (prepared, error) {
	w := &tcpStage{e: e, every: 8, chunks: stageChunks(e)}
	if e.quick {
		w.every = 2
	}
	rng := rand.New(rand.NewSource(e.seed))
	payload := make([]byte, w.chunks*stageChunkBytes)
	rng.Read(payload)
	w.job = payloadJob(rng, wTCPStage, sessions, 512)
	for t := 0; t <= b2i(e.traced); t++ {
		// Each side stages and rewrites its own copy of the image.
		img := &appimage.Image{Name: "bench", Version: 1, EntryPoint: "w", Payload: append([]byte(nil), payload...)}
		side, err := newTCPSide(e, wTCPStage, img, filepath.Join(e.dir, fmt.Sprintf("state%d", t)), backend.CredOff, t == 1)
		if err != nil {
			w.close()
			return nil, err
		}
		w.sides = append(w.sides, &stageSide{tcpSide: side, img: img, rng: rand.New(rand.NewSource(e.seed + int64(t) + 1))})
	}
	if e.traced {
		if err := w.sides[1].warmTraced(w.job, e.seed); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func (w *tcpStage) op(i int, c opCtx) (string, error) {
	s := w.sides[b2i(c.traced())]
	if i == 0 {
		return kindMain, s.round(i, c, w.job, w.e.seed)
	}
	s.ops++
	encodes0 := s.coord.BroadcastEncodes()
	if s.ops%w.every != 0 {
		err := s.round(i, c, w.job, w.e.seed)
		s.joins++
		s.joinEncodes += s.coord.BroadcastEncodes() - encodes0
		return kindMain, err
	}
	// Rewrite the middle half of two distinct chunks, so exactly two of
	// the staged chunks change whatever the image header's length.
	end := c.span("harness.inputs")
	first := s.rng.Intn(w.chunks)
	for _, k := range []int{first, (first + 1 + s.rng.Intn(w.chunks-1)) % w.chunks} {
		off := k*stageChunkBytes + stageChunkBytes/4
		s.rng.Read(s.img.Payload[off : off+stageChunkBytes/2])
	}
	end()
	end = c.span("transport.update_image")
	err := s.coord.UpdateImage(s.img)
	end()
	s.updates++
	s.updateEncodes += s.coord.BroadcastEncodes() - encodes0
	return kindUpdate, err
}

// One cycle holds every-1 joins and one update.
func (w *tcpStage) cycle() int { return w.every }

func (w *tcpStage) renew() error { return nil }

func (w *tcpStage) close() {
	for _, s := range w.sides {
		s.close()
	}
}

func (w *tcpStage) layer(m map[string]float64, tr *tracedWindow) error {
	s := w.sides[1]
	if err := s.tcpSide.layer(m, tr); err != nil {
		return err
	}
	joinMS := tr.win.ops(kindMain, true)
	staged := float64(len(joinMS)) * sessions * float64(len(s.img.Payload))
	m["transport.join_mb_per_s"] = staged / 1e6 / (sum(joinMS) / 1e3)
	m["transport.encodes_per_join"] = float64(s.joinEncodes) / float64(s.joins)
	if s.updates == 0 {
		return errors.New("the window held no traced update op")
	}
	m["transport.update_image_ms"] = median(spanDurationsMS(tr.spans, "transport.update_image"))
	m["transport.encodes_per_update"] = float64(s.updateEncodes) / float64(s.updates)
	return nil
}

// simDeploy is the netsim-mode workload: one whole virtual-time
// deployment per op.
type simDeploy struct {
	nodes int
	seeds [8]int64
	job   *oddci.Job
	img   *oddci.Image
	// makespans pins the virtual makespan each seed produced: wall speed
	// may change, virtual time may not.
	makespans map[int64]time.Duration

	tasks, redispatches int
	spans, evicted      int64
}

func newSimDeploy(e env) (prepared, error) {
	w := &simDeploy{nodes: 128, makespans: map[int64]time.Duration{}}
	tasks := 1024
	if e.quick {
		w.nodes, tasks = 16, 64
	}
	rng := rand.New(rand.NewSource(e.seed))
	for i := range w.seeds {
		w.seeds[i] = rng.Int63()
	}
	w.img = oddci.WorkerImage(1 << 20)
	rng.Read(w.img.Payload)
	job, err := (&oddci.Generator{Name: wSimDeploy, Tasks: tasks, MeanSeconds: 5,
		InputBytes: 512, OutputBytes: 512, ImageBytes: 1 << 20}).Generate()
	if err != nil {
		return nil, err
	}
	w.job = job
	return w, nil
}

func (w *simDeploy) op(i int, c opCtx) (string, error) {
	seed := w.seeds[i%len(w.seeds)]
	opts := oddci.Options{Nodes: w.nodes, Seed: seed}
	if c.traced() {
		opts.Metrics, opts.SpanCapacity = true, 1<<14
	}
	end := c.span("system.new")
	sys, err := oddci.New(opts)
	end()
	if err != nil {
		return kindMain, err
	}
	end = c.span("backend.submit")
	h, err := sys.SubmitJob(w.job)
	end()
	if err == nil {
		end = c.span("controller.create_instance")
		_, err = sys.CreateInstance(oddci.InstanceSpec{Image: w.img, Target: w.nodes, InitialProbability: 1})
		end()
	}
	if err != nil {
		sys.Shutdown()
		sys.Wait()
		return kindMain, err
	}
	end = c.span("system.run")
	makespan, err := sys.RunJob(h)
	end()
	if err != nil {
		return kindMain, err
	}
	defer c.span(spanCheck)()
	if got := len(h.Results()); got != len(w.job.Tasks) {
		return kindMain, fmt.Errorf("%d of %d results present", got, len(w.job.Tasks))
	}
	if prev, ok := w.makespans[seed]; ok && prev != makespan {
		return kindMain, fmt.Errorf("seed %d: virtual makespan %v, earlier %v", seed, makespan, prev)
	}
	w.makespans[seed] = makespan
	if c.traced() {
		w.tasks += len(w.job.Tasks)
		w.redispatches += h.Redispatches()
		_, kept, dropped := sys.Spans().Stats()
		w.spans += kept
		w.evicted += dropped
	}
	return kindMain, nil
}

// One cycle deploys once on each seed.
func (w *simDeploy) cycle() int { return len(w.seeds) }

func (w *simDeploy) renew() error { return nil }

func (w *simDeploy) close() {}

func (w *simDeploy) layer(m map[string]float64, tr *tracedWindow) error {
	m["system.new_ms"] = median(spanDurationsMS(tr.spans, "system.new"))
	m["controller.create_instance_ms"] = median(spanDurationsMS(tr.spans, "controller.create_instance"))
	m["system.run_ms"] = median(spanDurationsMS(tr.spans, "system.run"))
	ops := float64(len(tr.win.ops(kindMain, true)))
	if ops == 0 || w.tasks == 0 {
		return errors.New("the window held no traced op")
	}
	m["backend.submit_us_per_task"] = sum(spanDurationsMS(tr.spans, "backend.submit")) * 1e3 / float64(w.tasks)
	m["backend.redispatch_frac"] = float64(w.redispatches) / float64(w.tasks)
	m["span.spans_per_op"] = float64(w.spans) / ops
	m["span.evicted"] = float64(w.evicted)
	return nil
}

// fleetRamp is the SoA-fleet workload: one million-node run per op.
type fleetRamp struct {
	e     env
	nodes int

	coldMS       float64
	bytesPerNode float64
	last         *fleet.Result // result of the latest traced op
	nodeEvents   uint64        // over the traced ops
}

func newFleetRamp(e env) (prepared, error) {
	w := &fleetRamp{e: e, nodes: 1_000_000}
	if e.quick {
		w.nodes = 20_000
	}
	return w, nil
}

func (w *fleetRamp) op(i int, c opCtx) (string, error) {
	var rss0 int64
	if i == 0 {
		rss0 = statusBytes("VmRSS")
	}
	t0 := time.Now()
	end := c.span("fleet.run")
	r, err := fleet.Run(fleet.Config{Nodes: w.nodes, Seed: w.e.seed + int64(i)})
	end()
	if err != nil {
		return kindMain, err
	}
	if i == 0 {
		// The warm-up op is the first run of this process: the cold cost
		// a user pays on every invocation, kept apart from the warm ops.
		w.coldMS = float64(time.Since(t0)) / 1e6
		w.bytesPerNode = float64(statusBytes("VmHWM")-rss0) / float64(w.nodes)
	}
	defer c.span(spanCheck)()
	if c.traced() {
		w.last = r
		w.nodeEvents += r.NodeEvents
	}
	return kindMain, r.Validate()
}

// Every op is the same run on another seed, so the cycle only sets how
// many ops a median is taken over.
func (w *fleetRamp) cycle() int { return 4 }

func (w *fleetRamp) renew() error { return nil }

func (w *fleetRamp) close() {}

func (w *fleetRamp) layer(m map[string]float64, tr *tracedWindow) error {
	m["fleet.cold_run_ms"] = w.coldMS
	m["fleet.bytes_per_node"] = w.bytesPerNode
	runMS := spanDurationsMS(tr.spans, "fleet.run")
	if w.last == nil || w.nodeEvents == 0 {
		return errors.New("the window held no traced op")
	}
	m["fleet.ns_per_node_event"] = sum(runMS) * 1e6 / float64(w.nodeEvents)
	m["fleet.sim_events"] = float64(w.last.SimEvents)
	m["fleet.wheel_batch_ratio"] = float64(w.last.NodeEvents) / float64(w.last.WheelBatches)
	for _, p := range w.last.Ramp {
		if p.Tol > 0 {
			if d := math.Abs(p.Sim-p.Model) / p.Tol; d > m["fleet.max_ramp_err_frac"] {
				m["fleet.max_ramp_err_frac"] = d
			}
		}
	}

	// Warm runs at a tenth of the population, for the scaling ratio.
	small := w.nodes / 10
	var smallMS []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := fleet.Run(fleet.Config{Nodes: small, Seed: w.e.seed + int64(i)}); err != nil {
			return err
		}
		smallMS = append(smallMS, float64(time.Since(t0))/1e6)
	}
	m["fleet.scale_ratio"] = (median(runMS) / float64(w.nodes)) / (median(smallMS) / float64(small))

	t0 := time.Now()
	sr, err := fleet.RunSharded(fleet.ShardedConfig{
		Config: fleet.Config{Nodes: w.nodes, Seed: w.e.seed},
		Shards: 16, KillShard: 5, KillAfter: 90 * time.Second, RecoverAfter: 60 * time.Second,
	})
	if err != nil {
		return err
	}
	m["fleet.sharded_run_ms"] = float64(time.Since(t0)) / 1e6
	return sr.Validate()
}
