// Package oddci is the public API of the OddCI reproduction: an
// On-demand Distributed Computing Infrastructure (Costa et al., 2009)
// built over an emulated digital-TV broadcast network.
//
// A System assembles the full OddCI-DTV stack — Provider, Controller
// (carousel + AIT head-end), Backend, and a fleet of simulated set-top
// boxes running PNA Xlets under DTV middleware. Everything runs over a
// virtual clock by default, so a day of protocol activity simulates in
// seconds and deterministically; pass RealTime to run against the wall
// clock instead.
//
// Typical use:
//
//	sys, _ := oddci.New(oddci.Options{Nodes: 64, Seed: 1})
//	job, _ := (&oddci.Generator{Tasks: 1000, MeanSeconds: 5,
//	    InputBytes: 512, OutputBytes: 512, ImageBytes: 1 << 20}).Generate()
//	handle, _ := sys.SubmitJob(job)
//	sys.CreateInstance(oddci.InstanceSpec{
//	    Image:  oddci.WorkerImage(1 << 20),
//	    Target: 64, InitialProbability: 1,
//	})
//	makespan, _ := sys.RunJob(handle)
package oddci

import (
	"errors"
	"io"
	"net/http"
	"time"

	"oddci/internal/analytic"
	"oddci/internal/appimage"
	"oddci/internal/core/backend"
	"oddci/internal/core/controller"
	"oddci/internal/core/dve"
	"oddci/internal/core/instance"
	"oddci/internal/core/provider"
	"oddci/internal/dsmcc"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
	"oddci/internal/stb"
	"oddci/internal/system"
	"oddci/internal/workload"
)

// Re-exported domain types. These are the stable names; the internal
// packages they alias are implementation layout.
type (
	// Image is a deployable application image.
	Image = appimage.Image
	// InstanceSpec describes a requested OddCI instance.
	InstanceSpec = controller.InstanceSpec
	// InstanceStatus is the consolidated instance view.
	InstanceStatus = controller.InstanceStatus
	// Instance is a live handle on a provisioned instance.
	Instance = provider.Instance
	// Requirements filter eligible devices in a wakeup.
	Requirements = instance.Requirements
	// DeviceProfile describes one node's capabilities.
	DeviceProfile = instance.DeviceProfile
	// Job is a bag of independent tasks.
	Job = workload.Job
	// Task is one unit of work.
	Task = workload.Task
	// Generator builds synthetic jobs.
	Generator = workload.Generator
	// JobHandle tracks a submitted job.
	JobHandle = backend.JobHandle
	// Params is the closed-form performance model of §5.
	Params = analytic.Params
	// Env is the sandbox view handed to custom applications.
	Env = dve.Env
	// AppFunc is a custom application behaviour.
	AppFunc = dve.AppFunc
	// PerfModel converts task times across device modes.
	PerfModel = stb.PerfModel
	// STB is one simulated receiver.
	STB = stb.STB
)

// Sentinel errors for instance lookups (match with errors.Is).
var (
	// ErrUnknownInstance reports an instance ID that was never issued.
	ErrUnknownInstance = controller.ErrUnknownInstance
	// ErrInstanceGone reports an instance that was destroyed and, after
	// its reset retransmission window, garbage-collected.
	ErrInstanceGone = controller.ErrInstanceGone
)

// Device classes for Requirements.
const (
	AnyClass     = instance.AnyClass
	ClassSTB     = instance.ClassSTB
	ClassMobile  = instance.ClassMobile
	ClassDesktop = instance.ClassDesktop
	ClassConsole = instance.ClassConsole
)

// WorkerEntryPoint is the entry point of the built-in bag-of-tasks
// worker.
const WorkerEntryPoint = backend.WorkerEntryPoint

// SetTaskPayloadHandler installs the process-wide function the built-in
// worker uses to execute concrete task payloads (tasks whose Payload
// carries real work, e.g. an encoded BLAST work unit). The returned
// bytes travel back to the Backend as the task result.
func SetTaskPayloadHandler(fn func(payload []byte) []byte) {
	backend.RunConcrete = fn
}

// Figure6Defaults returns the paper's Figure 6/7 scenario parameters.
func Figure6Defaults(ratio, nodes float64) Params {
	return analytic.Figure6Defaults(ratio, nodes)
}

// WorkerImage builds an image of the given payload size that runs the
// built-in worker.
func WorkerImage(payloadBytes int) *Image {
	return &Image{
		Name:       "oddci-worker",
		Version:    1,
		EntryPoint: WorkerEntryPoint,
		Payload:    make([]byte, payloadBytes),
	}
}

// Options sizes a deployment. The zero value of every field selects the
// paper's defaults (β = 1 Mbps, δ = 150 kbps, all nodes powered).
type Options struct {
	// Nodes is the number of set-top boxes. Required.
	Nodes int
	// Beta is the spare broadcast capacity (bps).
	Beta float64
	// Delta is the per-node direct-channel capacity (bps).
	Delta float64
	// Seed drives all randomness; runs with equal seeds are
	// reproducible.
	Seed int64
	// RealTime runs against the wall clock instead of the simulated
	// one. Virtual-time runs are the default and are deterministic.
	RealTime bool
	// HeartbeatPeriod is the PNA reporting interval.
	HeartbeatPeriod time.Duration
	// MaintenancePeriod is the Controller's size-control loop interval.
	MaintenancePeriod time.Duration
	// StandbyFraction of nodes idle in standby (faster CPU).
	StandbyFraction float64
	// BlockCacheReceivers selects the optimized carousel receiver
	// strategy instead of the paper's file-granularity one.
	BlockCacheReceivers bool
	// Replication runs every task on this many distinct nodes with
	// majority voting at the Backend — redundancy against faulty
	// devices (default 1).
	Replication int
	// IPMulticast runs the broadcast over the FLUTE-style IP-multicast
	// substrate instead of the DTV DSM-CC carousel (§3.3's alternative
	// enabling technology).
	IPMulticast bool
	// SpanCapacity, if positive, enables end-to-end causal tracing:
	// every sampled wakeup broadcast starts a distributed trace whose
	// spans (join, image-load, dve-start, dispatch, lease-expiry,
	// commit) land in a ring of this many entries, readable via
	// RenderTraces / RenderTrace / WriteSpansJSONL and served on
	// /trace by MetricsHandler. The same ring holds the lifecycle
	// timeline (instance create/trim/destroy/gc, refresh health, leaves,
	// power transitions) as point events that no sampling draw drops,
	// readable in time order via Timeline / WriteTimelineJSONL and
	// served on /timeline.
	SpanCapacity int
	// SpanSampleRate is the head-based sampling rate in [0,1]; 0 means
	// sample every trace, negative disables sampling entirely (error
	// and retry paths still leave span evidence). Requires
	// SpanCapacity.
	SpanSampleRate float64
	// Metrics enables the telemetry registry: every component reports
	// counters, gauges and latency histograms, readable via Metric,
	// MetricsJSON, MetricsText, and servable over HTTP with
	// MetricsHandler.
	Metrics bool
	// StateDir, if set, makes the control plane durable: the Controller
	// journals instance lifecycle mutations there and CrashController /
	// RestartController exercise a hard stop plus journal recovery
	// while the carousel and devices keep running.
	StateDir string
}

// System is an assembled OddCI-DTV deployment.
type System struct {
	sys   *system.System
	clk   simtime.Clock
	sim   *simtime.Sim // nil in real-time mode
	obs   *obs.Registry
	spans *span.Collector
}

// New assembles and starts a deployment.
func New(opts Options) (*System, error) {
	var clk simtime.Clock
	var sim *simtime.Sim
	if opts.RealTime {
		clk = simtime.NewReal()
	} else {
		sim = simtime.NewSim(time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC))
		clk = sim
	}
	strategy := dsmcc.FileGranularity
	if opts.BlockCacheReceivers {
		strategy = dsmcc.BlockCache
	}
	transport := system.TransportDTV
	if opts.IPMulticast {
		transport = system.TransportIPMulticast
	}
	var reg *obs.Registry
	if opts.Metrics {
		reg = obs.NewRegistry()
	}
	var spans *span.Collector
	if opts.SpanCapacity > 0 {
		spans = span.NewCollector(span.Config{
			Clock:      clk,
			Capacity:   opts.SpanCapacity,
			SampleRate: opts.SpanSampleRate,
			Seed:       opts.Seed + 1,
		})
	}
	sys, err := system.New(system.Config{
		Clock:             clk,
		Nodes:             opts.Nodes,
		Beta:              opts.Beta,
		Delta:             opts.Delta,
		Seed:              opts.Seed,
		HeartbeatPeriod:   opts.HeartbeatPeriod,
		MaintenancePeriod: opts.MaintenancePeriod,
		StandbyFraction:   opts.StandbyFraction,
		Strategy:          strategy,
		Replication:       opts.Replication,
		Transport:         transport,
		Obs:               reg,
		Spans:             spans,
		StateDir:          opts.StateDir,
	})
	if err != nil {
		return nil, err
	}
	if err := sys.Start(); err != nil {
		return nil, err
	}
	return &System{sys: sys, clk: clk, sim: sim, obs: reg, spans: spans}, nil
}

// Timeline renders the retained spans and lifecycle events in time
// order (the last limit entries; 0 = all). Requires
// Options.SpanCapacity.
func (s *System) Timeline(limit int) string {
	if s.spans == nil {
		return "(span tracing disabled; set Options.SpanCapacity)\n"
	}
	return s.spans.RenderTimeline(limit)
}

// WriteTimelineJSONL streams the same entries as one JSON object per
// line, oldest first. Requires Options.SpanCapacity.
func (s *System) WriteTimelineJSONL(w io.Writer) error {
	if s.spans == nil {
		return errors.New("oddci: span tracing disabled; set Options.SpanCapacity")
	}
	return s.spans.WriteTimelineJSONL(w)
}

// Metric returns the current value of a named counter or gauge (and
// whether it exists). Requires Options.Metrics.
func (s *System) Metric(name string) (float64, bool) {
	if s.obs == nil {
		return 0, false
	}
	return s.obs.Value(name)
}

// MetricsJSON renders the full telemetry snapshot as expvar-style JSON.
// Requires Options.Metrics.
func (s *System) MetricsJSON() string {
	if s.obs == nil {
		return "{}\n"
	}
	return s.obs.RenderJSON()
}

// MetricsText renders the full telemetry snapshot in the Prometheus
// text exposition format. Requires Options.Metrics.
func (s *System) MetricsText() string {
	if s.obs == nil {
		return ""
	}
	return s.obs.RenderPrometheus()
}

// RenderTraces renders an index of the most recent limit distributed
// traces (0 = all retained). Requires Options.SpanCapacity.
func (s *System) RenderTraces(limit int) string {
	if s.spans == nil {
		return "(span tracing disabled; set Options.SpanCapacity)\n"
	}
	return s.spans.RenderTraces(limit)
}

// RenderTrace renders one trace's span waterfall by full 32-hex trace
// ID or a unique ≥8-hex prefix. Requires Options.SpanCapacity.
func (s *System) RenderTrace(id string) (string, bool) {
	if s.spans == nil {
		return "", false
	}
	return s.spans.RenderTrace(id)
}

// WriteSpansJSONL streams every retained span as one JSON object per
// line. Requires Options.SpanCapacity.
func (s *System) WriteSpansJSONL(w io.Writer) error {
	if s.spans == nil {
		return errors.New("oddci: span tracing disabled; set Options.SpanCapacity")
	}
	return s.spans.WriteJSONL(w)
}

// Spans exposes the deployment's span collector (nil when
// Options.SpanCapacity is unset) for tests and custom exposition.
func (s *System) Spans() *span.Collector { return s.spans }

// MetricsHandler serves /metrics, /varz, /healthz, /timeline and
// /trace for this deployment, or nil when Options.Metrics is unset.
func (s *System) MetricsHandler() http.Handler {
	if s.obs == nil {
		return nil
	}
	var traces obs.TraceSource
	if s.spans != nil {
		traces = s.spans
	}
	return obs.NewHandler(s.obs, traces)
}

// Now returns the deployment's current (virtual or wall) time.
func (s *System) Now() time.Time { return s.clk.Now() }

// RegisterApp installs a custom application behaviour on every node
// under the given image entry point.
func (s *System) RegisterApp(entryPoint string, fn AppFunc) {
	s.sys.Registry.Register(entryPoint, fn)
}

// SubmitJob enqueues a job at the Backend.
func (s *System) SubmitJob(job *Job) (*JobHandle, error) {
	return s.sys.Backend.Submit(job)
}

// CreateInstance asks the Provider for an OddCI instance.
func (s *System) CreateInstance(spec InstanceSpec) (*Instance, error) {
	return s.sys.Provider.Create(spec)
}

// Population reports the Controller's (heartbeat-derived) view of idle
// and busy nodes.
func (s *System) Population() (idle, busy int) { return s.sys.Provider.Population() }

// LiveBusy reports the oracle count of nodes busy on an instance id —
// ground truth available because the devices are simulated.
func (s *System) LiveBusy(id uint64) int {
	return s.sys.LiveBusy(instance.ID(id))
}

// STBs exposes the simulated devices (churn control, power, modes).
func (s *System) STBs() []*STB { return s.sys.STBs }

// ContentStats reports the head-end broadcast content assembled from
// current Controller state: control-file bytes, carousel file count,
// live instances, and destroyed instances whose reset is still on air.
func (s *System) ContentStats() (controlFileBytes, carouselFiles, live, destroyedOnAir int) {
	return s.sys.ContentStats()
}

// CrashController hard-stops the control plane in place, as a killed
// coordinator process would: loops halt, the journal closes, heartbeats
// go unanswered. The carousel, devices, running DVEs, and Backend stay
// up. Requires Options.StateDir.
func (s *System) CrashController() error { return s.sys.CrashController() }

// RestartController brings the control plane back from Options.StateDir
// by replaying its journal: the recovered Controller re-airs
// the recorded instances and re-adopts surviving members from their
// next heartbeat instead of re-waking them.
func (s *System) RestartController() error { return s.sys.RestartController() }

// After schedules fn at now+d on the deployment's clock.
func (s *System) After(d time.Duration, fn func()) { s.clk.AfterFunc(d, fn) }

// Shutdown powers every node off and stops the head-end.
func (s *System) Shutdown() { s.sys.Shutdown() }

// Wait blocks until the deployment is quiescent (all activity wound
// down after Shutdown).
func (s *System) Wait() { s.clk.Wait() }

// RunJob drives the deployment until the job completes, then shuts it
// down and returns the makespan. It is the one-shot convenience for
// simulated-time runs.
func (s *System) RunJob(h *JobHandle) (time.Duration, error) {
	h.OnComplete(func(time.Time) { s.Shutdown() })
	s.Wait()
	ms, ok := h.Makespan()
	if !ok {
		return 0, errors.New("oddci: job did not complete")
	}
	return ms, nil
}
