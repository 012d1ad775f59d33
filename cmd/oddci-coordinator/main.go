// Command oddci-coordinator runs the server side of a TCP OddCI
// deployment: the Controller head-end (signed wakeup + image push) and
// the Backend (bag-of-tasks scheduler) in one process. Pair it with
// oddci-node agents:
//
//	oddci-coordinator -listen :7070 -tasks 60 -task-seconds 2
//	oddci-node -addr host:7070 -id 1 -timescale 100
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/metrics"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/backend"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
	"oddci/internal/transport"
	"oddci/internal/workload"
)

// traceSource adapts a possibly-nil collector to the obs mux without
// handing it a typed-nil interface (which would defeat the handler's
// nil check).
func traceSource(spans *span.Collector) obs.TraceSource {
	if spans == nil {
		return nil
	}
	return spans
}

// mountPprof wires net/http/pprof and runtime/metrics-backed goroutine
// and heap gauges onto the telemetry mux, so CPU/heap profiles can be
// pulled from a live deployment.
func mountPprof(mux *http.ServeMux, reg *obs.Registry) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	readMetric := func(name string) float64 {
		sample := []metrics.Sample{{Name: name}}
		metrics.Read(sample)
		switch sample[0].Value.Kind() {
		case metrics.KindUint64:
			return float64(sample[0].Value.Uint64())
		case metrics.KindFloat64:
			return sample[0].Value.Float64()
		default:
			return 0
		}
	}
	reg.GaugeFunc("oddci_runtime_goroutines", "Live goroutines (runtime/metrics)", func() float64 {
		return readMetric("/sched/goroutines:goroutines")
	})
	reg.GaugeFunc("oddci_runtime_heap_bytes", "Heap memory occupied by live objects and dead objects not yet swept (runtime/metrics)", func() float64 {
		return readMetric("/memory/classes/heap/objects:bytes")
	})
}

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7070", "TCP listen address")
		name        = flag.String("name", "oddci-demo", "deployment name")
		tasks       = flag.Int("tasks", 60, "number of tasks in the demo job")
		taskSecs    = flag.Float64("task-seconds", 2, "reference-STB seconds per task")
		imageKB     = flag.Int("image-kb", 256, "application image size (KB)")
		prob        = flag.Float64("probability", 1, "wakeup probability gate")
		heartbeat   = flag.Duration("heartbeat", 10*time.Second, "node heartbeat period")
		jobTimeout  = flag.Duration("timeout", 30*time.Minute, "give up after this long")
		metricsAddr = flag.String("metrics", "", "serve /metrics, /varz, /healthz, /timeline and /trace on this address (e.g. 127.0.0.1:9090); empty disables")
		stateDir    = flag.String("state-dir", "", "persist controller state (signing key, wakeup journal) in this directory; a restarted coordinator keeps its identity and resumes past the recorded wakeup sequence")
		spanCap     = flag.Int("trace-spans", 4096, "span ring capacity for end-to-end causal tracing (0 disables tracing)")
		spanRate    = flag.Float64("trace-sample", 1, "head-based trace sampling rate in (0,1]; negative disables sampling (retry/error evidence still recorded)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof and runtime goroutine/heap gauges on the -metrics mux")
		credMode    = flag.String("cred", "off", "result-credential policy: off (assignments carry no credential), warn (verify and count, accept), enforce (reject bad echoes and penalize credibility)")
	)
	flag.Parse()

	var cred backend.CredentialMode
	switch *credMode {
	case "off":
		cred = backend.CredOff
	case "warn":
		cred = backend.CredWarn
	case "enforce":
		cred = backend.CredEnforce
	default:
		log.Fatalf("-cred %q: want off, warn, or enforce", *credMode)
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	var spans *span.Collector
	if *spanCap > 0 {
		spans = span.NewCollector(span.Config{
			Clock:      simtime.NewReal(),
			Capacity:   *spanCap,
			SampleRate: *spanRate,
		})
	}

	img := &appimage.Image{
		Name:       "demo-worker",
		Version:    1,
		EntryPoint: backend.WorkerEntryPoint,
		Payload:    make([]byte, *imageKB<<10),
	}
	coord, err := transport.NewCoordinator(transport.CoordinatorConfig{
		Listen:          *listen,
		Name:            *name,
		Image:           img,
		Probability:     *prob,
		HeartbeatPeriod: *heartbeat,
		Obs:             reg,
		Spans:           spans,
		StateDir:        *stateDir,
		CredentialMode:  cred,
	})
	if err != nil {
		log.Fatal(err)
	}
	if coord.Recovered() {
		fmt.Printf("recovered state from %s: resuming at wakeup seq %d\n", *stateDir, coord.Seq())
	}
	if reg != nil {
		mux := obs.NewHandler(reg, traceSource(spans))
		if *pprofOn {
			mountPprof(mux, reg)
		}
		// Listen before printing, so the address printed is the one
		// bound: -metrics 127.0.0.1:0 picks a free port.
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("-metrics %s: %v", *metricsAddr, err)
		}
		go func() {
			if err := http.Serve(ln, mux); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
		fmt.Printf("telemetry on http://%s/metrics (also /varz, /healthz, /timeline, /trace)\n", ln.Addr())
		if *pprofOn {
			fmt.Printf("profiling on http://%s/debug/pprof/\n", ln.Addr())
		}
	}
	job, err := (&workload.Generator{
		Name: "demo", Tasks: *tasks, MeanSeconds: *taskSecs,
		InputBytes: 512, OutputBytes: 256,
	}).Generate()
	if err != nil {
		log.Fatal(err)
	}
	h, err := coord.Submit(job)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("oddci-coordinator listening on %s\n", coord.Addr())
	fmt.Printf("controller key: %x\n", coord.PublicKey())
	fmt.Printf("job: %d tasks × %.1f reference-STB seconds\n", *tasks, *taskSecs)

	done := make(chan time.Time, 1)
	h.OnComplete(func(at time.Time) { done <- at })
	go coord.Serve()

	select {
	case <-done:
		ms, _ := h.Makespan()
		fmt.Printf("job complete: makespan %.1fs, %d results, %d heartbeats seen, %d nodes\n",
			ms.Seconds(), len(h.Results()), coord.Controller().HeartbeatsSeen(), coord.NodeCount())
		coord.Drain(10 * time.Second) // let nodes poll once more and go home
	case <-time.After(*jobTimeout):
		fmt.Fprintln(os.Stderr, "timed out waiting for the job")
		coord.Close()
		os.Exit(1)
	}
}
