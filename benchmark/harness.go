package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Span names the harness itself records; layer spans are named by the
// workloads after the call they wrap.
const (
	spanOp    = "op"
	spanCheck = "harness.check"
)

// Op kinds. Percentiles are taken over the main kind only; ops_per_s
// counts every kind.
const (
	kindMain   = "main"
	kindUpdate = "update"
)

// runConfig is one invocation: one workload, one seed, one window.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Quick shrinks every workload and probe so the smoke test fits in
	// seconds. Quick numbers mean nothing.
	Quick bool
	// SetupProcs is how many further fresh processes repeat the set-up
	// so that setup_s is a median, not one sample.
	SetupProcs int
	// Start is when the process started: set-up is timed from here.
	Start time.Time
	// OutDir receives the span file and holds the state directories.
	OutDir string
}

// env is what a workload is built from.
type env struct {
	seed   int64
	quick  bool
	traced bool
	rec    *spanRec // nil unless traced
	dir    string   // scratch directory inside the checkout
}

// opCtx ties an op to its span. The zero value is an untraced op.
type opCtx struct {
	rec    *spanRec
	op     int
	parent int
}

func (c opCtx) traced() bool { return c.rec != nil }

func noop() {}

// span opens a child span of the op and returns the call that closes
// it.
func (c opCtx) span(name string) func() {
	if c.rec == nil {
		return noop
	}
	id := c.rec.start(c.parent, c.op, name)
	return func() { c.rec.end(id) }
}

// prepared is a workload after set-up. op runs and checks one
// operation; an error is a failed op, not a failed run.
type prepared interface {
	op(i int, c opCtx) (kind string, err error)
	// cycle is how many consecutive ops make one pass of the workload's
	// op mix. The window is whole cycles and ops_per_s is the median of
	// their rates: cycles the neighbours disturbed do not move it, as
	// they would a mean over the window.
	cycle() int
	// renew runs untimed before every cycle, so that each cycle starts
	// from the same state.
	renew() error
	// layer adds the per-layer metrics only this workload can measure,
	// from its traced ops.
	layer(m map[string]float64, tr *tracedWindow) error
	close()
}

var constructors = map[string]func(env) (prepared, error){
	wTCPTasks:  newTCPTasks,
	wTCPStage:  newTCPStage,
	wSimDeploy: newSimDeploy,
	wFleetRamp: newFleetRamp,
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// opSample is one measured op.
type opSample struct {
	kind   string
	ms     float64 // wall time
	cpuMS  float64 // process CPU time, both ends of a TCP op
	traced bool
}

// window is what a measured loop yields.
type window struct {
	samples  []opSample
	perCycle int       // ops in one pass of the op mix
	cycleS   []float64 // wall seconds of each pass
	failed   int
	firstErr error
	wall     time.Duration
	cpu      time.Duration // user + system
	sys      time.Duration
	mallocs  uint64
}

// tracedWindow is the view of a traced window the per-layer code reads.
type tracedWindow struct {
	spans []spanData
	win   *window
}

// ops returns the durations (ms) of the samples of one kind and
// tracing state.
func (w *window) ops(kind string, traced bool) []float64 {
	var out []float64
	for _, s := range w.samples {
		if s.kind == kind && s.traced == traced {
			out = append(out, s.ms)
		}
	}
	return out
}

// opCPU returns the CPU times (ms) of the samples of one kind and
// tracing state.
func (w *window) opCPU(kind string, traced bool) []float64 {
	var out []float64
	for _, s := range w.samples {
		if s.kind == kind && s.traced == traced {
			out = append(out, s.cpuMS)
		}
	}
	return out
}

// all returns the durations (ms) of every sample of one tracing state,
// whatever its kind.
func (w *window) all(traced bool) []float64 {
	return append(w.ops(kindMain, traced), w.ops(kindUpdate, traced)...)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// measure runs whole cycles of ops one after another for seconds: a
// further cycle starts only while, going by the cycles so far, it
// would still end inside the window. With a recorder, every second op
// is traced and a cycle is twice as long, so one process yields both
// sides of the tracing-overhead comparison under the same conditions.
func measure(inst prepared, seconds float64, rec *spanRec) (*window, error) {
	w := &window{perCycle: inst.cycle()}
	if rec != nil {
		w.perCycle *= 2
	}
	var ms runtime.MemStats
	cpu0, sys0 := cpuTime()
	start := time.Now()
	for i := 0; len(w.cycleS) == 0 || time.Since(start).Seconds()+sum(w.cycleS)/float64(len(w.cycleS)) <= seconds; {
		if err := inst.renew(); err != nil {
			return nil, fmt.Errorf("renew before op %d: %w", i+1, err)
		}
		runtime.ReadMemStats(&ms)
		mallocs0 := ms.Mallocs
		cycleStart := time.Now()
		for k := 0; k < w.perCycle; k++ {
			i++
			c := opCtx{}
			if rec != nil && i%2 == 0 {
				c = opCtx{rec: rec, op: i}
				c.parent = rec.start(0, i, spanOp)
			}
			t0, opCPU0 := time.Now(), procCPU()
			kind, err := inst.op(i, c)
			d, opCPU := time.Since(t0), procCPU()-opCPU0
			c.rec.end(c.parent)
			if err != nil {
				w.failed++
				if w.firstErr == nil {
					w.firstErr = fmt.Errorf("op %d: %w", i, err)
				}
			}
			w.samples = append(w.samples, opSample{kind: kind, ms: float64(d) / 1e6, cpuMS: float64(opCPU) / 1e6, traced: c.traced()})
		}
		w.cycleS = append(w.cycleS, time.Since(cycleStart).Seconds())
		runtime.ReadMemStats(&ms)
		w.mallocs += ms.Mallocs - mallocs0
	}
	w.wall = time.Since(start)
	cpu1, sys1 := cpuTime()
	w.cpu, w.sys = cpu1-cpu0, sys1-sys0
	return w, nil
}

// runWorkload sets a workload up, measures it and returns the result
// line plus the lines a person reads.
func runWorkload(cfg runConfig) (runResult, []string, error) {
	spec, ok := workloadByName(cfg.Workload)
	if !ok {
		return runResult{}, nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	dir, err := os.MkdirTemp(cfg.OutDir, cfg.Workload+"-")
	if err != nil {
		return runResult{}, nil, err
	}
	defer os.RemoveAll(dir)
	e := env{seed: cfg.Seed, quick: cfg.Quick, traced: cfg.Trace, dir: dir}
	if cfg.Trace {
		e.rec = newSpanRec()
	}
	inst, err := setUp(cfg.Workload, e)
	if err != nil {
		return runResult{}, nil, fmt.Errorf("%s set-up: %w", cfg.Workload, err)
	}
	setups := []float64{time.Since(cfg.Start).Seconds()}

	seconds := cfg.Seconds
	if cfg.Trace {
		seconds /= 2 // the probes get the rest of the budget
	}
	win, err := measure(inst, seconds, e.rec)
	if err != nil {
		inst.close()
		return runResult{}, nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	res := runResult{
		Correct:   win.failed == 0,
		Attempted: len(win.samples),
		Failed:    win.failed,
		Metrics:   map[string]metricValue{},
	}
	notes := []string{fmt.Sprintf("workload %s  seed %d  window %.1f s  %s", cfg.Workload, cfg.Seed, win.wall.Seconds(), envLine())}
	if win.firstErr != nil {
		notes = append(notes, "FAILED CHECK: "+win.firstErr.Error())
	}

	if cfg.Trace {
		more, err := layerMetrics(cfg, e, inst, win, &res)
		return res, append(notes, more...), err
	}
	inst.close()
	for i := 0; i < cfg.SetupProcs; i++ {
		s, err := setupInFreshProcess(cfg)
		if err != nil {
			return res, notes, err
		}
		setups = append(setups, s)
	}
	return res, append(notes, endToEndMetrics(spec, win, setups, &res)...), nil
}

// layerMetrics fills res with every per-layer metric of a traced
// window: the workload's own spans and counts, then the probes. It
// closes the workload and writes the span file.
func layerMetrics(cfg runConfig, e env, inst prepared, win *window, res *runResult) ([]string, error) {
	vals := map[string]float64{}
	spans := e.rec.finish()
	err := inst.layer(vals, &tracedWindow{spans: spans, win: win})
	inst.close()
	if err != nil {
		return nil, fmt.Errorf("%s per-layer metrics: %w", cfg.Workload, err)
	}
	if err := runProbes(vals, e); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	vals["harness.op_p90_ms"] = percentile(win.ops(kindMain, false), 90)
	vals["harness.cpu_ms_per_op"] = median(win.opCPU(kindMain, false))
	vals["harness.uncovered_frac"] = uncoveredFrac(spans)
	untraced, traced := win.all(false), win.all(true)
	if sum(untraced) > 0 && sum(traced) > 0 {
		vals["obs.traced_overhead_frac"] = 1 - (float64(len(traced))/sum(traced))/(float64(len(untraced))/sum(untraced))
	}
	path := filepath.Join(cfg.OutDir, cfg.Workload+".trace.jsonl")
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	notes := []string{fmt.Sprintf("%d spans -> %s", len(spans), path)}
	return append(notes, metricLines(res.Metrics, layerNames())...), nil
}

// endToEndMetrics fills res with every end-to-end metric of an
// untraced window and returns the ungated lines printed beside them.
func endToEndMetrics(spec workloadSpec, win *window, setups []float64, res *runResult) []string {
	ops := float64(len(win.samples))
	main := win.ops(kindMain, false)
	var rates []float64
	for _, s := range win.cycleS {
		rates = append(rates, float64(win.perCycle)/s)
	}
	vals := map[string]float64{
		"setup_s":       median(setups),
		"ops_per_s":     median(rates),
		"op_p50_ms":     median(main),
		"allocs_per_op": float64(win.mallocs) / ops,
		"peak_rss_mb":   float64(statusBytes("VmHWM")) / (1 << 20),
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	notes := append(metricLines(res.Metrics, e2eNames()),
		fmt.Sprintf("  %-28s %14.6g  ratio  (%d failed of %d attempted)", "fail_frac", float64(win.failed)/ops, win.failed, len(win.samples)),
		fmt.Sprintf("  samples: %d ops, %d of the timed kind, in %d cycles of %d; set-up samples %v s", len(win.samples), len(main), len(win.cycleS), win.perCycle, setups),
		fmt.Sprintf("  ops_per_s over this run's cycles: (q3-q1)/median %.1f%%; over the whole window %.6g ops/s; %.6g %s/s",
			100*quartileSpread(rates), ops/win.wall.Seconds(), vals["ops_per_s"]*spec.WorkPerOp, spec.WorkUnit),
		fmt.Sprintf("  CPU, not gated: median %.6g ms/op of the timed kind, %.6g ms/op over the whole window; %.0f%% of it system time, %.2f cores busy",
			median(win.opCPU(kindMain, false)), float64(win.cpu)/1e6/ops,
			100*float64(win.sys)/float64(win.cpu), float64(win.cpu)/float64(win.wall)))
	if p, v, ok := highestTail(main); ok {
		notes = append(notes, fmt.Sprintf("  highest percentile with >=10 samples beyond it: p%g = %.4g ms", p, v))
	} else {
		notes = append(notes, fmt.Sprintf("  p90 = %.4g ms, with fewer than 10 samples beyond it: indicative only", percentile(main, 90)))
	}
	if u := win.ops(kindUpdate, false); len(u) > 0 {
		notes = append(notes, fmt.Sprintf("  update ops: %d, p50 %.4g ms", len(u), median(u)))
	}
	return notes
}

// setUp builds the workload and runs its warm-up op, which must pass
// its checks like any other.
func setUp(name string, e env) (prepared, error) {
	inst, err := constructors[name](e)
	if err != nil {
		return nil, err
	}
	c := opCtx{}
	if e.rec != nil {
		c = opCtx{rec: e.rec, parent: e.rec.start(0, 0, "setup.warmup")}
	}
	_, err = inst.op(0, c)
	c.rec.end(c.parent)
	if err != nil {
		inst.close()
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return inst, nil
}

// setupInFreshProcess re-executes this program to set the workload up
// once more and returns the seconds that took, process start to first
// timed op. A second set-up in this process would find the heap grown
// and the code paged in, which is not what a user pays.
func setupInFreshProcess(cfg runConfig) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{"-setup-only", "-workload", cfg.Workload, "-seed", strconv.FormatInt(cfg.Seed, 10)}
	if cfg.Quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// setupOnlyRun is the child side of setupInFreshProcess.
func setupOnlyRun(cfg runConfig) (float64, error) {
	dir, err := os.MkdirTemp(cfg.OutDir, cfg.Workload+"-setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	inst, err := setUp(cfg.Workload, env{seed: cfg.Seed, quick: cfg.Quick, dir: dir})
	if err != nil {
		return 0, err
	}
	s := time.Since(cfg.Start).Seconds()
	inst.close()
	return s, nil
}

func e2eNames() []string {
	var out []string
	for _, m := range endToEnd {
		out = append(out, m.Name)
	}
	return out
}

func layerNames() []string {
	var out []string
	for _, m := range perLayer {
		out = append(out, m.Name)
	}
	return out
}

func metricLines(ms map[string]metricValue, order []string) []string {
	var out []string
	for _, name := range order {
		out = append(out, fmt.Sprintf("  %-28s %14.6g  %s", name, ms[name].Value, ms[name].Unit))
	}
	return out
}

func envLine() string {
	return fmt.Sprintf("loopback only, in-process peers, nproc=%d GOMAXPROCS=%d %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// procCPU is the process's CPU time so far by the scheduler's own
// nanosecond account; getrusage is only tick-accurate on some kernels,
// too coarse for one op.
func procCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// cpuTime is the process's CPU time so far by getrusage, which alone
// splits it: user plus system, and the system part alone.
func cpuTime() (total, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), time.Duration(ru.Stime.Nano())
}

// statusBytes reads one kB field of /proc/self/status: VmHWM is the
// resident high-water mark, VmRSS what is resident now.
func statusBytes(field string) int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb << 10
			}
		}
	}
	return 0
}
