// Package obs is the live telemetry layer of the control plane: a
// dependency-free registry of atomic counters, gauges, and fixed-bucket
// latency histograms. Components create their metric handles once at
// construction and update them on the hot path with plain atomic
// operations — no locks, no allocation, no map lookups. Snapshot()
// renders the whole registry as expvar-style JSON or Prometheus text
// exposition format, and registered health checks back the /healthz
// endpoint.
//
// Every handle constructor is nil-receiver safe: a component built
// without a registry gets nil handles whose methods are no-ops, so
// instrumentation costs nothing when telemetry is off.
//
// Metric naming scheme: oddci_<component>_<metric>[_total|_seconds],
// snake_case, Prometheus conventions (counters end in _total, latency
// histograms in _seconds).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can go up and down.
type Gauge struct {
	name string
	help string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// LatencyBuckets is the default histogram bound set for control-plane
// latencies: 1 ms to 10 min, roughly ×2.5 per step. Upper bounds in
// seconds; observations above the last bound land in the overflow
// (+Inf) bucket.
var LatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// Histogram is a fixed-bucket distribution. Observe is lock-free and
// allocation-free: a binary search over the (immutable) bounds plus two
// atomic adds.
type Histogram struct {
	name   string
	help   string
	bounds []float64      // immutable after construction
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Int64
	sumμs  atomic.Int64 // sum in microseconds: atomic add without a CAS loop
	// exemplars retains, per bucket, the trace ID of the last sampled
	// observation that landed there — the metrics→traces link. Lazily
	// allocated on the first ObserveWithExemplar, so histograms on
	// untraced deployments pay nothing.
	exemplars atomic.Pointer[[]atomic.Pointer[string]]
}

// Observe records one value (in seconds for latency histograms).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumμs.Add(int64(v * 1e6))
}

// ObserveWithExemplar records v and pins exemplar (a trace ID) to the
// bucket v lands in, so a /varz reader can jump from a latency bucket
// straight to the trace that produced its most recent sample. An empty
// exemplar degrades to a plain Observe.
func (h *Histogram) ObserveWithExemplar(v float64, exemplar string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if exemplar == "" {
		return
	}
	slots := h.exemplars.Load()
	if slots == nil {
		fresh := make([]atomic.Pointer[string], len(h.bounds)+1)
		if !h.exemplars.CompareAndSwap(nil, &fresh) {
			slots = h.exemplars.Load()
		} else {
			slots = &fresh
		}
	}
	i := sort.SearchFloat64s(h.bounds, v)
	(*slots)[i].Store(&exemplar)
}

// Exemplars returns the per-bucket exemplar trace IDs (aligned with the
// snapshot's Counts; empty strings where no sampled observation landed),
// or nil when no exemplar was ever recorded.
func (h *Histogram) Exemplars() []string {
	if h == nil {
		return nil
	}
	slots := h.exemplars.Load()
	if slots == nil {
		return nil
	}
	out := make([]string, len(*slots))
	for i := range *slots {
		if p := (*slots)[i].Load(); p != nil {
			out[i] = *p
		}
	}
	return out
}

// ObserveDuration records d as seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumμs.Load()) / 1e6
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear
// interpolation within the containing bucket, the same estimator as
// Prometheus's histogram_quantile. Observations in the overflow bucket
// clamp to the highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1] // overflow bucket clamps
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // per bucket, last is +Inf
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
	// Exemplars holds, per bucket, the trace ID of the last sampled
	// observation (empty where none; nil when tracing is off).
	Exemplars []string `json:"exemplars,omitempty"`
}

// HealthCheck reports nil when healthy, or an error describing the
// failing condition.
type HealthCheck func() error

// Registry holds named metrics and health checks. The zero value is not
// usable; use NewRegistry. A nil *Registry hands out nil (no-op)
// handles, so wiring telemetry is always optional.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]gaugeFn
	hists    map[string]*Histogram
	checks   map[string]HealthCheck
	order    []string // registration order, for stable rendering
}

type gaugeFn struct {
	help string
	fn   func() float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]gaugeFn),
		hists:    make(map[string]*Histogram),
		checks:   make(map[string]HealthCheck),
	}
}

func (r *Registry) noteNameLocked(name string) {
	r.order = append(r.order, name)
}

// Counter returns the named counter, creating it on first use. Repeated
// calls with the same name share one counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	r.noteNameLocked(name)
	return c
}

// Gauge returns the named settable gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	r.noteNameLocked(name)
	return g
}

// GaugeFunc registers a gauge evaluated lazily at snapshot time — zero
// hot-path cost for values a component can already report (queue depth,
// population counts). Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.gaugeFns[name]; !ok {
		r.noteNameLocked(name)
	}
	r.gaugeFns[name] = gaugeFn{help: help, fn: fn}
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (nil bounds = LatencyBuckets).
// Bounds must be sorted ascending; they are copied.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[name] = h
	r.noteNameLocked(name)
	return h
}

// RegisterHealth installs a named health check backing /healthz.
func (r *Registry) RegisterHealth(name string, check HealthCheck) {
	if r == nil || check == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checks[name] = check
}

// Health evaluates every check and returns the failures by name (empty
// map = healthy). Checks run without the registry lock held.
func (r *Registry) Health() map[string]error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	checks := make(map[string]HealthCheck, len(r.checks))
	for name, fn := range r.checks {
		checks[name] = fn
	}
	r.mu.Unlock()
	out := make(map[string]error)
	for name, fn := range checks {
		if err := fn(); err != nil {
			out[name] = err
		}
	}
	return out
}

// Value looks one metric up by name: counters and gauges report their
// value, histograms their observation count.
func (r *Registry) Value(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	c, cok := r.counters[name]
	g, gok := r.gauges[name]
	gf, gfok := r.gaugeFns[name]
	h, hok := r.hists[name]
	r.mu.Unlock()
	switch {
	case cok:
		return float64(c.Value()), true
	case gok:
		return g.Value(), true
	case gfok:
		return gf.fn(), true
	case hok:
		return float64(h.Count()), true
	}
	return 0, false
}

// Snapshot is a point-in-time copy of every metric.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry. Gauge functions are evaluated without
// the registry lock held, so components may take their own locks.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	fns := make(map[string]func() float64, len(r.gaugeFns))
	for name, gf := range r.gaugeFns {
		fns[name] = gf.fn
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	for _, c := range counters {
		snap.Counters[c.name] = c.Value()
	}
	for _, g := range gauges {
		snap.Gauges[g.name] = g.Value()
	}
	for name, fn := range fns {
		snap.Gauges[name] = fn()
	}
	for _, h := range hists {
		hs := HistogramSnapshot{
			Bounds:    h.bounds,
			Counts:    make([]int64, len(h.counts)),
			Count:     h.Count(),
			Sum:       h.Sum(),
			P50:       h.Quantile(0.50),
			P90:       h.Quantile(0.90),
			P99:       h.Quantile(0.99),
			Exemplars: h.Exemplars(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		snap.Histograms[h.name] = hs
	}
	return snap
}

// RenderJSON renders the snapshot as expvar-style JSON with sorted
// keys (stable output for tests and diffing).
func (s Snapshot) RenderJSON() string {
	var b strings.Builder
	b.WriteString("{\n \"counters\": {")
	writeSorted(&b, sortedKeys(s.Counters), func(b *strings.Builder, k string) {
		fmt.Fprintf(b, "\n  %q: %d", k, s.Counters[k])
	})
	b.WriteString("\n },\n \"gauges\": {")
	writeSorted(&b, sortedKeys(s.Gauges), func(b *strings.Builder, k string) {
		fmt.Fprintf(b, "\n  %q: %s", k, formatJSONFloat(s.Gauges[k]))
	})
	b.WriteString("\n },\n \"histograms\": {")
	writeSorted(&b, sortedKeys(s.Histograms), func(b *strings.Builder, k string) {
		h := s.Histograms[k]
		fmt.Fprintf(b, "\n  %q: {\"count\": %d, \"sum\": %s, \"p50\": %s, \"p90\": %s, \"p99\": %s",
			k, h.Count, formatJSONFloat(h.Sum),
			formatJSONFloat(h.P50), formatJSONFloat(h.P90), formatJSONFloat(h.P99))
		if len(h.Exemplars) > 0 {
			b.WriteString(", \"exemplars\": {")
			first := true
			for i, ex := range h.Exemplars {
				if ex == "" {
					continue
				}
				le := "+Inf"
				if i < len(h.Bounds) {
					le = formatPromFloat(h.Bounds[i])
				}
				if !first {
					b.WriteString(", ")
				}
				first = false
				fmt.Fprintf(b, "%q: %q", le, ex)
			}
			b.WriteByte('}')
		}
		b.WriteByte('}')
	})
	b.WriteString("\n }\n}\n")
	return b.String()
}

// RenderPrometheus renders the snapshot in Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, _bucket/_sum/_count series
// for histograms, cumulative le labels ending in +Inf.
func (s Snapshot) RenderPrometheus(help map[string]string) string {
	var b strings.Builder
	h := func(name string) string {
		if help == nil {
			return ""
		}
		return help[name]
	}
	for _, name := range sortedKeys(s.Counters) {
		writeHeader(&b, name, "counter", h(name))
		fmt.Fprintf(&b, "%s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		writeHeader(&b, name, "gauge", h(name))
		fmt.Fprintf(&b, "%s %s\n", name, formatPromFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		hs := s.Histograms[name]
		writeHeader(&b, name, "histogram", h(name))
		var cum int64
		for i, bound := range hs.Bounds {
			cum += hs.Counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, formatPromFloat(bound), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, hs.Count)
		fmt.Fprintf(&b, "%s_sum %s\n", name, formatPromFloat(hs.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", name, hs.Count)
	}
	return b.String()
}

// RenderPrometheus renders the registry's current state, using each
// metric's registered help text.
func (r *Registry) RenderPrometheus() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	help := make(map[string]string, len(r.order))
	for name, c := range r.counters {
		help[name] = c.help
	}
	for name, g := range r.gauges {
		help[name] = g.help
	}
	for name, gf := range r.gaugeFns {
		help[name] = gf.help
	}
	for name, h := range r.hists {
		help[name] = h.help
	}
	r.mu.Unlock()
	return r.Snapshot().RenderPrometheus(help)
}

// RenderJSON renders the registry's current state as JSON.
func (r *Registry) RenderJSON() string { return r.Snapshot().RenderJSON() }

func writeHeader(b *strings.Builder, name, typ, help string) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeSorted(b *strings.Builder, keys []string, item func(*strings.Builder, string)) {
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		item(b, k)
	}
}

// formatJSONFloat renders a float as valid JSON (no NaN/Inf literals).
func formatJSONFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return formatPromFloat(v)
}

func formatPromFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
