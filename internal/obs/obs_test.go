package obs

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-10) // counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_total", "help"); again != c {
		t.Fatal("same name should return the same counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "help")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "", nil)
	r.GaugeFunc("x", "", func() float64 { return 1 })
	r.RegisterHealth("x", func() error { return errors.New("boom") })
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if _, ok := r.Value("x"); ok {
		t.Fatal("nil registry must report no values")
	}
	if failures := r.Health(); len(failures) != 0 {
		t.Fatal("nil registry must be healthy")
	}
	if r.RenderPrometheus() != "" {
		t.Fatal("nil registry renders empty Prometheus text")
	}
	_ = r.Snapshot()
}

// TestHistogramBucketBoundaries pins the le semantics: a value exactly
// on a bound lands in that bound's bucket, values above the last bound
// land in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["lat"]
	want := []int64{2, 2, 2, 2} // {0.5,1} {1.5,2} {3,4} {5,100}
	for i, n := range want {
		if snap.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, snap.Counts[i], n, snap.Counts)
		}
	}
	if snap.Count != 8 {
		t.Fatalf("count = %d, want 8", snap.Count)
	}
	if math.Abs(snap.Sum-117) > 1e-3 {
		t.Fatalf("sum = %g, want 117", snap.Sum)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 4})
	for i := 0; i < 4; i++ {
		h.Observe(0.5) // bucket (0,1]
	}
	for i := 0; i < 4; i++ {
		h.Observe(1.5) // bucket (1,2]
	}
	h.Observe(10) // overflow
	h.Observe(10)
	// rank(0.5) = 5 falls in the second bucket: 1 + (5-4)/4 × (2-1).
	if got := h.Quantile(0.5); math.Abs(got-1.25) > 1e-9 {
		t.Fatalf("p50 = %g, want 1.25", got)
	}
	// rank(0.99) = 9.9 falls in the overflow bucket, which clamps to
	// the highest finite bound.
	if got := h.Quantile(0.99); got != 4 {
		t.Fatalf("p99 = %g, want 4 (overflow clamp)", got)
	}
	// Quantiles are clipped to [0,1].
	if got := h.Quantile(2); got != 4 {
		t.Fatalf("q>1 = %g, want 4", got)
	}
	if h.Quantile(-1) < 0 {
		t.Fatal("q<0 must not go negative")
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", nil)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", nil)
	h.ObserveDuration(3 * time.Millisecond)
	snap := r.Snapshot().Histograms["lat"]
	if len(snap.Bounds) != len(LatencyBuckets) {
		t.Fatalf("bounds = %d, want the default set (%d)", len(snap.Bounds), len(LatencyBuckets))
	}
	// 3 ms lands in the (2.5ms, 5ms] bucket.
	if snap.Counts[2] != 1 {
		t.Fatalf("counts = %v, want observation in bucket 2", snap.Counts)
	}
}

func TestValueLookup(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "").Add(7)
	r.Gauge("g", "").Set(2.5)
	r.GaugeFunc("gf", "", func() float64 { return 9 })
	h := r.Histogram("h", "", nil)
	h.Observe(1)
	h.Observe(2)
	for _, tc := range []struct {
		name string
		want float64
	}{{"c", 7}, {"g", 2.5}, {"gf", 9}, {"h", 2}} {
		got, ok := r.Value(tc.name)
		if !ok || got != tc.want {
			t.Fatalf("Value(%q) = %g,%v, want %g,true", tc.name, got, ok, tc.want)
		}
	}
	if _, ok := r.Value("missing"); ok {
		t.Fatal("missing metric must report !ok")
	}
}

func TestHealth(t *testing.T) {
	r := NewRegistry()
	r.RegisterHealth("good", func() error { return nil })
	if failures := r.Health(); len(failures) != 0 {
		t.Fatalf("expected healthy, got %v", failures)
	}
	r.RegisterHealth("bad", func() error { return errors.New("stuck") })
	failures := r.Health()
	if len(failures) != 1 || failures["bad"] == nil {
		t.Fatalf("expected one failure named bad, got %v", failures)
	}
}

func TestRenderPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("oddci_test_total", "things counted").Add(3)
	r.Gauge("oddci_test_gauge", "a level").Set(1.5)
	r.GaugeFunc("oddci_test_fn", "computed", func() float64 { return 2 })
	h := r.Histogram("oddci_test_seconds", "a latency", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	out := r.RenderPrometheus()
	for _, want := range []string{
		"# HELP oddci_test_total things counted",
		"# TYPE oddci_test_total counter",
		"oddci_test_total 3",
		"# TYPE oddci_test_gauge gauge",
		"oddci_test_gauge 1.5",
		"oddci_test_fn 2",
		"# TYPE oddci_test_seconds histogram",
		"oddci_test_seconds_bucket{le=\"1\"} 1",
		"oddci_test_seconds_bucket{le=\"2\"} 2",
		"oddci_test_seconds_bucket{le=\"+Inf\"} 3",
		"oddci_test_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Prometheus output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("exposition must end with a newline")
	}
}

func TestRenderJSONIsValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "").Inc()
	r.Gauge("g", "").Set(math.NaN()) // must not emit a NaN literal
	r.Histogram("h", "", nil).Observe(0.01)
	var decoded struct {
		Counters   map[string]int64              `json:"counters"`
		Gauges     map[string]float64            `json:"gauges"`
		Histograms map[string]map[string]float64 `json:"histograms"`
	}
	out := r.RenderJSON()
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("RenderJSON not valid JSON: %v\n%s", err, out)
	}
	if decoded.Counters["c"] != 1 {
		t.Fatalf("counters = %v, want c=1", decoded.Counters)
	}
	if decoded.Histograms["h"]["count"] != 1 {
		t.Fatalf("histograms = %v, want h.count=1", decoded.Histograms)
	}
}

// TestConcurrentRegistry hammers every handle type from parallel
// goroutines while snapshots render concurrently; run under -race this
// is the registry's thread-safety proof.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", nil)
	r.GaugeFunc("fn", "", func() float64 { return float64(c.Value()) })
	r.RegisterHealth("always", func() error { return nil })

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%100) / 100)
				if i%100 == 0 {
					// Late registration races against snapshots too.
					r.Counter("c", "").Inc()
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
				_ = r.RenderPrometheus()
				_ = r.Health()
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()

	wantC := int64(workers * (iters + iters/100))
	if got := c.Value(); got != wantC {
		t.Fatalf("counter = %d, want %d", got, wantC)
	}
	if got := h.Count(); got != int64(workers*iters) {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()

	// Zero observations: the estimator must not divide by the count.
	empty := r.Histogram("edge_empty", "no observations", []float64{1, 2})
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("Quantile on empty histogram = %v, want 0", got)
	}

	// A single observation above the top bucket lands in +Inf; every
	// quantile clamps to the highest finite bound instead of inventing
	// an unbounded estimate.
	over := r.Histogram("edge_over", "one overflow observation", []float64{1, 2})
	over.Observe(100)
	for _, q := range []float64{0, 0.5, 1} {
		if got := over.Quantile(q); got != 2 {
			t.Fatalf("Quantile(%v) with only an overflow sample = %v, want top bound 2", q, got)
		}
	}

	// An observation exactly on a bucket boundary counts into that
	// bound's bucket (SearchFloat64s: first bound ≥ v), and the
	// interpolation of a full bucket reaches the boundary exactly.
	edge := r.Histogram("edge_boundary", "exact boundary observation", []float64{1, 2})
	edge.Observe(1)
	if got := edge.Quantile(1); got != 1 {
		t.Fatalf("Quantile(1) of one boundary observation = %v, want 1", got)
	}

	// Out-of-range q clamps rather than extrapolating.
	if got := edge.Quantile(-3); got != edge.Quantile(0) {
		t.Fatalf("Quantile(-3) = %v, want clamp to Quantile(0) = %v", got, edge.Quantile(0))
	}
	if got := edge.Quantile(7); got != edge.Quantile(1) {
		t.Fatalf("Quantile(7) = %v, want clamp to Quantile(1) = %v", got, edge.Quantile(1))
	}
}

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("exemplar_hist", "exemplar linkage", []float64{1, 2})
	if h.Exemplars() != nil {
		t.Fatal("exemplars non-nil before any ObserveWithExemplar")
	}
	h.ObserveWithExemplar(0.5, "trace-a")
	h.ObserveWithExemplar(0.7, "trace-b") // same bucket: latest wins
	h.ObserveWithExemplar(50, "trace-inf")
	h.ObserveWithExemplar(1.5, "") // empty exemplar degrades to Observe
	ex := h.Exemplars()
	want := []string{"trace-b", "", "trace-inf"}
	if len(ex) != len(want) {
		t.Fatalf("exemplar slots = %d, want %d", len(ex), len(want))
	}
	for i := range want {
		if ex[i] != want[i] {
			t.Fatalf("exemplar[%d] = %q, want %q", i, ex[i], want[i])
		}
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4 (empty exemplar still observes)", h.Count())
	}

	// The /varz snapshot carries the exemplar map on the histogram.
	out := r.RenderJSON()
	for _, frag := range []string{`"exemplars"`, `"trace-b"`, `"trace-inf"`, `"+Inf"`} {
		if !strings.Contains(out, frag) {
			t.Fatalf("RenderJSON missing %s:\n%s", frag, out)
		}
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("RenderJSON with exemplars is not valid JSON: %v\n%s", err, out)
	}
}
