package controller

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"oddci/internal/obs"
)

func getObs(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestHealthzFlipsWhenRefreshStuck drives the Controller into the
// refresh-retry backoff with an injected head-end fault and checks the
// /healthz endpoint flips to 503 at the stuck threshold, then recovers
// to 200 once a retry lands.
func TestHealthzFlipsWhenRefreshStuck(t *testing.T) {
	reg := obs.NewRegistry()
	var plan burst
	r := newFlakyRig(t, plan.next, func(cfg *Config) {
		cfg.Obs = reg
		cfg.RefreshRetryBase = 2 * time.Second
		cfg.RefreshRetryMax = 8 * time.Second
	})
	srv := httptest.NewServer(obs.NewHandler(reg, nil))
	defer srv.Close()

	id, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 2, InitialProbability: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r.advance(5 * time.Second)
	if code, body := getObs(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while healthy = %d %q, want 200", code, body)
	}

	// Destroy with the next three updates failing: the immediate refresh
	// plus the +2s and +6s retries fail, reaching the stuck threshold
	// (RefreshStuckAfter is 3) while the +14s retry is pending.
	plan.n.Store(3)
	if err := r.ctrl.DestroyInstance(id); err != nil {
		t.Fatal(err)
	}
	r.advance(10 * time.Second)
	if pending, attempts := r.ctrl.RefreshPending(); !pending || attempts < 3 {
		t.Fatalf("pending=%v attempts=%d, want stuck refresh", pending, attempts)
	}
	code, body := getObs(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while stuck = %d %q, want 503", code, body)
	}
	if !strings.Contains(body, "carousel-refresh:") {
		t.Fatalf("/healthz body %q, want carousel-refresh failure line", body)
	}

	// The 14s retry succeeds; health recovers.
	r.advance(10 * time.Second)
	if pending, _ := r.ctrl.RefreshPending(); pending {
		t.Fatal("refresh did not recover")
	}
	if code, body := getObs(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after recovery = %d %q, want 200", code, body)
	}

	// The same run's telemetry is visible on /metrics in valid
	// Prometheus exposition format.
	code, body = getObs(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", code)
	}
	for _, want := range []string{
		"# TYPE oddci_controller_refresh_retries_total counter",
		"oddci_controller_refresh_retries_total 3",
		"oddci_controller_refresh_recoveries_total 1",
		"oddci_controller_instances_destroyed_total 1",
		"# TYPE oddci_controller_wakeup_to_join_seconds histogram",
		"oddci_controller_wakeup_to_join_seconds_bucket{le=\"+Inf\"}",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

// TestControllerMetricsCountHeartbeatsAndJoins exercises the hot-path
// instrumentation: heartbeat counters, node gauges, and the
// wakeup-to-first-join histogram.
func TestControllerMetricsCountHeartbeatsAndJoins(t *testing.T) {
	reg := obs.NewRegistry()
	r := newRigWith(t, nil, func(cfg *Config) { cfg.Obs = reg })
	id, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 2, InitialProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.advance(2 * time.Second)
	r.heartbeatBusy(1, id)
	r.heartbeatBusy(2, id)
	r.heartbeatIdle(3)

	if got, _ := reg.Value("oddci_controller_heartbeats_total"); got != 3 {
		t.Fatalf("heartbeats_total = %g, want 3", got)
	}
	if got, _ := reg.Value("oddci_controller_nodes"); got != 3 {
		t.Fatalf("nodes gauge = %g, want 3", got)
	}
	if got, _ := reg.Value("oddci_controller_nodes_idle"); got != 1 {
		t.Fatalf("nodes_idle gauge = %g, want 1", got)
	}
	if got, _ := reg.Value("oddci_controller_instances_live"); got != 1 {
		t.Fatalf("instances_live gauge = %g, want 1", got)
	}
	// Two busy members against target 2: deficit zero.
	if got, _ := reg.Value("oddci_controller_size_deficit"); got != 0 {
		t.Fatalf("size_deficit gauge = %g, want 0", got)
	}
	// The first busy heartbeat after the wakeup records one
	// wakeup-to-join latency sample (2 s on the virtual clock).
	snap := reg.Snapshot().Histograms["oddci_controller_wakeup_to_join_seconds"]
	if snap.Count != 1 {
		t.Fatalf("wakeup_to_join count = %d, want 1", snap.Count)
	}
	if snap.Sum < 1.9 || snap.Sum > 2.1 {
		t.Fatalf("wakeup_to_join sum = %gs, want ~2s", snap.Sum)
	}
	r.ctrl.Stop()
	r.clk.Wait()
}
