package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestHandlerMetricsAndVarz(t *testing.T) {
	r := NewRegistry()
	r.Counter("oddci_demo_total", "a demo counter").Add(2)
	srv := httptest.NewServer(NewHandler(r, nil))
	defer srv.Close()

	code, body, hdr := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q lacks exposition version", ct)
	}
	if !strings.Contains(body, "oddci_demo_total 2") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	code, body, _ = get(t, srv, "/varz")
	if code != http.StatusOK {
		t.Fatalf("/varz = %d, want 200", code)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(body), &decoded); err != nil {
		t.Fatalf("/varz not valid JSON: %v\n%s", err, body)
	}
}

func TestHandlerHealthz(t *testing.T) {
	r := NewRegistry()
	healthy := true
	r.RegisterHealth("toggle", func() error {
		if healthy {
			return nil
		}
		return errors.New("broken")
	})
	srv := httptest.NewServer(NewHandler(r, nil))
	defer srv.Close()

	code, body, _ := get(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	healthy = false
	code, body, _ = get(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d, want 503 when a check fails", code)
	}
	if !strings.Contains(body, "toggle: broken") {
		t.Fatalf("/healthz body %q, want failing check line", body)
	}
}

func TestHandlerTimeline(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(NewHandler(r, nil))
	code, _, _ := get(t, srv, "/timeline")
	srv.Close()
	if code != http.StatusNotFound {
		t.Fatalf("/timeline without source = %d, want 404", code)
	}

	srv = httptest.NewServer(NewHandler(r, fakeTraces{}))
	defer srv.Close()
	code, body, _ := get(t, srv, "/timeline")
	if code != http.StatusOK || body != "timeline limit=100\n" {
		t.Fatalf("/timeline = %d %q, want default limit 100", code, body)
	}
	code, body, _ = get(t, srv, "/timeline?limit=7")
	if code != http.StatusOK || body != "timeline limit=7\n" {
		t.Fatalf("/timeline?limit=7 = %d %q", code, body)
	}
	code, _, _ = get(t, srv, "/timeline?limit=x")
	if code != http.StatusBadRequest {
		t.Fatalf("/timeline?limit=x = %d, want 400", code)
	}
}

func TestHandlerTimelineJSONL(t *testing.T) {
	r := NewRegistry()

	// Unwired, the JSONL form is a 404 like the text form.
	srv := httptest.NewServer(NewHandler(r, nil))
	code, _, _ := get(t, srv, "/timeline?format=jsonl")
	srv.Close()
	if code != http.StatusNotFound {
		t.Fatalf("/timeline?format=jsonl without source = %d, want 404", code)
	}

	srv = httptest.NewServer(NewHandler(r, fakeTraces{}))
	defer srv.Close()
	code, body, hdr := get(t, srv, "/timeline?format=jsonl")
	if code != http.StatusOK {
		t.Fatalf("/timeline?format=jsonl = %d, want 200", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("/timeline?format=jsonl content type = %q, want application/x-ndjson", ct)
	}
	if !strings.Contains(body, `"name":"wakeup"`) {
		t.Fatalf("/timeline?format=jsonl body = %q", body)
	}
}

// fakeTraces is a minimal TraceSource double.
type fakeTraces struct{}

func (fakeTraces) RenderTraces(limit int) string { return fmt.Sprintf("traces limit=%d\n", limit) }
func (fakeTraces) RenderTrace(id string) (string, bool) {
	if id == "deadbeef" {
		return "trace deadbeef\n", true
	}
	return "", false
}
func (fakeTraces) WriteJSONL(w io.Writer) error {
	_, err := io.WriteString(w, `{"trace":"deadbeef"}`+"\n")
	return err
}
func (fakeTraces) RenderTimeline(limit int) string {
	return fmt.Sprintf("timeline limit=%d\n", limit)
}
func (fakeTraces) WriteTimelineJSONL(w io.Writer) error {
	_, err := io.WriteString(w, `{"name":"wakeup"}`+"\n")
	return err
}

func TestHandlerTrace(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(NewHandler(r, nil))
	code, _, _ := get(t, srv, "/trace")
	srv.Close()
	if code != http.StatusNotFound {
		t.Fatalf("/trace without source = %d, want 404", code)
	}

	srv = httptest.NewServer(NewHandler(r, fakeTraces{}))
	defer srv.Close()
	code, body, _ := get(t, srv, "/trace")
	if code != http.StatusOK || body != "traces limit=50\n" {
		t.Fatalf("/trace = %d %q, want default limit 50", code, body)
	}
	code, body, _ = get(t, srv, "/trace?limit=3")
	if code != http.StatusOK || body != "traces limit=3\n" {
		t.Fatalf("/trace?limit=3 = %d %q", code, body)
	}
	code, body, hdr := get(t, srv, "/trace?format=jsonl")
	if code != http.StatusOK || !strings.Contains(body, `"trace":"deadbeef"`) {
		t.Fatalf("/trace?format=jsonl = %d %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("/trace?format=jsonl content type = %q", ct)
	}
	code, body, _ = get(t, srv, "/trace/deadbeef")
	if code != http.StatusOK || body != "trace deadbeef\n" {
		t.Fatalf("/trace/deadbeef = %d %q", code, body)
	}
	code, _, _ = get(t, srv, "/trace/unknown99")
	if code != http.StatusNotFound {
		t.Fatalf("/trace/unknown99 = %d, want 404", code)
	}
}
