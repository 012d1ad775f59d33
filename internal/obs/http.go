package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// TraceSource is what /trace and /timeline need from a span collector:
// two renders of one ring, by cause and by time. The span package's
// Collector satisfies it, kept as an interface so obs stays
// dependency-free.
type TraceSource interface {
	// RenderTraces renders an index of the most recent limit traces.
	RenderTraces(limit int) string
	// RenderTrace renders one trace's waterfall by ID (or ≥8-hex
	// prefix); ok is false when the trace is not retained.
	RenderTrace(id string) (string, bool)
	// WriteJSONL streams every retained span, one JSON object per line.
	WriteJSONL(w io.Writer) error
	// RenderTimeline renders the last limit retained entries, spans and
	// point events alike, in time order.
	RenderTimeline(limit int) string
	// WriteTimelineJSONL streams the same entries, oldest first.
	WriteTimelineJSONL(w io.Writer) error
}

// jsonlContentType labels newline-delimited JSON exports.
const jsonlContentType = "application/x-ndjson; charset=utf-8"

// NewHandler builds the coordinator's observability mux:
//
//	/metrics     Prometheus text exposition format
//	/varz        expvar-style JSON snapshot (histogram buckets carry
//	             trace-ID exemplars when tracing is on)
//	/healthz     200 "ok" when every registered check passes, else 503
//	             with one "name: error" line per failing check
//	/timeline    recent spans and lifecycle events in time order
//	             (?limit=N, default 100; ?format=jsonl streams them as
//	             NDJSON), if a trace source is wired (404 otherwise)
//	/trace       recent distributed traces, one summary line each
//	             (?limit=N, default 50; ?format=jsonl exports every
//	             retained span), if a trace source is wired
//	/trace/{id}  one trace's span waterfall, by full 32-hex trace ID
//	             or a unique ≥8-hex prefix
//
// The returned mux is open for extension (the coordinator CLI mounts
// net/http/pprof on it behind a flag).
func NewHandler(reg *Registry, traces TraceSource) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, reg.RenderPrometheus())
	})
	mux.HandleFunc("/varz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprint(w, reg.RenderJSON())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		failures := reg.Health()
		if len(failures) == 0 {
			fmt.Fprintln(w, "ok")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		names := make([]string, 0, len(failures))
		for name := range failures {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%s: %v\n", name, failures[name])
		}
	})
	mux.HandleFunc("/timeline", func(w http.ResponseWriter, req *http.Request) {
		if traces == nil {
			http.NotFound(w, req)
			return
		}
		if req.URL.Query().Get("format") == "jsonl" {
			w.Header().Set("Content-Type", jsonlContentType)
			traces.WriteTimelineJSONL(w)
			return
		}
		limit, ok := parseLimit(w, req, 100)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, traces.RenderTimeline(limit))
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		if traces == nil {
			http.NotFound(w, req)
			return
		}
		if req.URL.Query().Get("format") == "jsonl" {
			w.Header().Set("Content-Type", jsonlContentType)
			traces.WriteJSONL(w)
			return
		}
		limit, ok := parseLimit(w, req, 50)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, traces.RenderTraces(limit))
	})
	mux.HandleFunc("/trace/{id}", func(w http.ResponseWriter, req *http.Request) {
		if traces == nil {
			http.NotFound(w, req)
			return
		}
		out, ok := traces.RenderTrace(req.PathValue("id"))
		if !ok {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, out)
	})
	return mux
}

func parseLimit(w http.ResponseWriter, req *http.Request, def int) (int, bool) {
	raw := req.URL.Query().Get("limit")
	if raw == "" {
		return def, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		http.Error(w, "bad limit", http.StatusBadRequest)
		return 0, false
	}
	return n, true
}
