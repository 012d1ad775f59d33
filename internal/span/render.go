package span

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Trace is one assembled causal tree: the retained spans of a single
// trace ID, roots first, children under parents.
type Trace struct {
	ID    TraceID
	Spans []Data // sorted: parents before children, then by start time
	Start time.Time
	End   time.Time
	Err   bool
	Retry bool
}

// Traces assembles the retained spans into per-trace trees, most
// recent trace first (by trace start time, then ID for determinism).
func (c *Collector) Traces() []Trace {
	if c == nil {
		return nil
	}
	byTrace := make(map[TraceID][]Data)
	for _, d := range c.Snapshot() {
		byTrace[d.Trace] = append(byTrace[d.Trace], d)
	}
	out := make([]Trace, 0, len(byTrace))
	for id, spans := range byTrace {
		t := Trace{ID: id, Spans: orderTree(spans)}
		t.Start = spans[0].Start
		t.End = spans[0].End
		for _, d := range spans {
			if d.Start.Before(t.Start) {
				t.Start = d.Start
			}
			if d.End.After(t.End) {
				t.End = d.End
			}
			t.Err = t.Err || d.Err
			t.Retry = t.Retry || d.Retry
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.After(out[j].Start)
		}
		return less128(out[j].ID, out[i].ID)
	})
	return out
}

// Lookup assembles the tree for one trace ID (string or hex-prefix
// form), if any of its spans are retained.
func (c *Collector) Lookup(id string) (Trace, bool) {
	for _, t := range c.Traces() {
		s := t.ID.String()
		if s == id || (len(id) >= 8 && strings.HasPrefix(s, id)) {
			return t, true
		}
	}
	return Trace{}, false
}

func less128(a, b TraceID) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// orderTree sorts spans parents-before-children (depth-first), with
// siblings ordered by start time then span ID. Orphans (parent not
// retained — e.g. the parent hop ran on an untraced peer) sort as
// additional roots after the true root.
func orderTree(spans []Data) []Data {
	children := make(map[SpanID][]Data, len(spans))
	have := make(map[SpanID]bool, len(spans))
	for _, d := range spans {
		have[d.ID] = true
	}
	var roots []Data
	for _, d := range spans {
		if d.Parent == 0 || !have[d.Parent] {
			roots = append(roots, d)
		} else {
			children[d.Parent] = append(children[d.Parent], d)
		}
	}
	byStart(roots)
	for _, kids := range children {
		byStart(kids)
	}
	out := make([]Data, 0, len(spans))
	var walk func(d Data)
	walk = func(d Data) {
		out = append(out, d)
		for _, k := range children[d.ID] {
			walk(k)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// byStart sorts entries by start time, then creation order, then ID.
func byStart(s []Data) {
	sort.Slice(s, func(i, j int) bool {
		if !s[i].Start.Equal(s[j].Start) {
			return s[i].Start.Before(s[j].Start)
		}
		if s[i].Seq != s[j].Seq {
			return s[i].Seq < s[j].Seq
		}
		return s[i].ID < s[j].ID
	})
}

// Depths returns each span's tree depth, aligned with t.Spans.
func (t Trace) Depths() []int {
	depth := make(map[SpanID]int, len(t.Spans))
	out := make([]int, len(t.Spans))
	for i, d := range t.Spans {
		if dp, ok := depth[d.Parent]; ok && d.Parent != 0 {
			out[i] = dp + 1
		}
		depth[d.ID] = out[i]
	}
	return out
}

// Connected reports whether the trace forms a single tree: exactly one
// root, every other span's parent retained.
func (t Trace) Connected() bool {
	have := make(map[SpanID]bool, len(t.Spans))
	for _, d := range t.Spans {
		have[d.ID] = true
	}
	roots := 0
	for _, d := range t.Spans {
		if d.Parent == 0 || !have[d.Parent] {
			roots++
		}
	}
	return roots == 1
}

const waterfallWidth = 32

// RenderWaterfall draws the trace as an indented text waterfall: one
// line per span with offset, duration, a proportional bar, and flags.
func (t Trace) RenderWaterfall() string {
	var b strings.Builder
	total := t.End.Sub(t.Start)
	fmt.Fprintf(&b, "trace %s  %s  spans=%d", t.ID, fmtDur(total), len(t.Spans))
	if t.Retry {
		b.WriteString("  RETRY")
	}
	if t.Err {
		b.WriteString("  ERR")
	}
	b.WriteByte('\n')
	depths := t.Depths()
	for i, d := range t.Spans {
		off := d.Start.Sub(t.Start)
		dur := d.End.Sub(d.Start)
		lo, hi := 0, waterfallWidth
		if total > 0 {
			lo = int(int64(off) * waterfallWidth / int64(total))
			hi = lo + int(int64(dur)*waterfallWidth/int64(total))
		}
		if hi <= lo {
			hi = lo + 1
		}
		if hi > waterfallWidth {
			hi = waterfallWidth
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat("=", hi-lo) +
			strings.Repeat(" ", waterfallWidth-hi)
		name := strings.Repeat("  ", depths[i]) + d.Name
		fmt.Fprintf(&b, "  %-28s [%s] +%-9s %-9s", name, bar, fmtDur(off), fmtDur(dur))
		if d.Node != "" {
			fmt.Fprintf(&b, " node=%s", d.Node)
		}
		if d.Detail != "" {
			fmt.Fprintf(&b, " %s", d.Detail)
		}
		if d.Retry {
			b.WriteString(" RETRY")
		}
		if d.Err {
			b.WriteString(" ERR")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", d/time.Microsecond)
	}
}

// RenderTraces renders the most recent limit traces (0 = all) as an
// index: one summary line per trace, suitable for /trace.
func (c *Collector) RenderTraces(limit int) string {
	traces := c.Traces()
	if limit > 0 && len(traces) > limit {
		traces = traces[:limit]
	}
	var b strings.Builder
	started, kept, dropped := c.Stats()
	fmt.Fprintf(&b, "traces=%d spans_kept=%d spans_evicted=%d traces_started=%d\n",
		len(traces), kept, dropped, started)
	for _, t := range traces {
		root := "?"
		if len(t.Spans) > 0 {
			root = t.Spans[0].Name
		}
		fmt.Fprintf(&b, "%s  %s  %-20s spans=%-3d", t.ID, t.Start.UTC().Format(time.RFC3339Nano), root, len(t.Spans))
		fmt.Fprintf(&b, " %s", fmtDur(t.End.Sub(t.Start)))
		if t.Retry {
			b.WriteString(" RETRY")
		}
		if t.Err {
			b.WriteString(" ERR")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderTrace renders the waterfall for one trace ID (full 32-hex form
// or a ≥8-hex prefix); ok is false when no span of it is retained.
func (c *Collector) RenderTrace(id string) (string, bool) {
	t, ok := c.Lookup(id)
	if !ok {
		return "", false
	}
	return t.RenderWaterfall(), true
}

// WriteJSONL streams every retained span as one JSON object per line,
// grouped by trace (most recent first), tree order within a trace.
func (c *Collector) WriteJSONL(w io.Writer) error {
	for _, t := range c.Traces() {
		if err := writeJSONL(w, t.Spans); err != nil {
			return err
		}
	}
	return nil
}

func writeJSONL(w io.Writer, entries []Data) error {
	for _, d := range entries {
		line := fmt.Sprintf(
			`{"trace":%q,"span":"%016x","parent":"%016x","name":%q,"node":%q,"detail":%q,"start":%q,"end":%q,"err":%t,"retry":%t}`+"\n",
			d.Trace.String(), uint64(d.ID), uint64(d.Parent), d.Name, d.Node, d.Detail,
			d.Start.UTC().Format(time.RFC3339Nano), d.End.UTC().Format(time.RFC3339Nano),
			d.Err, d.Retry)
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
	}
	return nil
}

// Timeline returns every retained entry, spans and point events alike,
// in the order things happened: by start time, then creation order.
// /trace groups the ring by cause; this is the same ring read by time.
func (c *Collector) Timeline() []Data {
	out := c.Snapshot()
	byStart(out)
	return out
}

// RenderTimeline renders the last limit timeline entries (zero or
// negative: all), one line each, with offsets from the first one shown,
// suitable for /timeline.
func (c *Collector) RenderTimeline(limit int) string {
	entries := c.Timeline()
	if len(entries) == 0 {
		return "(empty timeline)\n"
	}
	if limit > 0 && len(entries) > limit {
		entries = entries[len(entries)-limit:]
	}
	t0 := entries[0].Start
	var b strings.Builder
	for _, d := range entries {
		fmt.Fprintf(&b, "%9s  %-13s", d.Start.Sub(t0).Truncate(time.Millisecond), d.Name)
		if d.Node != "" {
			fmt.Fprintf(&b, "  node=%s", d.Node)
		}
		if d.Detail != "" {
			fmt.Fprintf(&b, "  %s", d.Detail)
		}
		if dur := d.End.Sub(d.Start); dur > 0 {
			fmt.Fprintf(&b, "  took=%s", fmtDur(dur))
		}
		if d.Retry {
			b.WriteString("  RETRY")
		}
		if d.Err {
			b.WriteString("  ERR")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteTimelineJSONL streams the timeline as one JSON object per line,
// oldest first, in WriteJSONL's line format.
func (c *Collector) WriteTimelineJSONL(w io.Writer) error {
	return writeJSONL(w, c.Timeline())
}
