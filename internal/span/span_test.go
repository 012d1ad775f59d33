package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"oddci/internal/simtime"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

func TestContextStringRoundTrip(t *testing.T) {
	c := Context{Trace: TraceID{0x4bf92f3577b34da6, 0xa3ce929d0e0e4736}, Span: 0x00f067aa0ba902b7, Sampled: true}
	s := c.String()
	if want := "4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"; s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
	got, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got != c {
		t.Fatalf("round trip: got %+v, want %+v", got, c)
	}

	unsampled := Context{Trace: c.Trace, Span: c.Span}
	got, err = Parse(unsampled.String())
	if err != nil || got != unsampled {
		t.Fatalf("unsampled round trip: got %+v err %v", got, err)
	}

	if (Context{}).String() != "" {
		t.Fatalf("zero context should render empty")
	}
	if got, err := Parse(""); err != nil || got.Valid() {
		t.Fatalf("empty string should parse to zero context, got %+v err %v", got, err)
	}

	for _, bad := range []string{
		"short",
		strings.Repeat("x", StringLen),
		strings.Repeat("0", StringLen), // right length, wrong separators
		"4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-ff",        // unknown flags
		"4bf92f3577b34da6a3ce929d0e0e47ZZ-00f067aa0ba902b7-01",        // bad hex
		"4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",        // upper case rejected (canonical form only)
		"4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extras", // trailing
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): want error", bad)
		}
	}
}

func TestContextBinaryRoundTrip(t *testing.T) {
	c := Context{Trace: TraceID{0xdeadbeefcafef00d, 0x0123456789abcdef}, Span: 42, Sampled: true}
	b := c.AppendBinary(nil)
	if len(b) != EncodedLen {
		t.Fatalf("encoded length %d, want %d", len(b), EncodedLen)
	}
	got, err := DecodeBinary(b)
	if err != nil || got != c {
		t.Fatalf("round trip: got %+v err %v", got, err)
	}

	if got, err := DecodeBinary(make([]byte, EncodedLen)); err != nil || got.Valid() {
		t.Fatalf("all-zero payload should decode to zero context, got %+v err %v", got, err)
	}
	if _, err := DecodeBinary(b[:EncodedLen-1]); err == nil {
		t.Fatalf("short payload should error")
	}
	bad := append([]byte(nil), b...)
	bad[24] = 0x80
	if _, err := DecodeBinary(bad); err == nil {
		t.Fatalf("unknown flags should error")
	}
}

func TestSamplingRate(t *testing.T) {
	sim := simtime.NewSim(epoch)
	half := NewCollector(Config{Clock: sim, SampleRate: 0.5, Seed: 7})
	sampled := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if s := half.Root("op", ""); s != nil {
			sampled++
			s.End()
		}
	}
	if sampled < n*35/100 || sampled > n*65/100 {
		t.Fatalf("rate 0.5 sampled %d/%d", sampled, n)
	}

	never := NewCollector(Config{Clock: sim, SampleRate: -1, Seed: 7})
	for i := 0; i < 100; i++ {
		if s := never.Root("op", ""); s != nil {
			t.Fatalf("rate -1 sampled a trace")
		}
	}
	always := NewCollector(Config{Clock: sim, Seed: 7})
	for i := 0; i < 100; i++ {
		if s := always.Root("op", ""); s == nil {
			t.Fatalf("default rate dropped a trace")
		}
	}
}

func TestCollectorEviction(t *testing.T) {
	c := NewCollector(Config{Clock: simtime.NewSim(epoch), Capacity: 32, Seed: 1})
	for i := 0; i < 500; i++ {
		c.Root("op", "n").End()
	}
	snap := c.Snapshot()
	if len(snap) > 32 {
		t.Fatalf("snapshot retained %d spans, capacity 32", len(snap))
	}
	_, kept, dropped := c.Stats()
	if kept != 500 || dropped != 500-int64(len(snap)) {
		t.Fatalf("stats kept=%d dropped=%d snap=%d", kept, dropped, len(snap))
	}
}

func TestTreeAssembly(t *testing.T) {
	c := NewCollector(Config{Clock: simtime.NewSim(epoch), Seed: 3})
	root := c.Root("wakeup", "ctl")
	child := c.Start(root.Context(), "join", "node-1")
	grand := c.Start(child.Context(), "image-load", "node-1")
	grand.SetDetail("bytes=%d", 1024)
	grand.End()
	child.End()
	sib := c.Start(root.Context(), "dispatch", "backend")
	sib.SetRetry()
	sib.End()
	root.End()

	traces := c.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if !tr.Connected() {
		t.Fatalf("trace should be connected")
	}
	var names []string
	for _, d := range tr.Spans {
		names = append(names, d.Name)
	}
	want := []string{"wakeup", "join", "image-load", "dispatch"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("tree order %v, want %v", names, want)
	}
	depths := tr.Depths()
	if depths[0] != 0 || depths[1] != 1 || depths[2] != 2 || depths[3] != 1 {
		t.Fatalf("depths %v", depths)
	}
	if !tr.Retry {
		t.Fatalf("trace should carry the retry flag")
	}

	// An orphan (parent span never retained) breaks connectedness but
	// still renders.
	c.ForceRecord(Data{Trace: tr.ID, ID: 999, Parent: 12345, Name: "orphan"})
	tr2, ok := c.Lookup(tr.ID.String())
	if !ok || tr2.Connected() {
		t.Fatalf("orphaned trace should not be connected (ok=%v)", ok)
	}

	if _, ok := c.Lookup(tr.ID.String()[:12]); !ok {
		t.Fatalf("prefix lookup failed")
	}
	if _, ok := c.Lookup("ffffffffffff"); ok {
		t.Fatalf("lookup of unknown prefix succeeded")
	}
}

// TestFrozenSimByteIdentical is the clock-discipline regression: two
// collectors with equal seeds over equal virtual clocks must render
// byte-identical timelines — any time.Now() leak would diverge them.
func TestFrozenSimByteIdentical(t *testing.T) {
	render := func() (string, string, string) {
		sim := simtime.NewSim(epoch)
		c := NewCollector(Config{Clock: sim, Seed: 11})
		var root, child *Span
		sim.AfterFunc(0, func() { root = c.Root("wakeup", "ctl") })
		sim.AfterFunc(5*time.Millisecond, func() { child = c.Start(root.Context(), "join", "n1") })
		sim.AfterFunc(7*time.Millisecond, func() { c.Event(root.Context(), "trim", "ctl", "node=%d", 2) })
		sim.AfterFunc(9*time.Millisecond, func() { child.End() })
		sim.AfterFunc(12*time.Millisecond, func() { root.End() })
		sim.Wait()
		tr, ok := c.Lookup(root.Context().Trace.String())
		if !ok {
			t.Fatalf("trace not retained")
		}
		return c.RenderTraces(0), tr.RenderWaterfall(), c.RenderTimeline(0)
	}
	idx1, wf1, tl1 := render()
	idx2, wf2, tl2 := render()
	if idx1 != idx2 {
		t.Fatalf("index render diverged:\n%s\nvs\n%s", idx1, idx2)
	}
	if wf1 != wf2 {
		t.Fatalf("waterfall render diverged:\n%s\nvs\n%s", wf1, wf2)
	}
	if tl1 != tl2 {
		t.Fatalf("timeline render diverged:\n%s\nvs\n%s", tl1, tl2)
	}
	if !strings.Contains(wf1, "trim") || !strings.Contains(tl1, "7ms") {
		t.Fatalf("the event is missing from the waterfall or the timeline:\n%s\n%s", wf1, tl1)
	}
	if !strings.Contains(wf1, "join") || !strings.Contains(wf1, "+5.0ms") {
		t.Fatalf("waterfall missing expected content:\n%s", wf1)
	}
}

func TestLinkTable(t *testing.T) {
	c := NewCollector(Config{Clock: simtime.NewSim(epoch), Seed: 5})
	ctx := Context{Trace: TraceID{1, 2}, Span: 3, Sampled: true}
	key := LinkKey(7, 1)
	c.SetLink(key, ctx)
	if got, ok := c.GetLink(key); !ok || got != ctx {
		t.Fatalf("GetLink = %+v, %v", got, ok)
	}
	if _, ok := c.GetLink(LinkKey(7, 2)); ok {
		t.Fatalf("unexpected hit")
	}
	// Overwrite must not duplicate the eviction-order entry.
	c.SetLink(key, Context{Trace: TraceID{9, 9}, Span: 9, Sampled: true})
	for i := 0; i < maxLinks+10; i++ {
		c.SetLink(LinkKey(100+uint64(i), 1), ctx)
	}
	if _, ok := c.GetLink(key); ok {
		t.Fatalf("oldest link should have been evicted")
	}
	if _, ok := c.GetLink(LinkKey(100+maxLinks+9, 1)); !ok {
		t.Fatalf("newest link missing")
	}
}

func TestForceRecordOnUnsampledTrace(t *testing.T) {
	c := NewCollector(Config{Clock: simtime.NewSim(epoch), SampleRate: -1, Seed: 2})
	if s := c.Root("wakeup", ""); s != nil {
		t.Fatalf("sampling disabled but Root returned a span")
	}
	c.ForceRecord(Data{Trace: TraceID{1, 1}, ID: 2, Name: "lease-expiry", Retry: true})
	snap := c.Snapshot()
	if len(snap) != 1 || !snap[0].Retry {
		t.Fatalf("forced span not retained: %+v", snap)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Collector
	s := c.Root("x", "")
	s.SetDetail("d")
	s.SetError()
	s.SetRetry()
	s.End()
	if s.Context().Valid() {
		t.Fatalf("nil span context should be zero")
	}
	if s := c.Start(Context{Trace: TraceID{1, 1}, Span: 1, Sampled: true}, "x", ""); s != nil {
		t.Fatalf("nil collector Start should return nil")
	}
	c.ForceRecord(Data{})
	c.Event(Context{}, "x", "", "")
	if c.Timeline() != nil || c.RenderTimeline(0) != "(empty timeline)\n" || c.WriteTimelineJSONL(&bytes.Buffer{}) != nil {
		t.Fatalf("nil collector timeline should be empty")
	}
	c.SetLink(1, Context{})
	if _, ok := c.GetLink(1); ok {
		t.Fatalf("nil collector GetLink should miss")
	}
	if c.Snapshot() != nil || c.Traces() != nil {
		t.Fatalf("nil collector snapshots should be empty")
	}
	if c.RenderTraces(0) != "" {
		// RenderTraces on nil goes through Traces/Stats; it renders a header.
	}
	// The zero Config falls back to the real clock.
	NewCollector(Config{}).Root("x", "").End()

	// Ending twice records once.
	c2 := NewCollector(Config{Clock: simtime.NewSim(epoch), Seed: 1})
	sp := c2.Root("once", "")
	sp.End()
	sp.End()
	if got := len(c2.Snapshot()); got != 1 {
		t.Fatalf("double End recorded %d spans", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	sim := simtime.NewSim(epoch)
	c := NewCollector(Config{Clock: sim, Seed: 4})
	root := c.Root("wakeup", "ctl")
	child := c.Start(root.Context(), "join", "n1")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for _, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("invalid JSON line %q: %v", ln, err)
		}
		for _, k := range []string{"trace", "span", "parent", "name", "start", "end"} {
			if _, ok := obj[k]; !ok {
				t.Fatalf("line missing %q: %s", k, ln)
			}
		}
	}
}

// TestConcurrentRecordSnapshot is the -race stress on the collector's
// concurrent record/snapshot path.
func TestConcurrentRecordSnapshot(t *testing.T) {
	c := NewCollector(Config{Clock: simtime.NewReal(), Capacity: 256, Seed: 9})
	const writers, iters = 8, 400
	var writeWg, readWg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWg.Add(1)
		go func(w int) {
			defer writeWg.Done()
			for i := 0; i < iters; i++ {
				root := c.Root("op", "n")
				child := c.Start(root.Context(), "child", "n")
				if i%7 == 0 {
					child.SetRetry()
				}
				child.End()
				c.Event(root.Context(), "trim", "n", "")
				root.End()
				c.SetLink(LinkKey(uint64(w), uint64(i)), root.Context())
				c.GetLink(LinkKey(uint64(w), uint64(i/2)))
			}
		}(w)
	}
	readWg.Add(1)
	go func() {
		defer readWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Snapshot()
			c.Traces()
			c.RenderTraces(10)
			c.RenderTimeline(10)
			var sink bytes.Buffer
			c.WriteJSONL(&sink)
		}
	}()
	writeWg.Wait()
	close(stop)
	readWg.Wait()

	_, kept, _ := c.Stats()
	if kept != writers*iters*3 {
		t.Fatalf("kept %d spans, want %d", kept, writers*iters*3)
	}
}

// TestEventRecordAndRender: point events are zero-duration entries that
// record whatever the sampling draw said, hang under a valid parent,
// and read back in time order next to the spans.
func TestEventRecordAndRender(t *testing.T) {
	sim := simtime.NewSim(epoch)
	c := NewCollector(Config{Clock: sim, SampleRate: -1, Seed: 6})
	parent := Context{Trace: TraceID{7, 9}, Span: 3} // a trace that lost the draw
	c.Event(parent, "wakeup", "controller", "instance=%d seq=%d p=%.2f", 1, 1, 0.5)
	sim.AfterFunc(3*time.Second, func() { c.Event(parent, "join", "node-7", "instance=1") })
	sim.AfterFunc(9*time.Second, func() { c.Event(Context{Trace: TraceID{7, 9}}, "leave", "node-7", "") })
	sim.Wait()

	evs := c.Timeline()
	if len(evs) != 3 {
		t.Fatalf("entries = %d, want 3 despite sampling being off", len(evs))
	}
	if evs[0].Name != "wakeup" || evs[2].Name != "leave" {
		t.Fatalf("order wrong: %+v", evs)
	}
	for _, d := range evs[:2] {
		if d.Trace != parent.Trace || d.Parent != parent.Span || d.ID == 0 || !d.Start.Equal(d.End) {
			t.Fatalf("event not a zero-duration child of its parent: %+v", d)
		}
	}
	// A half-formed parent (no span ID) is no parent: an orphan.
	if !evs[2].Trace.IsZero() || evs[2].Parent != 0 {
		t.Fatalf("invalid parent should leave an orphan: %+v", evs[2])
	}
	out := c.RenderTimeline(0)
	for _, want := range []string{"wakeup", "join", "node=node-7", "instance=1 seq=1 p=0.50", "3s", "9s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// A span shows how long it took; flags survive.
	sp := NewCollector(Config{Clock: sim, Seed: 6})
	root := sp.Root("dispatch", "backend")
	root.SetRetry()
	root.SetError()
	sim.AfterFunc(1500*time.Millisecond, root.End)
	sim.Wait()
	if out := sp.RenderTimeline(0); !strings.Contains(out, "took=1.500s") || !strings.Contains(out, "RETRY") || !strings.Contains(out, "ERR") {
		t.Fatalf("span line lacks duration or flags:\n%s", out)
	}
}

// TestEventNilCollectorAllocatesNothing pins what an untraced
// deployment pays at an event site: one branch.
func TestEventNilCollectorAllocatesNothing(t *testing.T) {
	var c *Collector
	parent := Context{Trace: TraceID{1, 2}, Span: 3, Sampled: true}
	if n := testing.AllocsPerRun(100, func() { c.Event(parent, "power-on", "node-1", "") }); n != 0 {
		t.Fatalf("nil collector Event allocated %v times per call", n)
	}
}

// TestTimelineRingDropsOldest: the ring keeps the newest entries, and
// orphans spread over every shard instead of sharing one.
func TestTimelineRingDropsOldest(t *testing.T) {
	sim := simtime.NewSim(epoch)
	c := NewCollector(Config{Clock: sim, Capacity: 64, Seed: 1})
	for i := 0; i < 160; i++ {
		c.Event(Context{}, "tick", "", "i=%d", i)
		sim.RunUntil(sim.Now().Add(time.Second))
	}
	evs := c.Timeline()
	if len(evs) != 64 {
		t.Fatalf("kept %d orphans of capacity 64: they must not share one shard", len(evs))
	}
	if evs[0].Detail != "i=96" || evs[63].Detail != "i=159" {
		t.Fatalf("wrong window: %s .. %s", evs[0].Detail, evs[63].Detail)
	}
	if _, kept, dropped := c.Stats(); kept != 160 || dropped != 96 {
		t.Fatalf("kept=%d dropped=%d, want 160 and 96", kept, dropped)
	}
}

func TestRenderTimelineLimitAndEmpty(t *testing.T) {
	c := NewCollector(Config{Clock: simtime.NewSim(epoch), Seed: 1})
	if !strings.Contains(c.RenderTimeline(0), "empty") {
		t.Fatal("empty render wrong")
	}
	for i := 0; i < 5; i++ {
		c.Event(Context{}, "power-on", "node-1", "")
	}
	if out := c.RenderTimeline(2); strings.Count(out, "power-on") != 2 {
		t.Fatalf("limit ignored:\n%s", out)
	}
}

func TestRenderTimelineNegativeLimit(t *testing.T) {
	c := NewCollector(Config{Clock: simtime.NewSim(epoch), Seed: 1})
	for i := 0; i < 5; i++ {
		c.Event(Context{}, "power-on", "node-1", "")
	}
	if got := strings.Count(c.RenderTimeline(-3), "power-on"); got != 5 {
		t.Fatalf("negative limit rendered %d events, want all 5", got)
	}
}

func TestWriteTimelineJSONL(t *testing.T) {
	sim := simtime.NewSim(epoch)
	c := NewCollector(Config{Clock: sim, Seed: 4})
	root := c.Root("wakeup", "controller")
	root.SetDetail("instance=3 seq=1 p=0.50")
	root.End()
	sim.AfterFunc(time.Second, func() { c.Event(root.Context(), "join", "node-7", "instance=3") })
	sim.Wait()
	var b strings.Builder
	if err := c.WriteTimelineJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), b.String())
	}
	for _, want := range []string{`"name":"wakeup"`, `"node":"controller"`, `"detail":"instance=3 seq=1 p=0.50"`} {
		if !strings.Contains(lines[0], want) {
			t.Fatalf("line 0 missing %s: %s", want, lines[0])
		}
	}
	if !strings.Contains(lines[1], `"node":"node-7"`) || !strings.Contains(lines[1], `"name":"join"`) {
		t.Fatalf("line 1 wrong: %s", lines[1])
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &decoded); err != nil {
		t.Fatalf("line 1 is not valid JSON: %v", err)
	}
	if decoded["start"] != decoded["end"] || decoded["trace"] != root.Context().Trace.String() {
		t.Fatalf("event line should be zero-duration inside the wakeup trace: %s", lines[1])
	}
}

// TestTimelineFrozenSimReplay drives two identical simulated-clock runs
// recording events: they are stamped from the injected clock (never the
// wall clock), so both timelines render byte-identical.
func TestTimelineFrozenSimReplay(t *testing.T) {
	run := func() string {
		sim := simtime.NewSim(epoch)
		c := NewCollector(Config{Clock: sim, Seed: 16})
		c.Event(Context{}, "wakeup", "controller", "instance=1 seq=1 p=0.50")
		sim.AfterFunc(1500*time.Millisecond, func() { c.Event(Context{}, "join", "node-7", "instance=1") })
		sim.AfterFunc(4*time.Second, func() { c.Event(Context{}, "leave", "node-7", "") })
		sim.Wait()
		return c.RenderTimeline(0)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("frozen-sim replays differ:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	for _, want := range []string{"1.5s", "4s", "join", "leave"} {
		if !strings.Contains(a, want) {
			t.Fatalf("render missing %q:\n%s", want, a)
		}
	}
	// Wall-clock stamping would put all three events microseconds apart;
	// the injected sim clock spaces them exactly as scheduled.
	if strings.Count(a, " 0s ") > 1 {
		t.Fatalf("events collapsed onto the wall clock:\n%s", a)
	}
}
