// Package span is a dependency-free distributed-tracing subsystem:
// 128-bit trace IDs, parent/child span IDs, head-based sampling, and a
// lock-cheap sharded ring-buffer collector. A trace started at the
// Controller's wakeup broadcast propagates through the TCP coordinator,
// the PNA/DVE task request, backend dispatch/lease/requeue, and result
// commit as one connected tree.
//
// Context is the unit of propagation: a (trace ID, span ID, flags)
// triple with a compact traceparent-style string form that travels in
// JSON fields, banner metadata, and a fixed 25-byte binary suffix on
// task-plane frames. Peers that never learned the format simply ignore
// it — every entry point accepts the zero Context and degrades to an
// unsampled orphan root.
//
// Timestamps come exclusively from the injected simtime.Clock, so a
// frozen simulated clock renders byte-identical waterfalls across runs.
// ID generation is a seeded counter finalized with SplitMix64 — no
// global randomness, so simulated deployments are reproducible too.
package span

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"oddci/internal/simtime"
)

// TraceID identifies one causal tree. 128 bits, rendered as 32 hex
// digits, high word first.
type TraceID [2]uint64

// SpanID identifies one span within a trace. Rendered as 16 hex digits.
type SpanID uint64

// IsZero reports whether the trace ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t[0] == 0 && t[1] == 0 }

// String renders the 32-hex-digit form.
func (t TraceID) String() string { return fmt.Sprintf("%016x%016x", t[0], t[1]) }

// Context is the propagated trace position: which trace, which span is
// the current parent, and whether the head-based sampling decision at
// the root said "record".
type Context struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether the context carries a real trace.
func (c Context) Valid() bool { return !c.Trace.IsZero() && c.Span != 0 }

const (
	flagSampled = 0x01

	// EncodedLen is the length of the fixed binary encoding: trace
	// high word, trace low word, span ID (all big-endian uint64), and
	// one flags byte.
	EncodedLen = 25

	// StringLen is the length of the canonical string form:
	// 32 hex trace digits + '-' + 16 hex span digits + '-' + 2 hex flags.
	StringLen = 32 + 1 + 16 + 1 + 2
)

// String renders the canonical form, e.g.
// "4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01".
// The zero Context renders as the empty string.
func (c Context) String() string {
	if !c.Valid() {
		return ""
	}
	flags := 0
	if c.Sampled {
		flags = flagSampled
	}
	return fmt.Sprintf("%016x%016x-%016x-%02x", c.Trace[0], c.Trace[1], uint64(c.Span), flags)
}

// AppendBinary appends the fixed 25-byte encoding. The zero Context
// encodes as 25 zero bytes (decoders map that back to the zero value).
func (c Context) AppendBinary(b []byte) []byte {
	var flags byte
	if c.Sampled {
		flags = flagSampled
	}
	b = binary.BigEndian.AppendUint64(b, c.Trace[0])
	b = binary.BigEndian.AppendUint64(b, c.Trace[1])
	b = binary.BigEndian.AppendUint64(b, uint64(c.Span))
	return append(b, flags)
}

// DecodeBinary parses the fixed 25-byte encoding produced by
// AppendBinary. Inputs of any other length are an error; an all-zero
// payload yields the zero Context (not an error), which is how an
// untraced hop reads on the wire.
func DecodeBinary(b []byte) (Context, error) {
	if len(b) != EncodedLen {
		return Context{}, fmt.Errorf("span: context length %d, want %d", len(b), EncodedLen)
	}
	var c Context
	c.Trace[0] = binary.BigEndian.Uint64(b[0:8])
	c.Trace[1] = binary.BigEndian.Uint64(b[8:16])
	c.Span = SpanID(binary.BigEndian.Uint64(b[16:24]))
	if b[24]&^flagSampled != 0 {
		return Context{}, fmt.Errorf("span: unknown context flags %#02x", b[24])
	}
	c.Sampled = b[24]&flagSampled != 0
	if !c.Valid() {
		return Context{}, nil
	}
	return c, nil
}

// Parse parses the canonical string form. The empty string parses to
// the zero Context; anything else malformed is an error.
func Parse(s string) (Context, error) {
	if s == "" {
		return Context{}, nil
	}
	if len(s) != StringLen || s[32] != '-' || s[49] != '-' {
		return Context{}, fmt.Errorf("span: malformed context %q", s)
	}
	var c Context
	var ok bool
	if c.Trace[0], ok = parseHex(s[0:16]); !ok {
		return Context{}, fmt.Errorf("span: malformed context %q", s)
	}
	if c.Trace[1], ok = parseHex(s[16:32]); !ok {
		return Context{}, fmt.Errorf("span: malformed context %q", s)
	}
	var sp uint64
	if sp, ok = parseHex(s[33:49]); !ok {
		return Context{}, fmt.Errorf("span: malformed context %q", s)
	}
	c.Span = SpanID(sp)
	var flags uint64
	if flags, ok = parseHex(s[50:52]); !ok || flags&^flagSampled != 0 {
		return Context{}, fmt.Errorf("span: malformed context %q", s)
	}
	c.Sampled = flags&flagSampled != 0
	if !c.Valid() {
		return Context{}, nil
	}
	return c, nil
}

// MarshalJSON renders the canonical string form (the zero Context as
// ""), so a Context embeds directly in wire messages as a string field
// that old peers parse as an unknown string and ignore.
func (c Context) MarshalJSON() ([]byte, error) {
	return []byte(`"` + c.String() + `"`), nil
}

// UnmarshalJSON parses the canonical string form; a malformed context
// is an error so a corrupted field cannot silently reparent a trace.
func (c *Context) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("span: context must be a JSON string")
	}
	got, err := Parse(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*c = got
	return nil
}

// parseHex parses up to 16 lowercase hex digits, the only form String
// writes.
func parseHex(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// mix64 is the SplitMix64 finalizer: a cheap bijective scrambler that
// turns sequential counters into well-distributed IDs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Data is one finished span as retained by the Collector.
type Data struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID // zero for roots
	Seq    uint64 // collector-local creation order; tie-breaks equal timestamps
	Name   string
	Node   string
	Detail string
	Start  time.Time
	End    time.Time
	Err    bool
	Retry  bool
}

// Span is an in-flight span. The nil *Span is a valid no-op (what an
// unsampled, non-error path costs: one branch per call), so
// instrumentation never needs to be conditional at the call site.
type Span struct {
	c    *Collector
	data Data
	done atomic.Bool
}

// Context returns the propagation context naming this span as parent.
// The nil span returns the zero Context.
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return Context{Trace: s.data.Trace, Span: s.data.ID, Sampled: true}
}

// SetDetail attaches a free-form annotation.
func (s *Span) SetDetail(format string, args ...any) {
	if s == nil {
		return
	}
	if len(args) == 0 {
		s.data.Detail = format
		return
	}
	s.data.Detail = fmt.Sprintf(format, args...)
}

// SetError marks the span failed. Error spans are force-recorded even
// when the enclosing trace lost the sampling draw.
func (s *Span) SetError() {
	if s == nil {
		return
	}
	s.data.Err = true
}

// SetRetry marks the span as a retry path (lease expiry, requeue,
// replica re-launch). Retry spans are force-recorded like errors.
func (s *Span) SetRetry() {
	if s == nil {
		return
	}
	s.data.Retry = true
}

// End stamps the finish time and hands the span to the collector.
// Ending twice is harmless; only the first End records.
func (s *Span) End() {
	if s == nil || s.done.Swap(true) {
		return
	}
	s.data.End = s.c.clk.Now()
	s.c.record(s.data)
}

const collectorShards = 16

type ringShard struct {
	mu   sync.Mutex
	buf  []Data
	head int // index of oldest
	n    int // live count
	seq  uint64
}

// Config sizes a Collector.
type Config struct {
	// Clock stamps span start/end times. Required (simtime.NewReal()
	// for wall-clock deployments).
	Clock simtime.Clock
	// Capacity is the total number of finished spans retained across
	// all shards (default 4096).
	Capacity int
	// SampleRate is the head-based probability, in (0,1], that a new
	// root trace is sampled. Zero means the default (1: sample
	// everything); negative disables sampling entirely. Error and
	// retry evidence still reaches the rings via ForceRecord.
	SampleRate float64
	// Seed drives deterministic ID generation; equal seeds produce
	// equal ID sequences.
	Seed int64
}

// Collector owns sampling decisions, ID generation, the finished-span
// rings, and the wakeup link table. The nil *Collector is fully inert:
// every method is safe and every returned span is the nil no-op.
type Collector struct {
	clk    simtime.Clock
	thresh uint64 // sample iff mix64(trace low) < thresh
	seed   uint64
	ctr    atomic.Uint64

	shards [collectorShards]ringShard

	dropped atomic.Int64
	started atomic.Int64
	kept    atomic.Int64

	links linkTable
}

// NewCollector builds a collector.
func NewCollector(cfg Config) *Collector {
	if cfg.Clock == nil {
		cfg.Clock = simtime.NewReal()
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	rate := cfg.SampleRate
	if rate == 0 {
		rate = 1
	}
	var thresh uint64
	switch {
	case rate >= 1:
		thresh = ^uint64(0)
	case rate <= 0:
		thresh = 0
	default:
		thresh = uint64(rate * float64(1<<63) * 2)
	}
	c := &Collector{
		clk:    cfg.Clock,
		thresh: thresh,
		seed:   mix64(uint64(cfg.Seed) ^ 0x6f64644349747261), // "oddCItra"
	}
	per := (cfg.Capacity + collectorShards - 1) / collectorShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].buf = make([]Data, per)
	}
	c.links.init()
	return c
}

func (c *Collector) nextRaw() uint64        { return c.ctr.Add(1) }
func (c *Collector) idFrom(n uint64) uint64 { return mix64(c.seed ^ n) }

func (c *Collector) nextID() uint64 { return c.idFrom(c.nextRaw()) }

// nextSpan draws a creation sequence number and the non-zero span ID
// derived from it.
func (c *Collector) nextSpan() (uint64, SpanID) {
	n := c.nextRaw()
	id := SpanID(c.idFrom(n))
	if id == 0 {
		id = 1
	}
	return n, id
}

func (c *Collector) sampled(t TraceID) bool {
	if c.thresh == ^uint64(0) {
		return true
	}
	return mix64(t[1]) < c.thresh
}

// Root opens a new trace and returns its root span, or nil when the
// head-based draw says the trace is unsampled (or the collector is
// nil). The returned span's Context is what downstream hops propagate.
func (c *Collector) Root(name, node string) *Span {
	if c == nil {
		return nil
	}
	var t TraceID
	t[0] = c.nextID()
	t[1] = c.nextID()
	c.started.Add(1)
	if !c.sampled(t) {
		return nil
	}
	n, id := c.nextSpan()
	return &Span{c: c, data: Data{
		Trace: t,
		ID:    id,
		Seq:   n,
		Name:  name,
		Node:  node,
		Start: c.clk.Now(),
	}}
}

// Start opens a child span of parent. A zero or unsampled parent (the
// untraced-peer case) yields nil: the work proceeds untraced, which is
// the graceful-degradation contract for mixed-version deployments.
func (c *Collector) Start(parent Context, name, node string) *Span {
	if c == nil || !parent.Valid() || !parent.Sampled {
		return nil
	}
	n, id := c.nextSpan()
	return &Span{c: c, data: Data{
		Trace:  parent.Trace,
		ID:     id,
		Parent: parent.Span,
		Seq:    n,
		Name:   name,
		Node:   node,
		Start:  c.clk.Now(),
	}}
}

// Event records a point event: a finished entry of no duration
// (Start == End), stamped now. Unlike Start it records whatever the
// head-based draw said, the rule ForceRecord applies to error and retry
// evidence: a lifecycle fact (a trim, a GC, a refresh retry) is what
// /timeline is read for. Under a valid parent the event also shows in
// that trace's waterfall; under the zero Context it is an orphan that
// only the timeline lists. detail follows SetDetail. The nil collector
// costs one branch, but arguments are boxed by the caller, so a call
// that passes any belongs behind the caller's own nil check.
func (c *Collector) Event(parent Context, name, node, detail string, args ...any) {
	if c == nil {
		return
	}
	if !parent.Valid() {
		parent = Context{}
	}
	if len(args) > 0 {
		detail = fmt.Sprintf(detail, args...)
	}
	n, id := c.nextSpan()
	now := c.clk.Now()
	c.record(Data{
		Trace:  parent.Trace,
		ID:     id,
		Parent: parent.Span,
		Seq:    n,
		Name:   name,
		Node:   node,
		Detail: detail,
		Start:  now,
		End:    now,
	})
}

func (c *Collector) record(d Data) {
	// One trace stays in one shard. Orphans have no trace to key on and
	// would all share shard 0 and a sixteenth of the capacity, so they
	// spread by creation order.
	key := d.Trace[1]
	if d.Trace.IsZero() {
		key = d.Seq
	}
	sh := &c.shards[key%collectorShards]
	sh.mu.Lock()
	if sh.n == len(sh.buf) {
		sh.head = (sh.head + 1) % len(sh.buf)
		sh.n--
		c.dropped.Add(1)
	}
	sh.buf[(sh.head+sh.n)%len(sh.buf)] = d
	sh.n++
	sh.seq++
	sh.mu.Unlock()
	c.kept.Add(1)
}

// ForceRecord records an already-finished span directly — the path for
// error/retry evidence on traces that lost the sampling draw. Callers
// construct the Data themselves (IDs may be zero for orphan evidence).
func (c *Collector) ForceRecord(d Data) {
	if c == nil {
		return
	}
	c.record(d)
}

// Snapshot returns all retained finished spans, oldest first within
// each shard, shards concatenated in order. Safe under concurrent
// record.
func (c *Collector) Snapshot() []Data {
	if c == nil {
		return nil
	}
	var out []Data
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for j := 0; j < sh.n; j++ {
			out = append(out, sh.buf[(sh.head+j)%len(sh.buf)])
		}
		sh.mu.Unlock()
	}
	return out
}

// Stats reports collector counters: traces started (sampled or not),
// spans retained, and spans evicted from the rings.
func (c *Collector) Stats() (started, kept, dropped int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.started.Load(), c.kept.Load(), c.dropped.Load()
}

// --- link table -----------------------------------------------------
//
// The wakeup broadcast travels the signed control codec, which must
// not change shape under old verifiers. Instead of embedding trace
// context there, the Controller publishes (instanceID, seq) → Context
// in this bounded table and the coordinator/PNA side looks it up when
// a node joins. Keys are instanceID<<32 | seq. No wakeup airs with seq 0,
// so (instance, 0) names the instance's latest wakeup: where its
// lifecycle events hang.

const maxLinks = 1024

type linkTable struct {
	mu    sync.Mutex
	m     map[uint64]Context
	order []uint64
}

func (l *linkTable) init() { l.m = make(map[uint64]Context) }

// LinkKey builds the canonical wakeup link key.
func LinkKey(instanceID uint64, seq uint64) uint64 {
	return instanceID<<32 | seq&0xffffffff
}

// SetLink publishes the trace context for a key, evicting the oldest
// entry beyond the bound.
func (c *Collector) SetLink(key uint64, ctx Context) {
	if c == nil {
		return
	}
	l := &c.links
	l.mu.Lock()
	if _, ok := l.m[key]; !ok {
		l.order = append(l.order, key)
		if len(l.order) > maxLinks {
			delete(l.m, l.order[0])
			l.order = l.order[1:]
		}
	}
	l.m[key] = ctx
	l.mu.Unlock()
}

// GetLink resolves a previously published context.
func (c *Collector) GetLink(key uint64) (Context, bool) {
	if c == nil {
		return Context{}, false
	}
	l := &c.links
	l.mu.Lock()
	ctx, ok := l.m[key]
	l.mu.Unlock()
	return ctx, ok
}
