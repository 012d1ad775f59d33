package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanData is one benchmark-side span: a timed call into a layer, the
// span that caused it, and the op both belong to. Times are
// nanoseconds since the recorder was created.
type spanData struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// SelfNS is the duration minus the part covered by child spans;
	// filled in by finish.
	SelfNS int64 `json:"self_ns"`
}

// spanRec keeps spans in memory until the run ends. Every method is a
// no-op on a nil recorder, so workloads call it unconditionally and
// the untraced run pays one nil check per call.
type spanRec struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanData
}

func newSpanRec() *spanRec { return &spanRec{epoch: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *spanRec) start(parent, op int, name string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanData{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(r.spans)
}

// end closes the span start returned.
func (r *spanRec) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// finish computes every span's self time and returns the spans. Call
// it once, after the last end.
func (r *spanRec) finish() []spanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		kids := make([][2]int64, 0, len(children[s.ID]))
		for _, ci := range children[s.ID] {
			kids = append(kids, [2]int64{r.spans[ci].Start, r.spans[ci].End})
		}
		s.SelfNS = (s.End - s.Start) - covered(s.Start, s.End, kids)
	}
	return r.spans
}

// covered returns how much of [start, end] the intervals cover.
// Overlapping intervals count once and parts outside [start, end] not
// at all: two sessions running side by side cover their union, not
// their sum.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cursor := start
	for _, iv := range ivs {
		lo, hi := iv[0], iv[1]
		if lo < cursor {
			lo = cursor
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			total += hi - lo
			cursor = hi
		}
	}
	return total
}

// spanDurationsMS returns the durations of every span called name, in
// milliseconds.
func spanDurationsMS(spans []spanData, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// uncoveredFrac is the share of all op-span time that no child span
// accounts for: what the per-layer spans fail to explain.
func uncoveredFrac(spans []spanData) float64 {
	var self, total int64
	for _, s := range spans {
		if s.Name == spanOp {
			self += s.SelfNS
			total += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []spanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
