package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Every workload runs at -quick size, tracing off and on: every named
// metric is present, nothing fails its checks, and each workload's own
// layer metrics are non-zero where the catalogue says it measures
// them.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{Workload: w.Name, Seed: 7, Seconds: 0.5, Trace: trace, Quick: true,
				Start: time.Now(), OutDir: t.TempDir()}
			res, notes, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%v", w.Name, trace, err, notes)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%v", w.Name, trace, res.Correct, res.Attempted, res.Failed, notes)
			}
			if !trace {
				if len(res.Metrics) != len(endToEnd) {
					t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(res.Metrics), len(endToEnd))
				}
				for _, m := range endToEnd {
					if mv, ok := res.Metrics[m.Name]; !ok || mv.Value <= 0 || mv.Unit != m.Unit {
						t.Errorf("%s: %s = %+v (present %t)", w.Name, m.Name, mv, ok)
					}
				}
				continue
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				mv, ok := res.Metrics[m.Name]
				if !ok || mv.Unit != m.Unit {
					t.Errorf("%s: %s = %+v (present %t)", w.Name, m.Name, mv, ok)
				}
				measured := m.On == nil
				for _, on := range m.On {
					measured = measured || on == w.Name
				}
				if !measured && mv.Value != 0 {
					t.Errorf("%s: %s = %g on a workload that does not measure it", w.Name, m.Name, mv.Value)
				}
				if measured && mv.Value == 0 && !mayBeZero[m.Name] {
					t.Errorf("%s: %s is 0", w.Name, m.Name)
				}
			}
			if u := res.Metrics["harness.uncovered_frac"].Value; u > 0.10 {
				t.Errorf("%s: %.3f of op time is not covered by a layer span", w.Name, u)
			}
			if _, err := os.Stat(filepath.Join(cfg.OutDir, w.Name+".trace.jsonl")); err != nil {
				t.Errorf("%s: no span file: %v", w.Name, err)
			}
		}
	}
}

// mayBeZero lists measured metrics whose healthy value is, or can be, 0.
var mayBeZero = map[string]bool{
	"transport.encodes_per_join": true, // must be 0: joins encode nothing
	"backend.redispatch_frac":    true, // no lease expires
	"span.evicted":               true,
	"span.spans_per_op":          true, // fleet has no collector; quick runs may sample none
	"obs.traced_overhead_frac":   true, // a difference of two noisy rates
}

func TestUnknownWorkload(t *testing.T) {
	if _, _, err := runWorkload(runConfig{Workload: "nope", OutDir: t.TempDir()}); err == nil {
		t.Error("unknown workload accepted")
	}
}
