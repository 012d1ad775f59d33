package system

import (
	"testing"
	"time"

	"oddci/internal/core/controller"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
)

// The span timeline must capture the causal story of an instance's
// life: wakeup broadcast → joins → leaves once it is destroyed, with
// the box power transitions around it. Sampled, the story hangs in the
// wakeup's own trace; with sampling off the same facts are all still
// there, as orphan events. The counters agree with the timeline.
func TestTraceTimeline(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rate    float64
		sampled bool
	}{
		{"sampled", 0, true},
		{"sampling-off", -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := simtime.NewSim(epoch)
			spans := span.NewCollector(span.Config{Clock: clk, Capacity: 1 << 13, SampleRate: tc.rate, Seed: 81})
			reg := obs.NewRegistry()
			sys, err := New(Config{
				Clock:             clk,
				Nodes:             20,
				Seed:              81,
				HeartbeatPeriod:   20 * time.Second,
				MaintenancePeriod: 30 * time.Second,
				Spans:             spans,
				Obs:               reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Start(); err != nil {
				t.Fatal(err)
			}
			inst, err := sys.Provider.Create(controller.InstanceSpec{
				Image:              testImage(50000),
				Target:             20,
				InitialProbability: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			clk.AfterFunc(5*time.Minute, func() {
				if err := inst.Destroy(); err != nil {
					t.Errorf("destroy: %v", err)
				}
			})
			clk.AfterFunc(10*time.Minute, sys.Shutdown)
			clk.Wait()

			timeline := spans.Timeline()
			count := map[string]int{}
			first := map[string]int{}
			var wakeup span.Data
			for i, d := range timeline {
				if _, seen := first[d.Name]; !seen {
					first[d.Name] = i
					if d.Name == "wakeup" {
						wakeup = d
					}
				}
				count[d.Name]++
			}
			if count["wakeup"] < 1 {
				t.Fatalf("wakeup entries = %d", count["wakeup"])
			}
			for name, want := range map[string]int{
				"join": 20, "leave": 20, "power-on": 20, "power-off": 20,
				"create": 1, "destroy": 1, "gc": 1,
			} {
				if count[name] != want {
					t.Fatalf("%s entries = %d, want %d:\n%s", name, count[name], want, spans.RenderTimeline(0))
				}
			}
			if joins, _ := reg.Value("oddci_pna_joins_total"); joins != 20 {
				t.Fatalf("oddci_pna_joins_total = %v, timeline says 20", joins)
			}
			if wakeups, _ := reg.Value("oddci_controller_wakeups_total"); int(wakeups) != count["wakeup"] {
				t.Fatalf("oddci_controller_wakeups_total = %v, timeline says %d", wakeups, count["wakeup"])
			}
			// Causality: the first join must come after the first wakeup.
			if first["join"] < first["wakeup"] {
				t.Fatalf("causality broken: wakeup@%d join@%d", first["wakeup"], first["join"])
			}
			for _, d := range timeline {
				switch d.Name {
				case "join", "leave", "create", "destroy", "gc":
					if tc.sampled && d.Trace != wakeup.Trace {
						t.Fatalf("%s is outside the wakeup trace: %+v", d.Name, d)
					}
					if !tc.sampled && !d.Trace.IsZero() {
						t.Fatalf("sampling is off, yet %s sits in a trace: %+v", d.Name, d)
					}
				case "power-on", "power-off":
					if !d.Trace.IsZero() || !d.Start.Equal(d.End) {
						t.Fatalf("%s should be an orphan point event: %+v", d.Name, d)
					}
				}
			}
			if tc.sampled {
				tr, ok := spans.Lookup(wakeup.Trace.String())
				if !ok || !tr.Connected() {
					t.Fatalf("wakeup trace disconnected (ok=%v):\n%s", ok, tr.RenderWaterfall())
				}
			}
		})
	}
}
