package fleet

import (
	"math"
	"testing"
	"time"
)

// decades maps x onto twelve decades of duration, 1 µs at x = 1 up to
// 10⁶ s (11.6 days) at x = MaxUint16; x = 0 leaves the field at its
// default.
func decades(x uint16) time.Duration {
	if x == 0 {
		return 0
	}
	return time.Duration(1e3 * math.Pow(10, 12*float64(x-1)/(math.MaxUint16-1)))
}

// maxFuzzEvents is the most wheel events a generated config may be
// expected to fire (node power flips and heartbeat cohorts), which keeps
// one run under a second: 2,000 nodes with 100 µs means over a 10 s
// window at 1 µs ticks are 4·10⁸ node events that Validate accepts.
const maxFuzzEvents = 4e6

// FuzzFleetConfig runs every config Validate accepts among those its
// inputs generate: up to 2,000 nodes, any seed, and power means, tick,
// warm-up and window each over twelve decades. Each run must allocate
// no more than an affine budget in nodes and events (node transitions,
// heartbeat cohorts and samples), plus the tick-indexed records
// Validate bounds; every period its plan
// draws must be at least one tick and non-increasing in the unit draw;
// and its Result must pass Validate. The committed corpus in
// testdata/fuzz runs in tier-1; `go test -fuzz FuzzFleetConfig
// ./internal/fleet` explores further.
func FuzzFleetConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, nodes uint16, seed int64, on, off, tick, warmup, window uint16) {
		cfg := Config{
			Nodes: int(nodes % 2001), Seed: seed,
			MeanOn: decades(on), MeanOff: decades(off),
			tick: decades(tick), warmup: decades(warmup), window: decades(window),
		}.withDefaults()
		if cfg.Validate() != nil {
			return
		}
		total := (cfg.warmup + cfg.window).Seconds()
		expected := float64(cfg.Nodes)*total/min(cfg.MeanOn, cfg.MeanOff).Seconds() +
			float64(min(cfg.Nodes, maxCohorts))*total/max(heartbeatPeriod, cfg.tick).Seconds()
		if expected > maxFuzzEvents {
			t.Skipf("~%.0g expected events: past what one fuzz run affords", expected)
		}

		p := newPlan(cfg)
		for _, mean := range []float64{p.meanOnSec, p.meanOffSec} {
			far := p.farDraw(mean)
			prevExp, prevFirst := int64(math.MaxInt64), int64(math.MaxInt64)
			for u := 1.0 / (1 << 53); ; u = min(1.5*u, 1) {
				e, d := p.expTicks(u, mean), p.firstTicks(u, mean, far)
				if e < 1 || d < 1 || e > prevExp || d > prevFirst {
					t.Fatalf("mean %gs, u = %v: expTicks %d after %d, firstTicks %d after %d: want at least 1 and non-increasing in u",
						mean, u, e, prevExp, d, prevFirst)
				}
				prevExp, prevFirst = e, d
				if u == 1 {
					break
				}
			}
		}
		s := uint64(seed)
		for range 64 {
			if d := p.loadTicks(&s); d < 1 {
				t.Fatalf("a load of %d ticks", d)
			}
		}

		var r *Result
		var err error
		bytes, _ := allocatedBy(func() { r, err = Run(cfg) })
		if err != nil {
			t.Fatalf("Run refused a config Validate accepted: %v", err)
		}
		// The wheel's slots grow with the events booked into them, and
		// the tick-indexed records with the ticks.
		events := r.NodeEvents + uint64(p.ncoh)*uint64(p.endTick/p.hbTicks) + 2*samples
		records := recordBytes(p.endTick, p.endTick-p.wakeTick)
		if budget := 256<<10 + 128*uint64(cfg.Nodes) + 32*events + uint64(records); bytes > budget {
			t.Fatalf("Run allocated %d B, budget %d (%d nodes, %d events, %d B of records)",
				bytes, budget, cfg.Nodes, events, records)
		}
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
