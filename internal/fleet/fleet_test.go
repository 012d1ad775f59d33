package fleet

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"oddci/internal/analytic"
)

// TestRunValidates is the main cross-validation gate, at every rung
// below the 10⁶ run the benchmark's fleet_ramp workload validates: warm-up,
// wakeup, and ramp, with every availability and ramp sample inside its
// analytic bound.
func TestRunValidates(t *testing.T) {
	for _, n := range []int{2_000, 10_000, 100_000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			r, err := Run(Config{Nodes: n, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Validate(); err != nil {
				t.Fatal(err)
			}
			if r.Availability != 0.75 {
				t.Fatalf("model availability = %v, want 0.75 for 3h on / 1h off", r.Availability)
			}
			// AvailAtWake is Binomial(n, 0.75): σ = √(n·0.75·0.25).
			mean, sigma := 0.75*float64(n), math.Sqrt(float64(n)*0.75*0.25)
			if d := math.Abs(float64(r.AvailAtWake) - mean); d > 8*sigma {
				t.Fatalf("AvailAtWake = %d, implausible for Binomial(%d, 0.75)", r.AvailAtWake, n)
			}
			if len(r.Avail) != 48 || len(r.Ramp) != 48 {
				t.Fatalf("curve lengths %d/%d, want 48 samples each", len(r.Avail), len(r.Ramp))
			}
			if r.QuorumSimSeconds < 0 {
				t.Fatal("quorum never reached")
			}
			// Defaults: C = 80s, quorum 0.8 ⇒ model ≈ C(1+q) minus a hair of churn.
			if r.QuorumModelSeconds < 140 || r.QuorumModelSeconds > 160 {
				t.Fatalf("model quorum = %.1fs, want near C(1+0.8) = 144s", r.QuorumModelSeconds)
			}
			if r.Heartbeats == 0 {
				t.Fatal("no heartbeats generated")
			}
			if r.DirectJoins == 0 || r.FinalJoined == 0 {
				t.Fatalf("no joins recorded: direct=%d final=%d", r.DirectJoins, r.FinalJoined)
			}
		})
	}
}

// TestRunDeterministic: identical configs produce identical results,
// bit for bit — the whole point of per-node RNG streams plus the
// deterministic wheel.
func TestRunDeterministic(t *testing.T) {
	cfg := Config{Nodes: 1500, Seed: 7}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("two runs of the same config differ")
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	r1, err := Run(Config{Nodes: 1500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Config{Nodes: 1500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.Ramp, r2.Ramp) {
		t.Fatal("different seeds produced identical ramp curves")
	}
}

// TestRunBatching: the event-batching claim. Node transitions must
// dwarf the number of batches the wheel fires — one advance step
// delivers a whole tick's deadlines. Needs a population large enough
// that many transitions share each 10 ms tick.
func TestRunBatching(t *testing.T) {
	r, err := Run(Config{Nodes: 100_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.WheelBatches == 0 || r.NodeEvents < 2*r.WheelBatches {
		t.Fatalf("node events %d vs wheel batches %d: wheel batching not effective", r.NodeEvents, r.WheelBatches)
	}
}

// TestRunNoChurn: with effectively infinite on-times the ramp is the
// pure random-phase curve — everyone available at the wakeup has
// joined by 2C and stays joined.
func TestRunNoChurn(t *testing.T) {
	r, err := Run(Config{
		Nodes:  1000,
		Seed:   5,
		MeanOn: 1e6 * time.Hour,
		// MeanOff shrinks so the off population still cycles in.
		MeanOff: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.DirectJoins != r.AvailAtWake {
		t.Fatalf("without churn every wakeup-time node must join: %d of %d", r.DirectJoins, r.AvailAtWake)
	}
	last := r.Ramp[len(r.Ramp)-1]
	if last.Sim != 1 {
		t.Fatalf("final ramp sample = %v, want exactly 1 without churn", last.Sim)
	}
}

// TestRunAgainstAnalyticForms pins the model columns of the curves to
// the analytic package directly, so the harness cannot drift from the
// closed forms it claims to validate against.
func TestRunAgainstAnalyticForms(t *testing.T) {
	r, err := Run(Config{Nodes: 1000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	p := analytic.Params{ImageBits: 10e6 * 8, Beta: 1e6}
	meanOn := (3 * time.Hour).Seconds()
	for _, pt := range r.Avail {
		if want := analytic.Availability(meanOn, time.Hour.Seconds()); pt.Model != want {
			t.Fatalf("avail model column %v, want %v", pt.Model, want)
		}
	}
	for _, pt := range r.Ramp {
		if want := p.RampUpWithChurn(pt.T, meanOn); math.Abs(pt.Model-want) > 1e-12 {
			t.Fatalf("ramp model at t=%v: %v, want %v", pt.T, pt.Model, want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Nodes: 0},
		{Nodes: 100, Beta: -1},
		{Nodes: 100, MeanOn: -time.Second},
		{Nodes: 100, QuorumFrac: 1.5},
		{Nodes: 100, HeartbeatPeriod: time.Millisecond, Tick: time.Second},
		{Nodes: 100, Warmup: time.Second, Tick: time.Second, Samples: 48},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("config %d accepted, want error", i)
		}
	}
	if err := (Config{Nodes: 100}).withDefaults().Validate(); err != nil {
		t.Fatalf("defaulted config rejected: %v", err)
	}
}

// TestResultValidateFlagsViolations: the acceptance check must actually
// trip when a sample leaves its bound.
func TestResultValidateFlagsViolations(t *testing.T) {
	r, err := Run(Config{Nodes: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	tampered := *r
	tampered.Avail = append([]Point(nil), r.Avail...)
	tampered.Avail[3].Sim = tampered.Avail[3].Model + 2*tampered.Avail[3].Tol
	if tampered.Validate() == nil {
		t.Fatal("out-of-bound availability sample not flagged")
	}
	tampered = *r
	tampered.Ramp = append([]Point(nil), r.Ramp...)
	tampered.Ramp[40].Sim = tampered.Ramp[40].Model + 2*tampered.Ramp[40].Tol
	if tampered.Validate() == nil {
		t.Fatal("out-of-bound ramp sample not flagged")
	}
	tampered = *r
	tampered.QuorumSimSeconds = r.QuorumModelSeconds + 2*r.QuorumTolSeconds
	if tampered.Validate() == nil {
		t.Fatal("out-of-bound quorum time not flagged")
	}
	tampered = *r
	tampered.QuorumSimSeconds = -1
	if tampered.Validate() == nil {
		t.Fatal("unreached quorum not flagged")
	}
}

// TestConfigValidateWheelHorizon: a window the wheel cannot span is a
// config error, not a panic in Wheel.Schedule when the wakeup sentinel
// is booked 7.2·10⁹ ticks out.
func TestConfigValidateWheelHorizon(t *testing.T) {
	cfg := Config{Nodes: 100, Tick: time.Microsecond, Warmup: 2 * time.Hour}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted a window past the wheel horizon")
	}
	if _, err := RunSharded(ShardedConfig{Config: cfg, Shards: 2, KillShard: -1}); err == nil {
		t.Fatal("RunSharded accepted a window past the wheel horizon")
	}
}

// TestWheelEmptyAtEnd: only deadlines that can fire are booked, so a
// finished run leaves nothing on the wheel. Before PR 23 every deadline
// past the window was booked at endTick+1 and ~1.7 entries per node were
// still there, having been appended, cascaded and never fired.
func TestWheelEmptyAtEnd(t *testing.T) {
	e := newEngine(Config{Nodes: 100_000, Seed: 1}.withDefaults())
	e.init()
	e.run()
	if n := e.whl.Len(); n != 0 {
		t.Fatalf("%d entries left on the wheel after the run (%.2f per node)", n, float64(n)/100_000)
	}
}

// allocatedBy reports the bytes and the mallocs f made.
func allocatedBy(f func()) (bytes, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestRunAllocBudget bounds what one run allocates, in bytes and in
// mallocs. 25 B/node of SoA state plus 8-byte wheel entries for the
// deadlines that fire measure ~49 B/node (~94 with 16-byte entries);
// slot growth and the curves are ~3.5 k mallocs, where a Sim timer and a
// closure per wheel batch made it ~72 k.
func TestRunAllocBudget(t *testing.T) {
	const nodes, byteBudget, mallocBudget = 100_000, 80, 8_000
	bytes, mallocs := allocatedBy(func() {
		if _, err := Run(Config{Nodes: nodes, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	perNode := float64(bytes) / nodes
	t.Logf("%.1f B/node allocated in %d mallocs", perNode, mallocs)
	if perNode > byteBudget {
		t.Errorf("one run allocated %.1f B/node, budget %d", perNode, byteBudget)
	}
	if mallocs > mallocBudget {
		t.Errorf("one run made %d allocations, budget %d", mallocs, mallocBudget)
	}
}
