package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
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
		{Nodes: 100, MeanOn: -time.Second},
		{Nodes: 100, quorumFrac: 1.5},
		{Nodes: 100, warmup: time.Second, tick: time.Second},
		{Nodes: 100, MeanOff: 99 * 10 * time.Millisecond},
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

// TestConfigValidateWheelHorizon: a run whose tick-indexed records
// (sized by ticks, not by events) would pass maxRecordBytes per range is
// a config error: not gigabytes allocated for a long window at a fine
// tick, and not a panic in Wheel.Schedule when the wakeup sentinel is
// booked 7.2·10⁹ ticks out. A 10 s window at 1 µs keeps ~43 MB and runs;
// a 30 min one would keep 7.2 GB and is checked with Validate alone.
func TestConfigValidateWheelHorizon(t *testing.T) {
	horizon := Config{Nodes: 100, tick: time.Microsecond, warmup: 2 * time.Hour}
	if _, err := Run(horizon); err == nil {
		t.Fatal("Run accepted a window past the wheel horizon")
	}
	if _, err := RunSharded(ShardedConfig{Config: horizon, Shards: 2, KillShard: -1}); err == nil {
		t.Fatal("RunSharded accepted a window past the wheel horizon")
	}
	long := Config{Nodes: 100, tick: time.Microsecond, warmup: time.Second, window: 30 * time.Minute}
	if err := long.withDefaults().Validate(); err == nil {
		t.Fatal("a 30 min window at 1 µs accepted")
	}
	fine := Config{Nodes: 100, Seed: 1, tick: time.Microsecond, warmup: time.Second, window: 10 * time.Second}
	p := newPlan(fine.withDefaults())
	if b := recordBytes(p.endTick, p.endTick-p.wakeTick); b > maxRecordBytes || b < 40e6 {
		t.Fatalf("a 10 s window at 1 µs keeps %d B of tick records, want ~43 MB under the %d B bound", b, maxRecordBytes)
	}
	if r, err := Run(fine); err != nil || r.Nodes != 100 {
		t.Fatalf("a 10 s window at 1 µs: %v", err)
	}
	// The bound itself, at a 1 s warm-up: the longest window accepted,
	// and one tick more.
	window := int64(maxRecordBytes / 4)
	for recordBytes(1e6+window, window) > maxRecordBytes {
		window--
	}
	last := Config{Nodes: 100, tick: time.Microsecond, warmup: time.Second, window: time.Duration(window) * time.Microsecond}
	if err := last.withDefaults().Validate(); err != nil {
		t.Fatalf("a window of %d ticks rejected: %v", window, err)
	}
	last.window += time.Microsecond
	if err := last.withDefaults().Validate(); err == nil {
		t.Fatalf("a window of %d ticks accepted", window+1)
	}
}

// TestExpTicksSaturates: a draw is at least one tick, at most endTick+1,
// and never grows with u, even where −mean·ln(u)/tick passes the int64
// range: at a 1 ns tick a mean of ~32 years reaches 3.7·10¹⁹ ticks at
// u = 2⁻⁵³, which converted unsaturated to MinInt64 and so to 1 tick.
func TestExpTicksSaturates(t *testing.T) {
	def := newPlan(Config{Nodes: 1}.withDefaults())
	nano := &plan{secPerTick: 1e-9, endTick: math.MaxInt32 - 1}
	cases := []struct {
		name string
		p    *plan
		mean float64
	}{
		{"default", def, def.meanOnSec},
		{"1ns tick, 32 years", nano, 32 * 365.25 * 86400},
		{"1ns tick, 1 s", nano, 1},
	}
	for _, tc := range cases {
		prev := int64(math.MaxInt64)
		for u := 1.0 / (1 << 53); u <= 1; u *= 1.5 {
			d := tc.p.expTicks(u, tc.mean)
			if d < 1 || d > tc.p.endTick+1 || d > prev {
				t.Fatalf("%s: expTicks(%v) = %d after %d: want 1 ≤ d ≤ %d, non-increasing in u",
					tc.name, u, d, prev, tc.p.endTick+1)
			}
			prev = d
		}
	}
	if d := nano.expTicks(1.0/(1<<53), 32*365.25*86400); d != nano.endTick+1 {
		t.Fatalf("a draw of 3.7·10¹⁹ ticks is %d, want endTick+1 = %d", d, nano.endTick+1)
	}
}

// TestFarDrawExact: an initial period firstTicks reports past the window
// is exactly one expTicks ends past it, at mean/tick ratios from 1 to
// 10¹² (and one past 10¹⁵, where nothing is skipped), for the default
// window and one of 2³¹−1 ticks, past the longest Validate accepts: at the threshold, 64
// representable draws either side of it, and 10⁵ seeded draws.
func TestFarDrawExact(t *testing.T) {
	def := newPlan(Config{Nodes: 1}.withDefaults())
	longest := &plan{secPerTick: def.secPerTick, endTick: math.MaxInt32 - 1}
	ratios := []float64{1e12, 1e16}
	for r := 1.0; r < 1e12; r *= 7 {
		ratios = append(ratios, r)
	}
	skipped := 0
	for _, p := range []*plan{def, longest} {
		for _, ratio := range ratios {
			mean := ratio * p.secPerTick
			far := p.farDraw(mean)
			check := func(u float64) {
				cheap := p.firstTicks(u, mean, far) > p.endTick
				if exact := p.expTicks(u, mean) > p.endTick; cheap != exact {
					t.Fatalf("endTick %d, mean/tick %g, far %v: u = %v ends past the window %v by the threshold, %v by expTicks",
						p.endTick, ratio, far, u, cheap, exact)
				}
				if u < far {
					skipped++
				}
			}
			u := far
			for range 64 {
				u = math.Nextafter(u, 0)
			}
			for range 129 {
				check(u)
				u = math.Nextafter(u, 1)
			}
			s := uint64(ratio)
			for range 100_000 {
				check(unitOpen(&s))
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no draw was below its threshold: the test checked nothing the threshold decides")
	}
}

// TestWheelEmptyAtEnd: only deadlines that can fire are booked, so a
// finished run leaves nothing on any range's wheel. When every deadline
// past the window was booked at endTick+1, ~1.7 entries per node were
// still there, having been appended, cascaded and never fired.
func TestWheelEmptyAtEnd(t *testing.T) {
	for _, k := range []int{1, 3} {
		if _, err := play(ShardedConfig{Config: Config{Nodes: 100_000, Seed: 1}}, false, k); err != nil {
			t.Fatal(err)
		}
		spare.Lock()
		for r := range spare.st.ranges[:k] {
			if n := spare.st.ranges[r].whl.Len(); n != 0 {
				t.Errorf("k=%d: %d entries left on range %d's wheel after the run (%.2f per node)", k, n, r, float64(n)/100_000)
			}
		}
		spare.Unlock()
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

// TestRunAllocBudget bounds what a run allocates, in bytes and in
// mallocs, cold and warm. A cold run (no spare node state) allocates 17
// B/node of SoA state plus 8-byte wheel entries for the deadlines that
// fire: ~42 B/node on one range, ~50 on four (~50 and ~58 with int64
// ticks, ~94 with 16-byte entries); slot growth and the curves are
// ~1.4 k mallocs on one range and ~4.1 k on four (~5.7 k on six, the
// most 10⁵ nodes are cut into), where a Sim timer and a closure per
// wheel batch made it ~72 k and slots grown from one entry ~11.3 k on
// four. A warm run at the same N reuses the last run's arrays, wheel
// slots, join queues and records and allocates only its result, its
// sample grids, its engines and one goroutine per range past the first:
// ~6 KB in 8 mallocs on one core, ~12 KB in 15 on four ranges, ~16 KB in
// 17 on six.
func TestRunAllocBudget(t *testing.T) {
	const nodes, byteBudget, mallocBudget = 100_000, 72, 8_000
	const warmByteBudget, warmMallocBudget = 24 << 10, 48
	takeNodeState(0, 0) // empty the spare: the first run below is cold
	run := func() {
		if _, err := Run(Config{Nodes: nodes, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	bytes, mallocs := allocatedBy(run)
	perNode := float64(bytes) / nodes
	t.Logf("cold: %.1f B/node allocated in %d mallocs", perNode, mallocs)
	if perNode > byteBudget {
		t.Errorf("a cold run allocated %.1f B/node, budget %d", perNode, byteBudget)
	}
	if mallocs > mallocBudget {
		t.Errorf("a cold run made %d allocations, budget %d", mallocs, mallocBudget)
	}
	bytes, mallocs = allocatedBy(run)
	t.Logf("warm: %d B allocated in %d mallocs", bytes, mallocs)
	if bytes > warmByteBudget {
		t.Errorf("a warm run allocated %d B, budget %d", bytes, warmByteBudget)
	}
	if mallocs > warmMallocBudget {
		t.Errorf("a warm run made %d allocations, budget %d", mallocs, warmMallocBudget)
	}
}

// TestRunReuseIsolated: a run on the node state a larger, smaller,
// sharded or other-seed run left behind returns what it returned before,
// byte for byte, and two runs at once each get their own state and leave
// no goroutine behind.
func TestRunReuseIsolated(t *testing.T) {
	marshal := func(r any, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	big := Config{Nodes: 100_000, Seed: 1}
	first := marshal(Run(big))
	marshal(Run(Config{Nodes: 20_000, Seed: 2}))
	marshal(RunSharded(goldenSharded))
	if again := marshal(Run(big)); again != first {
		t.Fatal("a run on reused node state differs from the same run before")
	}

	other := Config{Nodes: 50_000, Seed: 3}
	serial := []string{first, marshal(Run(other))}
	base := runtime.NumGoroutine()
	got := make([]string, 2)
	var wg sync.WaitGroup
	for i, cfg := range []Config{big, other} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := Run(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			b, _ := json.Marshal(r) // a Result has no field json cannot encode
			got[i] = string(b)
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != serial[i] {
			t.Fatalf("concurrent run %d differs from its serial result", i)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), base)
		}
	}
}
