package simtime

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

func TestSimAfterFuncOrdering(t *testing.T) {
	clk := NewSim(epoch)
	var got []int
	delays := []time.Duration{50, 10, 30, 20, 40}
	for i, d := range delays {
		i, d := i, d
		clk.AfterFunc(d*time.Millisecond, func() { got = append(got, i) })
	}
	clk.Wait()
	want := []int{1, 3, 2, 4, 0}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	}
	if n := clk.Now(); !n.Equal(epoch.Add(50 * time.Millisecond)) {
		t.Fatalf("final time %v, want epoch+50ms", n)
	}
}

func TestSimSameInstantFIFO(t *testing.T) {
	clk := NewSim(epoch)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		clk.AfterFunc(time.Second, func() { got = append(got, i) })
	}
	clk.Wait()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of order at %d: %v", i, got[:i+1])
		}
	}
}

func TestSimTimerStop(t *testing.T) {
	clk := NewSim(epoch)
	fired := false
	tm := clk.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	clk.Wait()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestSimSleepAdvancesVirtualTime(t *testing.T) {
	clk := NewSim(epoch)
	var woke time.Time
	start := time.Now()
	clk.Go(func() {
		clk.Sleep(10 * time.Hour)
		woke = clk.Now()
	})
	clk.Wait()
	if !woke.Equal(epoch.Add(10 * time.Hour)) {
		t.Fatalf("woke at %v, want epoch+10h", woke)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("virtual 10h sleep took %v of wall time", elapsed)
	}
}

// TestSimManyGoroutinesDeterministic spawns its sleepers from inside one
// actor: the spawner stays runnable until every sleeper exists, so time
// cannot move before the last one has booked its sleep. Spawned from the
// test goroutine, which is not an actor, sleeper i could park before
// sleeper i+1 existed and let the earliest sleep fire mid-setup.
func TestSimManyGoroutinesDeterministic(t *testing.T) {
	run := func() []int {
		clk := NewSim(epoch)
		var mu sync.Mutex
		var order []int
		clk.Go(func() {
			for i := 0; i < 50; i++ {
				clk.Go(func() {
					clk.Sleep(time.Duration(50-i) * time.Millisecond)
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
				})
			}
		})
		clk.Wait()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic ordering: run1=%v run2=%v", a, b)
		}
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] > a[j] }) {
		t.Fatalf("goroutines woke out of delay order: %v", a)
	}
}

func TestSimSuspendWake(t *testing.T) {
	clk := NewSim(epoch)
	var delivered string
	clk.Go(func() {
		clk.park(func(w waker) {
			clk.AfterFunc(3*time.Second, func() {
				delivered = "msg"
				w.wake()
			})
		})
		if delivered != "msg" {
			t.Error("woke before delivery")
		}
		if !clk.Now().Equal(epoch.Add(3 * time.Second)) {
			t.Errorf("woke at %v, want epoch+3s", clk.Now())
		}
	})
	clk.Wait()
	if delivered != "msg" {
		t.Fatal("suspend never woke")
	}
}

func TestSimWakeBeforeParkIsSafe(t *testing.T) {
	// wake invoked synchronously inside publish (message already waiting).
	clk := NewSim(epoch)
	done := false
	clk.Go(func() {
		clk.park(func(w waker) { w.wake() })
		done = true
	})
	clk.Wait()
	if !done {
		t.Fatal("goroutine never resumed")
	}
}

// TestSimStaleWakeIgnored: a waker whose park is over must not resume a
// later park, though Sim hands that park the same parker, whether the
// parker came from the clock's first slab or a later one.
func TestSimStaleWakeIgnored(t *testing.T) {
	for _, second := range []bool{false, true} {
		clk := NewSim(epoch)
		if second {
			holdFirstSlabs(t, clk)
		}
		simStaleWakeIgnored(t, clk)
		if second && clk.madeParkers != 2*slabMin {
			t.Fatalf("second slab: %d parkers made, want %d", clk.madeParkers, 2*slabMin)
		}
	}
}

func simStaleWakeIgnored(t *testing.T, clk *Sim) {
	var stale waker
	var woke time.Time
	clk.Go(func() {
		clk.park(func(w waker) {
			stale = w
			clk.wakeAfter(time.Second, w)
		})
		stale.wake() // the park is over: this call must do nothing
		clk.park(func(w waker) {
			if w.p != stale.p {
				t.Error("the second park did not reuse the first park's parker")
			}
			clk.wakeAfter(2*time.Second, stale)
			clk.AfterFunc(3*time.Second, stale.wake)
			clk.wakeAfter(10*time.Second, w)
		})
		woke = clk.Now()
	})
	clk.Wait()
	if !woke.Equal(epoch.Add(11 * time.Second)) {
		t.Fatalf("second park ended at %v, want epoch+11s", woke)
	}
}

// TestSimSleepAllocs holds a steady-state Sleep inside an actor to no
// allocation: the parker and the event come off their free lists, and
// the waker and the Timer are values.
func TestSimSleepAllocs(t *testing.T) {
	clk := NewSim(epoch)
	var allocs float64
	clk.Go(func() {
		allocs = testing.AllocsPerRun(100, func() { clk.Sleep(time.Second) })
	})
	clk.Wait()
	t.Logf("%.1f allocations per Sleep", allocs)
	if allocs != 0 {
		t.Fatalf("Sleep allocates %.1f objects, want 0", allocs)
	}
}

// TestTakeRefillsDoublingToCap: an empty free list refills with as many
// items as it was ever filled with, from slabMin up to slabMax, and
// hands each fresh item to its owner once.
func TestTakeRefillsDoublingToCap(t *testing.T) {
	made, owned := 0, 0
	var sizes []int
	for made < 4*slabMax {
		var free []*event
		take(&free, &made, func(*event) { owned++ })
		sizes = append(sizes, len(free)+1)
	}
	if owned != made {
		t.Fatalf("%d of %d fresh items handed to their owner", owned, made)
	}
	want := []int{16, 16, 32, 64, 128, 256, 512, 1024, 1024, 1024}
	if !slices.Equal(sizes, want) || made != 4*slabMax {
		t.Fatalf("slab sizes %v (made %d), want %v", sizes, made, want)
	}
}

// waitPanic runs clk.Wait on its own goroutine and delivers what it
// panicked with, or nil if it returned.
func waitPanic(clk *Sim) <-chan any {
	out := make(chan any, 1)
	go func() {
		defer func() { out <- recover() }()
		clk.Wait()
	}()
	return out
}

func TestSimDeadlockPanics(t *testing.T) {
	clk := NewSim(epoch)
	clk.Go(func() {
		clk.park(func(waker) {}) // nobody will ever wake us
	})
	select {
	case p := <-waitPanic(clk):
		if p == nil {
			t.Fatal("Wait returned with an actor parked forever, want a deadlock panic")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock not detected")
	}
}

// TestSimParkBeforeDriverBooksIsNotDeadlock: actors that park while the
// owning goroutine has yet to book the event that wakes them are not
// deadlocked — the owner is not in Wait, so it can still call AfterFunc.
// parked closes when the last actor has published its waker, and the
// sleep then lets it finish parking, so the event is booked only once
// every actor is blocked with nothing pending.
func TestSimParkBeforeDriverBooksIsNotDeadlock(t *testing.T) {
	clk := NewSim(epoch)
	const actors = 3
	var mu sync.Mutex
	var wakes []waker
	parked := make(chan struct{})
	resumed := 0
	for i := 0; i < actors; i++ {
		clk.Go(func() {
			clk.park(func(w waker) {
				mu.Lock()
				wakes = append(wakes, w)
				if len(wakes) == actors {
					close(parked)
				}
				mu.Unlock()
			})
			mu.Lock()
			resumed++
			mu.Unlock()
		})
	}
	<-parked
	time.Sleep(100 * time.Millisecond)
	clk.AfterFunc(time.Second, func() {
		for _, w := range wakes {
			w.wake()
		}
	})
	clk.Wait()
	if resumed != actors {
		t.Fatalf("%d of %d actors resumed", resumed, actors)
	}
}

// TestSimDeadlockAfterEventsDrain: the genuine case. The driver is in
// Wait, the last event fires without waking anybody, and every actor is
// parked: nothing can book another event, so Wait panics.
func TestSimDeadlockAfterEventsDrain(t *testing.T) {
	clk := NewSim(epoch)
	for i := 0; i < 3; i++ {
		clk.Go(func() { clk.park(func(waker) {}) })
	}
	clk.AfterFunc(time.Second, func() {})
	select {
	case p := <-waitPanic(clk):
		s, _ := p.(string)
		if !strings.Contains(s, "deadlock: 3 goroutine(s) parked") {
			t.Fatalf("Wait panic = %v, want a deadlock naming 3 parked goroutines", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock not detected")
	}
	if !clk.Now().Equal(epoch.Add(time.Second)) {
		t.Fatalf("deadlock declared at %v, want after the last event at epoch+1s", clk.Now())
	}
}

func TestSimNestedSpawn(t *testing.T) {
	clk := NewSim(epoch)
	var count atomic.Int64
	var spawn func(depth int)
	spawn = func(depth int) {
		clk.Sleep(time.Millisecond)
		count.Add(1)
		if depth < 5 {
			for i := 0; i < 2; i++ {
				d := depth
				clk.Go(func() { spawn(d + 1) })
			}
		}
	}
	clk.Go(func() { spawn(0) })
	clk.Wait()
	if got := count.Load(); got != 63 { // 2^6 - 1
		t.Fatalf("ran %d goroutines, want 63", got)
	}
}

func TestSimRunUntil(t *testing.T) {
	clk := NewSim(epoch)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		clk.AfterFunc(d, func() { fired = append(fired, d) })
	}
	clk.RunUntil(epoch.Add(3 * time.Second))
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1s and 2s only", fired)
	}
	if !clk.Now().Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("time %v, want epoch+3s", clk.Now())
	}
	clk.RunUntil(epoch.Add(10 * time.Second))
	if len(fired) != 3 {
		t.Fatalf("fired %v, want all three after second RunUntil", fired)
	}
}

// Property: for any set of non-negative delays, events fire in
// nondecreasing time order and all fire.
func TestSimFiringOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		clk := NewSim(epoch)
		var times []time.Time
		for _, r := range raw {
			d := time.Duration(r) * time.Millisecond
			clk.AfterFunc(d, func() { times = append(times, clk.Now()) })
		}
		clk.Wait()
		if len(times) != len(raw) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i].Before(times[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved sleeps across goroutines always observe
// monotonically nondecreasing Now().
func TestSimMonotonicProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	clk := NewSim(epoch)
	var mu sync.Mutex
	var stamps []time.Time
	for g := 0; g < 20; g++ {
		n := rng.Intn(20) + 1
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(1000)) * time.Millisecond
		}
		clk.Go(func() {
			for _, d := range delays {
				clk.Sleep(d)
				mu.Lock()
				stamps = append(stamps, clk.Now())
				mu.Unlock()
			}
		})
	}
	clk.Wait()
	for i := 1; i < len(stamps); i++ {
		if stamps[i].Before(stamps[i-1]) {
			t.Fatalf("time went backwards at observation %d", i)
		}
	}
}

func TestRealClockBasics(t *testing.T) {
	clk := NewReal()
	before := clk.Now()
	time.Sleep(time.Millisecond)
	if !clk.Now().After(before) {
		t.Fatal("real clock did not advance")
	}
	done := make(chan struct{})
	clk.AfterFunc(time.Millisecond, func() { close(done) })
	<-done

	var ran atomic.Bool
	clk.Go(func() { ran.Store(true) })
	clk.Wait()
	if !ran.Load() {
		t.Fatal("Go goroutine did not run before Wait returned")
	}

	var it Interrupter
	woke := false
	clk.Go(func() { woke = it.Sleep(clk, time.Millisecond) })
	clk.Wait()
	if !woke {
		t.Fatal("real sleep never woke")
	}
}

func BenchmarkSimEventThroughput(b *testing.B) {
	clk := NewSim(epoch)
	var i int
	var step func()
	step = func() {
		i++
		if i < b.N {
			clk.AfterFunc(time.Microsecond, step)
		}
	}
	b.ResetTimer()
	clk.AfterFunc(0, step)
	clk.Wait()
}
