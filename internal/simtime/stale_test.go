package simtime

import (
	"sync"
	"testing"
	"time"
)

// holdFirstSlabs takes every event and parker of clk's first slabs off
// its free lists and keeps them, so the clock's next booking and park
// come from its second slabs.
func holdFirstSlabs(t *testing.T, clk *Sim) {
	t.Helper()
	clk.mu.Lock()
	defer clk.mu.Unlock()
	for range slabMin {
		take(&clk.idle, &clk.madeEvents, func(ev *event) { ev.s = clk })
		take(&clk.parkers, &clk.madeParkers, func(p *parker) { p.s = clk })
	}
	if clk.madeEvents != slabMin || clk.madeParkers != slabMin || len(clk.idle) != 0 || len(clk.parkers) != 0 {
		t.Fatalf("first slabs: %d events, %d parkers made, %d and %d idle",
			clk.madeEvents, clk.madeParkers, len(clk.idle), len(clk.parkers))
	}
}

// TestSimTimerStaleStop: Sim recycles an event once it leaves the heap,
// fired or stopped, and the next booking takes it. Stop through the old
// Timer must report false and leave that booking alone, whether the
// event came from the clock's first slab or a later one.
func TestSimTimerStaleStop(t *testing.T) {
	for _, second := range []bool{false, true} {
		clk := NewSim(epoch)
		if second {
			holdFirstSlabs(t, clk)
		}
		simTimerStaleStop(t, clk)
		if second && clk.madeEvents != 2*slabMin {
			t.Fatalf("second slab: %d events made, want %d", clk.madeEvents, 2*slabMin)
		}
	}
	if (Timer{}).Stop() {
		t.Fatal("the zero Timer's Stop reported true")
	}
}

func simTimerStaleStop(t *testing.T, clk *Sim) {
	for _, stop := range []bool{false, true} {
		old := clk.AfterFunc(time.Second, func() {
			if stop {
				t.Error("stopped timer fired")
			}
		})
		if stop && !old.Stop() {
			t.Fatal("Stop on a pending timer reported false")
		}
		clk.RunUntil(clk.Now().Add(time.Second)) // pops the event, fired or stopped, and recycles it
		ran := false
		cur := clk.AfterFunc(time.Second, func() { ran = true })
		if cur.ev != old.ev {
			t.Fatalf("stop=%v: the next booking did not reuse the recycled event", stop)
		}
		if old.Stop() {
			t.Fatalf("stop=%v: Stop through the old handle reported true", stop)
		}
		clk.Wait()
		if !ran {
			t.Fatalf("stop=%v: a stale Stop cancelled the event's next booking", stop)
		}
	}
}

// TestRealTimerStaleStop: the same contract under Real, whose handle
// wraps a time.Timer.
func TestRealTimerStaleStop(t *testing.T) {
	clk := NewReal()
	done := make(chan struct{})
	old := clk.AfterFunc(time.Millisecond, func() { close(done) })
	<-done
	ran := make(chan struct{})
	clk.AfterFunc(time.Millisecond, func() { close(ran) })
	if old.Stop() {
		t.Fatal("Stop on a fired timer reported true")
	}
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("a stale Stop cancelled a later booking")
	}
}

// wakeTap is a clock that hands the waker of every timed wait to taps.
type wakeTap struct {
	Clock
	taps chan waker
}

func (c wakeTap) wakeAfter(d time.Duration, w waker) Timer {
	c.taps <- w
	return c.Clock.wakeAfter(d, w)
}

// TestRealStaleWakeIgnored: a waker whose park is over must not resume
// the actor's next park under Real either.
func TestRealStaleWakeIgnored(t *testing.T) {
	clk := wakeTap{Clock: NewReal(), taps: make(chan waker, 2)}
	var c Cond
	var mu sync.Mutex
	c.L = &mu
	resumed := make(chan struct{})
	clk.Go(func() {
		mu.Lock()
		c.WaitFor(clk, time.Millisecond) // its timer ends it
		c.WaitFor(clk, time.Hour)
		mu.Unlock()
		close(resumed)
	})
	stale, w := <-clk.taps, <-clk.taps
	stale.wake()
	select {
	case <-resumed:
		t.Fatal("a stale waker resumed the next park")
	case <-time.After(20 * time.Millisecond):
	}
	w.wake()
	w.wake() // a repeated wake is a no-op
	clk.Wait()
}

// raceClock is a Sim whose wakeAfter timer runs the wake and a Cancel in
// one event, in either order, so both reach the same waker before the
// sleeping actor can resume and drop its entry.
type raceClock struct {
	*Sim
	it          *Interrupter
	cancelFirst bool
}

func (c *raceClock) wakeAfter(d time.Duration, w waker) Timer {
	return c.Sim.AfterFunc(d, func() {
		if c.cancelFirst {
			c.it.Cancel()
			w.wake()
			return
		}
		w.wake()
		c.it.Cancel()
	})
}

// TestInterrupterTimerRacesCancel: an Interrupter sleep whose timer
// fires as Cancel wakes it is woken once: the actor's next park, on the
// same reused parker, runs its full length, and the clock's runnable
// count stays right (a second wake would let time run on while the
// actor is busy, or hang Wait).
func TestInterrupterTimerRacesCancel(t *testing.T) {
	for _, cancelFirst := range []bool{false, true} {
		var it Interrupter
		clk := &raceClock{Sim: NewSim(epoch), it: &it, cancelFirst: cancelFirst}
		var first bool
		var woke time.Time
		clk.Go(func() {
			first = it.Sleep(clk, time.Second)
			clk.Sleep(10 * time.Second)
			woke = clk.Now()
		})
		clk.Wait()
		if first {
			t.Errorf("cancelFirst=%v: the raced sleep reported completion", cancelFirst)
		}
		if !woke.Equal(epoch.Add(11 * time.Second)) {
			t.Errorf("cancelFirst=%v: next park ended at %v, want epoch+11s", cancelFirst, woke)
		}
	}
}

// TestRealInterrupterTimerRacesCancel: under Real the timer and Cancel
// race for real. Whichever wins, the loser's late wake must not end the
// actor's next sleep.
func TestRealInterrupterTimerRacesCancel(t *testing.T) {
	clk := NewReal()
	const rounds, d = 20, 5 * time.Millisecond
	clk.Go(func() {
		for k := 0; k < rounds; k++ {
			var raced, next Interrupter
			time.AfterFunc(time.Millisecond, raced.Cancel)
			raced.Sleep(clk, time.Millisecond)
			start := time.Now()
			if !next.Sleep(clk, d) {
				t.Errorf("round %d: next sleep reported cancellation", k)
			}
			if el := time.Since(start); el < d {
				t.Errorf("round %d: next sleep ended after %v, want >= %v", k, el, d)
			}
		}
	})
	clk.Wait()
}
