package simtime

import (
	"strings"
	"testing"
	"time"
)

// TestSimStoppedTimersLazyInvalidation pins the popLocked path: stopped
// events stay in the heap but are skipped, never fired, and never
// counted in Fired.
func TestSimStoppedTimersLazyInvalidation(t *testing.T) {
	clk := NewSim(epoch)
	var fired []int
	var timers []Timer
	for i := 0; i < 5; i++ {
		i := i
		timers = append(timers, clk.AfterFunc(time.Duration(i+1)*time.Second, func() {
			fired = append(fired, i)
		}))
	}
	// Stop the earliest, one in the middle, and the latest.
	for _, i := range []int{0, 2, 4} {
		if !timers[i].Stop() {
			t.Fatalf("Stop(%d) = false on pending timer", i)
		}
	}
	clk.Wait()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired %v, want [1 3]", fired)
	}
	if got := clk.Fired(); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
	if n := clk.Now(); !n.Equal(epoch.Add(4 * time.Second)) {
		t.Fatalf("final time %v, want epoch+4s (stopped tail must not advance time)", n)
	}
	if timers[1].Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

// TestSimAllTimersStoppedWaitReturns: with every event stopped there is
// nothing live, so Wait must return without firing or hanging.
func TestSimAllTimersStoppedWaitReturns(t *testing.T) {
	clk := NewSim(epoch)
	var timers []Timer
	for i := 0; i < 3; i++ {
		timers = append(timers, clk.AfterFunc(time.Second, func() { t.Error("stopped timer fired") }))
	}
	for _, tm := range timers {
		tm.Stop()
	}
	done := make(chan struct{})
	go func() { clk.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait hung on a heap of stopped timers")
	}
	if !clk.Now().Equal(epoch) {
		t.Fatalf("time advanced to %v with no live events", clk.Now())
	}
}

// TestSimRunUntilSkipsStoppedHead pins the peekLocked path: a stopped
// event at the head of the heap is discarded during the peek, not fired.
func TestSimRunUntilSkipsStoppedHead(t *testing.T) {
	clk := NewSim(epoch)
	head := clk.AfterFunc(time.Second, func() { t.Error("stopped head fired") })
	var liveAt time.Time
	clk.AfterFunc(2*time.Second, func() { liveAt = clk.Now() })
	head.Stop()
	clk.RunUntil(epoch.Add(3 * time.Second))
	if !liveAt.Equal(epoch.Add(2 * time.Second)) {
		t.Fatalf("live event fired at %v, want epoch+2s", liveAt)
	}
	if !clk.Now().Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("RunUntil left time at %v, want the target", clk.Now())
	}
}

// TestSimRunUntilAdvancesWhenDrained: when the queue drains before the
// target — or was empty to begin with — RunUntil must still advance now
// to t, so back-to-back model phases stay aligned.
func TestSimRunUntilAdvancesWhenDrained(t *testing.T) {
	clk := NewSim(epoch)
	fired := false
	clk.AfterFunc(time.Second, func() { fired = true })
	clk.RunUntil(epoch.Add(10 * time.Second))
	if !fired {
		t.Fatal("event at +1s never fired")
	}
	if !clk.Now().Equal(epoch.Add(10 * time.Second)) {
		t.Fatalf("now = %v after early drain, want epoch+10s", clk.Now())
	}
	// Empty queue: a further RunUntil still advances.
	clk.RunUntil(epoch.Add(20 * time.Second))
	if !clk.Now().Equal(epoch.Add(20 * time.Second)) {
		t.Fatalf("now = %v on empty queue, want epoch+20s", clk.Now())
	}
	// A target in the past must not rewind.
	clk.RunUntil(epoch.Add(5 * time.Second))
	if !clk.Now().Equal(epoch.Add(20 * time.Second)) {
		t.Fatalf("now = %v, RunUntil must never rewind", clk.Now())
	}
}

// TestSimRunUntilRejectsActors: the pure event-loop driver refuses to
// run while participating goroutines exist.
func TestSimRunUntilRejectsActors(t *testing.T) {
	clk := NewSim(epoch)
	clk.Go(func() { clk.Sleep(time.Second) })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RunUntil with a live actor did not panic")
			}
		}()
		clk.RunUntil(epoch.Add(time.Minute))
	}()
	clk.Wait() // drain the sleeping actor so the test exits clean
}

// TestSimDeadlockPanicMessage: the no-runnable-actors deadlock panic
// names the parked count and the virtual instant, which is what makes
// hung fleet runs debuggable.
func TestSimDeadlockPanicMessage(t *testing.T) {
	clk := NewSim(epoch)
	clk.Go(func() {
		clk.Suspend(func(wake func()) {}) // wake is dropped: nothing can ever fire
	})
	select {
	case p := <-waitPanic(clk):
		s, ok := p.(string)
		if !ok || !strings.Contains(s, "deadlock") || !strings.Contains(s, "1 goroutine") ||
			!strings.Contains(s, epoch.Format(time.RFC3339Nano)) {
			t.Fatalf("panic = %v, want a deadlock message naming the parked goroutine count and the instant", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock not detected")
	}
}
