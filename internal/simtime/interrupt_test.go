package simtime

import (
	"testing"
	"time"
)

func TestInterrupterFullSleep(t *testing.T) {
	clk := NewSim(epoch)
	var it Interrupter
	var completed bool
	clk.Go(func() { completed = it.Sleep(clk, 5*time.Second) })
	clk.Wait()
	if !completed {
		t.Fatal("uninterrupted sleep reported cancellation")
	}
	if !clk.Now().Equal(epoch.Add(5 * time.Second)) {
		t.Fatalf("woke at %v", clk.Now())
	}
}

func TestInterrupterCancelCutsSleepShort(t *testing.T) {
	clk := NewSim(epoch)
	var it Interrupter
	var completed bool
	var at time.Time
	// Book the Cancel before the spawn: a driver that is not an actor
	// gets no ordering against the actors it has already spawned.
	clk.AfterFunc(3*time.Second, it.Cancel)
	clk.Go(func() {
		completed = it.Sleep(clk, time.Hour)
		at = clk.Now()
	})
	clk.Wait()
	if completed {
		t.Fatal("cancelled sleep reported completion")
	}
	if !at.Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("woke at %v, want epoch+3s", at)
	}
}

func TestInterrupterCancelBeforeSleep(t *testing.T) {
	clk := NewSim(epoch)
	var it Interrupter
	it.Cancel()
	var completed bool
	clk.Go(func() { completed = it.Sleep(clk, time.Hour) })
	clk.Wait()
	if completed {
		t.Fatal("sleep after cancel completed")
	}
	if !clk.Now().Equal(epoch) {
		t.Fatal("pre-cancelled sleep consumed virtual time")
	}
}

func TestInterrupterMultipleSleepers(t *testing.T) {
	clk := NewSim(epoch)
	var it Interrupter
	results := make([]bool, 5)
	clk.AfterFunc(time.Second, it.Cancel) // booked first, as above
	for k := 0; k < 5; k++ {
		k := k
		clk.Go(func() { results[k] = it.Sleep(clk, time.Hour) })
	}
	clk.Wait()
	for k, r := range results {
		if r {
			t.Fatalf("sleeper %d not interrupted", k)
		}
	}
}

// wakerCount reports the wakers the Interrupter's Cond lists.
func (i *Interrupter) wakerCount() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return len(i.c.waiters)
}

// TestInterrupterFinishedSleepsLeaveNoWaker is the waker-leak
// regression: a sleep that ends on its timer must drop its own wake
// entry, or a heartbeat loop's Interrupter grows by one per beat until
// Cancel.
func TestInterrupterFinishedSleepsLeaveNoWaker(t *testing.T) {
	clk := NewSim(epoch)
	var it Interrupter
	const sleeps = 100
	clk.Go(func() {
		for k := 0; k < sleeps; k++ {
			if !it.Sleep(clk, time.Second) {
				t.Errorf("sleep %d reported cancellation", k)
			}
		}
	})
	clk.Wait()
	if n := it.wakerCount(); n != 0 {
		t.Fatalf("%d wakers left after %d finished sleeps, want 0", n, sleeps)
	}
	if !clk.Now().Equal(epoch.Add(sleeps * time.Second)) {
		t.Fatalf("finished at %v", clk.Now())
	}
}

// wakeRecorder is a Sim that keeps every waker a Cond files with it, so
// a test can wake one after its park is over.
type wakeRecorder struct {
	*Sim
	wakes []waker
}

func (r *wakeRecorder) suspend(c *Cond) {
	r.Sim.park(func(w waker) {
		r.wakes = append(r.wakes, w)
		c.file(w)
	})
}

// TestInterrupterStaleWakeAfterTimer: once a sleep's timer has woken it,
// neither a Cancel nor that sleep's own waker may end the actor's
// next park, which runs on the same reused parker.
func TestInterrupterStaleWakeAfterTimer(t *testing.T) {
	clk := &wakeRecorder{Sim: NewSim(epoch)}
	var it Interrupter
	var first bool
	var woke time.Time
	clk.AfterFunc(5*time.Second, func() {
		it.Cancel()
		for _, w := range clk.wakes {
			w.wake()
		}
	})
	clk.Go(func() {
		first = it.Sleep(clk, time.Second)
		clk.Sleep(10 * time.Second)
		woke = clk.Now()
	})
	clk.Wait()
	if !first {
		t.Fatal("first sleep reported cancellation")
	}
	if len(clk.wakes) != 1 {
		t.Fatalf("recorded %d wakes, want the first sleep's 1", len(clk.wakes))
	}
	if !woke.Equal(epoch.Add(11 * time.Second)) {
		t.Fatalf("second park ended at %v, want epoch+11s", woke)
	}
	if it.Sleep(clk, time.Hour) {
		t.Fatal("sleep after Cancel completed")
	}
}
