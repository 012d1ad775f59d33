package simtime

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// Each Cond test runs one scenario on Sim, in units of a second, and on
// Real, in units of a few milliseconds: the rule the scenario holds is
// the clock's as much as the Cond's, and Real resolves the races Sim
// orders. A scenario books what must come after a wait from the actor
// itself, so a Real actor that starts late cannot miss its order.

const realUnit = 2 * time.Millisecond

var (
	errTimeout = errors.New("timeout")
	errClosed  = errors.New("closed")
)

// condQueue is the shape every Cond user has, netsim's mailbox among
// them: state under L, changed with a Broadcast, and a receive that
// waits for it in a loop with a deadline.
type condQueue struct {
	mu     sync.Mutex
	c      Cond
	q      []int
	closed bool
}

func newCondQueue() *condQueue {
	q := &condQueue{}
	q.c.L = &q.mu
	return q
}

func (q *condQueue) put(v int) {
	q.mu.Lock()
	q.putLocked(v)
	q.mu.Unlock()
}

func (q *condQueue) putLocked(v int) {
	q.q = append(q.q, v)
	q.c.Broadcast()
}

func (q *condQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.c.Broadcast()
	q.mu.Unlock()
}

// recv waits on clk up to d for an item.
func (q *condQueue) recv(clk Clock, d time.Duration) (int, error) {
	deadline := clk.Now().Add(d)
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.q) == 0 && !q.closed {
		remaining := deadline.Sub(clk.Now())
		if remaining <= 0 {
			return 0, errTimeout
		}
		q.c.WaitFor(clk, remaining)
	}
	if len(q.q) == 0 {
		return 0, errClosed
	}
	v := q.q[0]
	q.q = q.q[1:]
	return v, nil
}

// entries reports the wakers q's Cond lists.
func (q *condQueue) entries() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.c.waiters)
}

// timedOutWaitsLeaveNoEntry: a waiter that times out again and again on
// an idle Cond leaves nothing listed: without the rule that a timed wait
// drops its own spent entry, each timeout would leave one until the next
// Broadcast.
func timedOutWaitsLeaveNoEntry(t *testing.T, clk Clock, unit time.Duration) {
	q := newCondQueue()
	const rounds = 64
	clk.Go(func() {
		for k := 0; k < rounds; k++ {
			if _, err := q.recv(clk, unit); err != errTimeout {
				t.Errorf("round %d: %v, want a timeout", k, err)
			}
		}
	})
	clk.Wait()
	if n := q.entries(); n != 0 {
		t.Fatalf("%d entries left after %d timed-out waits, want 0", n, rounds)
	}
}

func TestCondTimedOutWaitsLeaveNoEntry(t *testing.T) {
	timedOutWaitsLeaveNoEntry(t, NewSim(epoch), time.Second)
}

func TestRealCondTimedOutWaitsLeaveNoEntry(t *testing.T) {
	timedOutWaitsLeaveNoEntry(t, NewReal(), realUnit/4)
}

// timeoutsInterleaveWithBroadcasts: two waiters that time out between
// four puts get every item once, and leave nothing listed.
func timeoutsInterleaveWithBroadcasts(t *testing.T, clk Clock, unit time.Duration) {
	q := newCondQueue()
	var mu sync.Mutex
	var got []int
	recv := func() {
		for n := 0; n < 2; {
			v, err := q.recv(clk, 3*unit)
			switch err {
			case nil:
				mu.Lock()
				got = append(got, v)
				mu.Unlock()
				n++
			case errTimeout:
			default:
				t.Errorf("recv: %v", err)
				return
			}
		}
	}
	for k := 0; k < 4; k++ {
		clk.AfterFunc(time.Duration(7*(k+1))*unit, func() { q.put(k) })
	}
	clk.Go(recv)
	clk.Go(recv)
	clk.Wait()
	sum := 0
	for _, v := range got {
		sum += v
	}
	if len(got) != 4 || sum != 0+1+2+3 {
		t.Fatalf("received %v, want each of 0..3 once", got)
	}
	if n := q.entries(); n != 0 {
		t.Fatalf("%d entries left, want 0", n)
	}
}

func TestCondTimeoutsInterleaveWithBroadcasts(t *testing.T) {
	timeoutsInterleaveWithBroadcasts(t, NewSim(epoch), time.Second)
}

func TestRealCondTimeoutsInterleaveWithBroadcasts(t *testing.T) {
	timeoutsInterleaveWithBroadcasts(t, NewReal(), realUnit)
}

// broadcastAfterTimeoutLeavesNoEntry: a wait that times out, then one
// that a close or a put ends, leave nothing listed.
func broadcastAfterTimeoutLeavesNoEntry(t *testing.T, clk func() Clock, unit time.Duration) {
	for _, closing := range []bool{true, false} {
		clk := clk()
		q := newCondQueue()
		clk.Go(func() {
			if _, err := q.recv(clk, unit); err != errTimeout {
				t.Errorf("closing=%v: first recv: %v, want a timeout", closing, err)
			}
			clk.AfterFunc(unit, func() {
				if closing {
					q.close()
				} else {
					q.put(7)
				}
			})
			v, err := q.recv(clk, 10*unit)
			if closing && err != errClosed || !closing && (err != nil || v != 7) {
				t.Errorf("closing=%v: second recv = %d, %v", closing, v, err)
			}
		})
		clk.Wait()
		if n := q.entries(); n != 0 {
			t.Fatalf("closing=%v: %d entries left, want 0", closing, n)
		}
	}
}

func TestCondBroadcastAfterTimeoutLeavesNoEntry(t *testing.T) {
	broadcastAfterTimeoutLeavesNoEntry(t, func() Clock { return NewSim(epoch) }, time.Second)
}

func TestRealCondBroadcastAfterTimeoutLeavesNoEntry(t *testing.T) {
	broadcastAfterTimeoutLeavesNoEntry(t, func() Clock { return NewReal() }, realUnit)
}

// lateTimers is a clock whose wait timers cannot be stopped, as on a
// wall clock where the timer fires while the waiter it woke is still
// resuming: it books the timer and hands back the zero Timer, whose
// Stop does nothing.
type lateTimers struct{ Clock }

func (c lateTimers) wakeAfter(d time.Duration, w waker) Timer {
	c.Clock.wakeAfter(d, w)
	return Timer{}
}

// staleTimerEndsNothing: a wait that a Broadcast ended leaves its timer
// behind; when it fires, the waiter is in its next park, on the same
// reused parker under Sim, which must run its full length.
func staleTimerEndsNothing(t *testing.T, base Clock, unit time.Duration) {
	clk := lateTimers{base}
	q := newCondQueue()
	var next Interrupter
	var slept time.Duration
	clk.Go(func() {
		clk.AfterFunc(unit, func() { q.put(7) })
		if v, err := q.recv(clk, 5*unit); err != nil || v != 7 {
			t.Errorf("recv = %d, %v, want 7", v, err)
		}
		start := clk.Now()
		next.Sleep(clk, 10*unit) // the stale timer fires 4 units in
		slept = clk.Now().Sub(start)
	})
	clk.Wait()
	if slept < 10*unit {
		t.Fatalf("the next park ended after %v, want %v", slept, 10*unit)
	}
	if n := q.entries(); n != 0 {
		t.Fatalf("%d entries left, want 0", n)
	}
}

func TestCondStaleTimerEndsNothing(t *testing.T) {
	staleTimerEndsNothing(t, NewSim(epoch), time.Second)
}

func TestRealCondStaleTimerEndsNothing(t *testing.T) {
	staleTimerEndsNothing(t, NewReal(), realUnit)
}

// racedTimer is a clock whose wait timer, when it fires, also puts to q
// in the same event, before or after its wake: both reach the waiter's
// waker before it can resume and look for its entry.
type racedTimer struct {
	Clock
	q        *condQueue
	putFirst bool
}

func (c racedTimer) wakeAfter(d time.Duration, w waker) Timer {
	return c.AfterFunc(d, func() {
		c.q.mu.Lock()
		defer c.q.mu.Unlock()
		if c.putFirst {
			c.q.putLocked(7)
			w.wake()
			return
		}
		w.wake()
		c.q.putLocked(7)
	})
}

// TestCondTimerRacesBroadcast: a wait whose timer fires in the event
// that Broadcasts it is woken once: the waiter gets the item, its next
// park on the same reused parker runs its full length, and the clock's
// runnable count stays right (a second wake would let time run on while
// the actor is busy, or hang Wait).
func TestCondTimerRacesBroadcast(t *testing.T) {
	for _, putFirst := range []bool{false, true} {
		sim := NewSim(epoch)
		q := newCondQueue()
		clk := racedTimer{Clock: sim, q: q, putFirst: putFirst}
		var woke time.Time
		clk.Go(func() {
			if v, err := q.recv(clk, time.Second); err != nil || v != 7 {
				t.Errorf("putFirst=%v: recv = %d, %v, want 7", putFirst, v, err)
			}
			sim.Sleep(10 * time.Second)
			woke = sim.Now()
		})
		clk.Wait()
		if !woke.Equal(epoch.Add(11 * time.Second)) {
			t.Errorf("putFirst=%v: next park ended at %v, want epoch+11s", putFirst, woke)
		}
		if n := q.entries(); n != 0 {
			t.Errorf("putFirst=%v: %d entries left, want 0", putFirst, n)
		}
	}
}

// TestRealCondTimerRacesBroadcast: under Real the timer and a put race
// for real. Whichever wins, the loser's late wake must not end the
// waiter's next park, and nothing stays listed.
func TestRealCondTimerRacesBroadcast(t *testing.T) {
	clk := NewReal()
	const rounds = 20
	clk.Go(func() {
		for k := 0; k < rounds; k++ {
			q := newCondQueue()
			time.AfterFunc(realUnit/2, func() { q.put(7) })
			q.recv(clk, realUnit/2)
			if n := q.entries(); n != 0 {
				t.Errorf("round %d: %d entries left, want 0", k, n)
			}
			var next Interrupter
			start := time.Now()
			next.Sleep(clk, realUnit)
			if el := time.Since(start); el < realUnit {
				t.Errorf("round %d: next park ended after %v, want >= %v", k, el, realUnit)
			}
		}
	})
	clk.Wait()
}

// timerRecorder is a clock that keeps the timer of every wait.
type timerRecorder struct {
	Clock
	mu  sync.Mutex
	tms []Timer
}

func (c *timerRecorder) wakeAfter(d time.Duration, w waker) Timer {
	tm := c.Clock.wakeAfter(d, w)
	c.mu.Lock()
	c.tms = append(c.tms, tm)
	c.mu.Unlock()
	return tm
}

// broadcastStopsTimer: a WaitFor that a Broadcast ends leaves no live
// timer: Stop on it reports false, and under Sim, Wait returns at the
// Broadcast's instant rather than running on to the timer's.
func broadcastStopsTimer(t *testing.T, base Clock, unit time.Duration) {
	clk := &timerRecorder{Clock: base}
	q := newCondQueue()
	clk.Go(func() {
		clk.AfterFunc(unit, func() { q.put(7) })
		if v, err := q.recv(clk, time.Hour); err != nil || v != 7 {
			t.Errorf("recv = %d, %v, want 7", v, err)
		}
		clk.mu.Lock()
		defer clk.mu.Unlock()
		if len(clk.tms) != 1 {
			t.Errorf("%d wait timers booked, want 1", len(clk.tms))
		}
		for _, tm := range clk.tms {
			if tm.Stop() {
				t.Error("the Broadcast left the wait's timer live")
			}
		}
	})
	clk.Wait()
	if sim, ok := base.(*Sim); ok && !sim.Now().Equal(epoch.Add(unit)) {
		t.Fatalf("Wait returned at %v, want the Broadcast's epoch+%v", sim.Now(), unit)
	}
}

func TestCondBroadcastStopsTimer(t *testing.T) {
	broadcastStopsTimer(t, NewSim(epoch), time.Second)
}

func TestRealCondBroadcastStopsTimer(t *testing.T) {
	broadcastStopsTimer(t, NewReal(), realUnit)
}
