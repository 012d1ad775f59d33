package netsim

import (
	"errors"
	"testing"
	"time"

	"oddci/internal/simtime"
)

// TestMailboxRecvTimeoutNoWaiterLeak is the stale-waiter regression: a
// receiver that repeatedly times out on an idle mailbox must not grow
// the waiter list — before the fix every timeout left its spent wake
// closure registered until the next Put.
func TestMailboxRecvTimeoutNoWaiterLeak(t *testing.T) {
	clk := simtime.NewSim(epoch)
	m := NewMailbox[*int](clk)
	const rounds = 64
	clk.Go(func() {
		for i := 0; i < rounds; i++ {
			if _, err := m.RecvTimeout(time.Second); !errors.Is(err, ErrTimeout) {
				t.Errorf("round %d: err = %v, want ErrTimeout", i, err)
			}
		}
	})
	clk.Wait()
	if n := m.waiterCount(); n != 0 {
		t.Fatalf("%d stale waiters after %d timeouts, want 0", n, rounds)
	}
}

// TestMailboxTimeoutsInterleavedWithDeliveries mixes timed-out and
// successful receives (including two concurrent receivers) and asserts
// both delivery correctness and a clean waiter list afterwards.
func TestMailboxTimeoutsInterleavedWithDeliveries(t *testing.T) {
	clk := simtime.NewSim(epoch)
	m := NewMailbox[int](clk)
	got := make(chan int, 16)
	recv := func() {
		deliveries := 0
		for deliveries < 2 {
			v, err := m.RecvTimeout(3 * time.Second)
			switch {
			case err == nil:
				got <- v
				deliveries++
			case errors.Is(err, ErrTimeout):
				// Idle stretch: keep polling, as the PNA poll loops do.
			default:
				t.Errorf("unexpected error: %v", err)
				return
			}
		}
	}
	clk.Go(recv)
	clk.Go(recv)
	for i := 0; i < 4; i++ {
		v := i
		clk.AfterFunc(time.Duration(7*(i+1))*time.Second, func() { m.Put(v) })
	}
	clk.Wait()
	close(got)
	var sum, n int
	for v := range got {
		sum += v
		n++
	}
	if n != 4 || sum != 0+1+2+3 {
		t.Fatalf("delivered %d items (sum %d), want all 4", n, sum)
	}
	if w := m.waiterCount(); w != 0 {
		t.Fatalf("%d stale waiters after mixed timeouts/deliveries, want 0", w)
	}
}

// TestMailboxRecvTimeoutZeroAfterClose: closing with timed-out receivers
// around must not strand waiters either.
func TestMailboxRecvTimeoutZeroAfterClose(t *testing.T) {
	clk := simtime.NewSim(epoch)
	m := NewMailbox[int](clk)
	// Book the close before the actor exists: once it parks, the clock
	// may advance before this goroutine books anything more.
	clk.AfterFunc(2*time.Second, m.Close)
	clk.Go(func() {
		if _, err := m.RecvTimeout(time.Second); !errors.Is(err, ErrTimeout) {
			t.Errorf("first recv: %v, want ErrTimeout", err)
		}
		if _, err := m.RecvTimeout(10 * time.Second); !errors.Is(err, ErrClosed) {
			t.Errorf("second recv: %v, want ErrClosed", err)
		}
	})
	clk.Wait()
	if w := m.waiterCount(); w != 0 {
		t.Fatalf("%d stale waiters after close, want 0", w)
	}
}

// lateTimers is a Sim whose timers cannot be stopped, as on a wall clock
// where the timer fires while the receiver it woke is still resuming.
type lateTimers struct{ *simtime.Sim }

type unstoppable struct{}

func (unstoppable) Stop() bool { return false }

func (c lateTimers) AfterFunc(d time.Duration, fn func()) simtime.Timer {
	c.Sim.AfterFunc(d, fn)
	return unstoppable{}
}

// TestMailboxTimeoutTimerAfterPut: a RecvTimeout that a Put ended leaves
// its timer behind; when it fires, the receiver is parked in a Sleep on
// the same reused parker, which must run its full length.
func TestMailboxTimeoutTimerAfterPut(t *testing.T) {
	sim := simtime.NewSim(epoch)
	m := NewMailbox[int](lateTimers{sim})
	var woke time.Time
	sim.AfterFunc(time.Second, func() { m.Put(7) })
	sim.Go(func() {
		if v, err := m.RecvTimeout(5 * time.Second); err != nil || v != 7 {
			t.Errorf("RecvTimeout = %d, %v, want 7", v, err)
		}
		sim.Sleep(10 * time.Second) // the stale timer fires at epoch+6s
		woke = sim.Now()
	})
	sim.Wait()
	if !woke.Equal(epoch.Add(11 * time.Second)) {
		t.Fatalf("Sleep ended at %v, want epoch+11s", woke)
	}
	if n := m.waiterCount(); n != 0 {
		t.Fatalf("%d stale waiters, want 0", n)
	}
}
