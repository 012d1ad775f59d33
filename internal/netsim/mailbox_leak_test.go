package netsim

import (
	"errors"
	"testing"
	"time"

	"oddci/internal/simtime"
)

// The mailbox's receivers wait on a simtime.Cond, whose tests hold the
// park itself: no entry left by a timed-out wait, a stale timer or a
// raced one ending nothing later. These hold what a receiver sees.

// TestMailboxRecvTimeoutNoWaiterLeak: a receiver that repeatedly times
// out on an idle mailbox gets ErrTimeout each time, d apart.
func TestMailboxRecvTimeoutNoWaiterLeak(t *testing.T) {
	clk := simtime.NewSim(epoch)
	m := newMailbox(clk)
	const rounds = 64
	clk.Go(func() {
		for i := 0; i < rounds; i++ {
			if _, err := m.RecvTimeout(time.Second); !errors.Is(err, ErrTimeout) {
				t.Errorf("round %d: err = %v, want ErrTimeout", i, err)
			}
		}
	})
	clk.Wait()
	if !clk.Now().Equal(epoch.Add(rounds * time.Second)) {
		t.Fatalf("%d timeouts ended at %v, want epoch+%ds", rounds, clk.Now(), rounds)
	}
}

// TestMailboxTimeoutsInterleavedWithDeliveries mixes timed-out and
// successful receives from two concurrent receivers: every packet is
// delivered once.
func TestMailboxTimeoutsInterleavedWithDeliveries(t *testing.T) {
	clk := simtime.NewSim(epoch)
	m := newMailbox(clk)
	got := make(chan int, 16)
	recv := func() {
		deliveries := 0
		for deliveries < 2 {
			p, err := m.RecvTimeout(3 * time.Second)
			switch {
			case err == nil:
				got <- p.Payload.(int)
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
		clk.AfterFunc(time.Duration(7*(i+1))*time.Second, func() { m.Put(Packet{Payload: v}) })
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
}

// TestMailboxRecvTimeoutZeroAfterClose: a Close that comes while a
// timed receive waits ends it with ErrClosed, at the close.
func TestMailboxRecvTimeoutZeroAfterClose(t *testing.T) {
	clk := simtime.NewSim(epoch)
	m := newMailbox(clk)
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
	if !clk.Now().Equal(epoch.Add(2 * time.Second)) {
		t.Fatalf("closed receive left the clock at %v, want epoch+2s", clk.Now())
	}
}

// TestMailboxTimeoutTimerAfterPut: a RecvTimeout that a Put ended
// returns the packet, and the receiver's next park, a Sleep on the same
// reused parker, runs its full length.
func TestMailboxTimeoutTimerAfterPut(t *testing.T) {
	sim := simtime.NewSim(epoch)
	m := newMailbox(sim)
	var woke time.Time
	sim.AfterFunc(time.Second, func() { m.Put(Packet{Payload: 7}) })
	sim.Go(func() {
		if p, err := m.RecvTimeout(5 * time.Second); err != nil || p.Payload != 7 {
			t.Errorf("RecvTimeout = %v, %v, want 7", p.Payload, err)
		}
		sim.Sleep(10 * time.Second)
		woke = sim.Now()
	})
	sim.Wait()
	if !woke.Equal(epoch.Add(11 * time.Second)) {
		t.Fatalf("Sleep ended at %v, want epoch+11s", woke)
	}
}
