package netsim

import (
	"time"

	"oddci/internal/simtime"
)

// recvAll receives n packets from dst in an actor and runs the clock to
// quiescence. It returns the packets and the virtual time each arrived.
func recvAll(clk *simtime.Sim, dst *Mailbox[Packet], n int) ([]Packet, []time.Time) {
	var ps []Packet
	var at []time.Time
	clk.Go(func() {
		for range n {
			p, err := dst.Recv()
			if err != nil {
				return
			}
			ps = append(ps, p)
			at = append(at, clk.Now())
		}
	})
	clk.Wait()
	return ps, at
}

// Test-only views of a mailbox's and a ring's state.

// len reports the number of queued items.
func (m *Mailbox[T]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.q.Len()
}

// waiterCount reports the registered Wakers; the leak regression
// tests assert it returns to zero after timed-out receives.
func (m *Mailbox[T]) waiterCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

// tryRecv dequeues without blocking.
func (m *Mailbox[T]) tryRecv() (T, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.q.PopFront()
}

// peek returns the oldest item without removing it.
func (r *Ring[T]) peek() (T, bool) {
	if r.n == 0 {
		var zero T
		return zero, false
	}
	return r.buf[r.head], true
}
