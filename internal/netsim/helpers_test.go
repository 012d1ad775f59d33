package netsim

import (
	"time"

	"oddci/internal/simtime"
)

// recvAll receives n packets from dst in an actor and runs the clock to
// quiescence. It returns the packets and the virtual time each arrived.
func recvAll(clk *simtime.Sim, dst *mailbox, n int) ([]Packet, []time.Time) {
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

// newMailbox returns an empty mailbox bound to clk, outside an Endpoint.
func newMailbox(clk simtime.Clock) *mailbox {
	m := &mailbox{}
	m.init(clk)
	return m
}

// Test-only views of a mailbox's and a ring's state.

// len reports the number of queued packets.
func (m *mailbox) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.q.Len()
}

// tryRecv dequeues without blocking.
func (m *mailbox) tryRecv() (Packet, bool) {
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
