// Package netsim emulates the two communication fabrics of an OddCI
// system over virtual time: the one-to-many broadcast channel (capacity β)
// and the per-node full-duplex direct channels (capacity δ) that link each
// processing node to the Controller and the Backend.
//
// All pacing is expressed through simtime.Clock, so the same component
// code runs under the wall clock (demos) and the discrete-event clock
// (experiments) unchanged.
package netsim

import (
	"errors"
	"sync"
	"time"

	"oddci/internal/simtime"
)

// Errors returned by mailbox and endpoint receive operations.
var (
	ErrClosed  = errors.New("netsim: closed")
	ErrTimeout = errors.New("netsim: timeout")
)

// mailbox is a clock-aware unbounded FIFO queue of packets, an
// endpoint's receive side. Senders never block; receivers wait on a
// simtime.Cond, so blocking receives participate correctly in
// virtual-time advancement. init must run before first use.
type mailbox struct {
	clk simtime.Clock

	mu     sync.Mutex
	c      simtime.Cond // on mu; broadcast on every Put and on Close
	q      Ring[Packet]
	closed bool
}

// init binds m to clk.
func (m *mailbox) init(clk simtime.Clock) {
	m.clk = clk
	m.c.L = &m.mu
}

// Put enqueues p and wakes any blocked receivers. Put on a closed mailbox
// drops p silently (the network delivered to a torn-down endpoint).
func (m *mailbox) Put(p Packet) {
	m.mu.Lock()
	if !m.closed {
		m.q.PushBack(p)
		m.c.Broadcast()
	}
	m.mu.Unlock()
}

// Close marks the mailbox closed. Blocked receivers return ErrClosed once
// the queue drains.
func (m *mailbox) Close() {
	m.mu.Lock()
	m.closed = true
	m.c.Broadcast()
	m.mu.Unlock()
}

// Recv blocks until a packet is available or the mailbox is closed and
// drained.
func (m *mailbox) Recv() (Packet, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.q.Len() == 0 && !m.closed {
		m.c.Wait(m.clk)
	}
	return m.popLocked()
}

// RecvTimeout behaves like Recv but gives up after d, returning
// ErrTimeout.
func (m *mailbox) RecvTimeout(d time.Duration) (Packet, error) {
	deadline := m.clk.Now().Add(d)
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.q.Len() == 0 && !m.closed {
		remaining := deadline.Sub(m.clk.Now())
		if remaining <= 0 {
			return Packet{}, ErrTimeout
		}
		m.c.WaitFor(m.clk, remaining)
	}
	return m.popLocked()
}

// popLocked takes the oldest packet, or reports ErrClosed if the wait
// before it ended on the close.
func (m *mailbox) popLocked() (Packet, error) {
	if p, ok := m.q.PopFront(); ok {
		return p, nil
	}
	return Packet{}, ErrClosed
}
