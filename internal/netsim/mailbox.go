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

// waiter is one registered wake callback. The sequence number lets a
// timed-out receiver deregister its own spent closure: wake closures are
// single-shot, so an entry whose wake already fired is dead weight that
// would otherwise accumulate until the next Put.
type waiter struct {
	seq  uint64
	wake func()
}

// Mailbox is a clock-aware unbounded FIFO queue. Senders never block;
// receivers block through the clock's Suspend primitive, so blocking
// receives participate correctly in virtual-time advancement.
type Mailbox[T any] struct {
	clk simtime.Clock

	mu      sync.Mutex
	q       Ring[T]
	waiters []waiter
	wseq    uint64
	closed  bool
}

// NewMailbox returns an empty mailbox bound to clk.
func NewMailbox[T any](clk simtime.Clock) *Mailbox[T] {
	return &Mailbox[T]{clk: clk}
}

// Put enqueues v and wakes any blocked receivers. Put on a closed mailbox
// drops v silently (the network delivered to a torn-down endpoint).
func (m *Mailbox[T]) Put(v T) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.q.PushBack(v)
	w := m.waiters
	m.waiters = nil
	m.mu.Unlock()
	for _, wt := range w {
		wt.wake()
	}
}

// Close marks the mailbox closed. Blocked receivers return ErrClosed once
// the queue drains.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	m.closed = true
	w := m.waiters
	m.waiters = nil
	m.mu.Unlock()
	for _, wt := range w {
		wt.wake()
	}
}

// Len reports the number of queued items.
func (m *Mailbox[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.q.Len()
}

// waiterCount reports the registered wake closures; the leak regression
// tests assert it returns to zero after timed-out receives.
func (m *Mailbox[T]) waiterCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

// dropWaiter removes the entry registered under seq, if a Put or Close
// has not already consumed the whole list.
func (m *Mailbox[T]) dropWaiter(seq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, wt := range m.waiters {
		if wt.seq == seq {
			m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
			return
		}
	}
}

// tryRecv dequeues without blocking.
func (m *Mailbox[T]) tryRecv() (T, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.q.PopFront()
}

// Recv blocks until an item is available or the mailbox is closed and
// drained.
func (m *Mailbox[T]) Recv() (T, error) {
	for {
		m.mu.Lock()
		if v, ok := m.q.PopFront(); ok {
			m.mu.Unlock()
			return v, nil
		}
		if m.closed {
			m.mu.Unlock()
			var zero T
			return zero, ErrClosed
		}
		m.mu.Unlock()
		m.clk.Suspend(func(wake func()) {
			m.mu.Lock()
			if m.q.Len() > 0 || m.closed {
				m.mu.Unlock()
				wake()
				return
			}
			m.waiters = append(m.waiters, waiter{seq: m.wseq, wake: wake})
			m.wseq++
			m.mu.Unlock()
		})
	}
}

// RecvTimeout behaves like Recv but gives up after d, returning
// ErrTimeout.
func (m *Mailbox[T]) RecvTimeout(d time.Duration) (T, error) {
	deadline := m.clk.Now().Add(d)
	for {
		m.mu.Lock()
		if v, ok := m.q.PopFront(); ok {
			m.mu.Unlock()
			return v, nil
		}
		if m.closed {
			m.mu.Unlock()
			var zero T
			return zero, ErrClosed
		}
		m.mu.Unlock()

		remaining := deadline.Sub(m.clk.Now())
		if remaining <= 0 {
			var zero T
			return zero, ErrTimeout
		}
		var tm simtime.Timer
		var seq uint64
		registered := false
		m.clk.Suspend(func(wake func()) {
			m.mu.Lock()
			if m.q.Len() > 0 || m.closed {
				m.mu.Unlock()
				wake()
				return
			}
			seq = m.wseq
			m.wseq++
			m.waiters = append(m.waiters, waiter{seq: seq, wake: wake})
			registered = true
			m.mu.Unlock()
			tm = m.clk.AfterFunc(remaining, wake)
		})
		if tm != nil {
			tm.Stop()
		}
		if registered {
			// Whatever woke us, this wake closure is spent: if the timer
			// fired (or a Put raced the registration), the entry is still
			// on the list and would pile up across repeated timeouts.
			m.dropWaiter(seq)
		}
	}
}
