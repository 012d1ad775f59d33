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
	"slices"
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
	clk  simtime.Clock
	park func(wake func()) // Recv's publish func, bound once

	mu      sync.Mutex
	q       Ring[T]
	waiters []waiter
	spare   []waiter // a drained, cleared waiter array for the next park
	wseq    uint64
	closed  bool
}

// NewMailbox returns an empty mailbox bound to clk.
func NewMailbox[T any](clk simtime.Clock) *Mailbox[T] {
	m := &Mailbox[T]{clk: clk}
	m.park = func(wake func()) { m.register(wake) }
	return m
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
	w := m.takeWaitersLocked()
	m.mu.Unlock()
	m.wakeAll(w)
}

// Close marks the mailbox closed. Blocked receivers return ErrClosed once
// the queue drains.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	m.closed = true
	w := m.takeWaitersLocked()
	m.mu.Unlock()
	m.wakeAll(w)
}

// takeWaitersLocked detaches the registered waiters, if there are any.
func (m *Mailbox[T]) takeWaitersLocked() []waiter {
	if len(m.waiters) == 0 {
		return nil
	}
	w := m.waiters
	m.waiters = nil
	return w
}

// wakeAll calls every waiter in w, then hands the array back, cleared,
// as the spare the next park appends to.
func (m *Mailbox[T]) wakeAll(w []waiter) {
	if w == nil {
		return
	}
	for _, wt := range w {
		wt.wake()
	}
	clear(w)
	m.mu.Lock()
	if m.spare == nil {
		m.spare = w[:0]
	}
	m.mu.Unlock()
}

// register files wake for the next Put or Close, or calls it at once if
// an item or the close is already there. It reports the entry's sequence
// number and whether it was filed.
func (m *Mailbox[T]) register(wake func()) (uint64, bool) {
	m.mu.Lock()
	if m.q.Len() > 0 || m.closed {
		m.mu.Unlock()
		wake()
		return 0, false
	}
	if m.waiters == nil {
		m.waiters, m.spare = m.spare, nil
	}
	seq := m.wseq
	m.wseq++
	m.waiters = append(m.waiters, waiter{seq: seq, wake: wake})
	m.mu.Unlock()
	return seq, true
}

// dropWaiter removes the entry registered under seq, if a Put or Close
// has not already consumed the whole list.
func (m *Mailbox[T]) dropWaiter(seq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, wt := range m.waiters {
		if wt.seq == seq {
			m.waiters = slices.Delete(m.waiters, i, i+1)
			return
		}
	}
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
		m.clk.Suspend(m.park)
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
		// One struct for what the publish func sets, so it escapes as
		// one object rather than one per variable.
		var st struct {
			tm         simtime.Timer
			seq        uint64
			registered bool
		}
		m.clk.Suspend(func(wake func()) {
			if st.seq, st.registered = m.register(wake); st.registered {
				st.tm = m.clk.AfterFunc(remaining, wake)
			}
		})
		if st.tm != nil {
			st.tm.Stop()
		}
		if st.registered {
			// Whatever woke us, this wake closure is spent: if the timer
			// fired (or a Put raced the registration), the entry is still
			// on the list and would pile up across repeated timeouts.
			m.dropWaiter(st.seq)
		}
	}
}
