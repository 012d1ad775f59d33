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

// waiter is one registered receiver's Waker. The sequence number lets a
// timed-out receiver deregister its own spent entry: a Waker resumes one
// park only, so an entry whose park is over is dead weight that would
// otherwise accumulate until the next Put.
type waiter struct {
	seq uint64
	w   simtime.Waker
}

// Mailbox is a clock-aware unbounded FIFO queue. Senders never block;
// receivers block through the clock's Suspend primitive, so blocking
// receives participate correctly in virtual-time advancement.
type Mailbox[T any] struct {
	clk  simtime.Clock
	park func(simtime.Waker) // Recv's publish func, bound once

	mu      sync.Mutex
	q       Ring[T]
	waiters []waiter
	spare   []waiter      // a drained, cleared waiter array for the next park
	first   [1]waiter     // the first spare, all a lone receiver needs
	timed   *timedRecv[T] // the last finished RecvTimeout park, for the next to reuse
	wseq    uint64
	closed  bool
}

// timedRecv is the state of one RecvTimeout park, kept in one struct
// whose publish func is bound once, when the struct is made, so a timed
// receive builds no closure. Concurrent receivers each take their own.
type timedRecv[T any] struct {
	m          *Mailbox[T]
	d          time.Duration
	tm         simtime.Timer
	seq        uint64 // set, with tm, only if registered
	registered bool
	publish    func(simtime.Waker)
}

// NewMailbox returns an empty mailbox bound to clk.
func NewMailbox[T any](clk simtime.Clock) *Mailbox[T] {
	m := &Mailbox[T]{clk: clk}
	m.spare = m.first[:0]
	m.park = func(w simtime.Waker) { m.register(w) }
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

// wakeAll wakes every waiter in w, then hands the array back, cleared,
// as the spare the next park appends to.
func (m *Mailbox[T]) wakeAll(w []waiter) {
	if w == nil {
		return
	}
	for _, wt := range w {
		wt.w.Wake()
	}
	clear(w)
	m.mu.Lock()
	if m.spare == nil {
		m.spare = w[:0]
	}
	m.mu.Unlock()
}

// register files w for the next Put or Close, or wakes it at once if an
// item or the close is already there. It reports the entry's sequence
// number and whether it was filed.
func (m *Mailbox[T]) register(w simtime.Waker) (uint64, bool) {
	m.mu.Lock()
	if m.q.Len() > 0 || m.closed {
		m.mu.Unlock()
		w.Wake()
		return 0, false
	}
	if m.waiters == nil {
		m.waiters, m.spare = m.spare, nil
	}
	seq := m.wseq
	m.wseq++
	m.waiters = append(m.waiters, waiter{seq: seq, w: w})
	m.mu.Unlock()
	return seq, true
}

// dropWaiterLocked removes the entry registered under seq, if a Put or
// Close has not already consumed the whole list.
func (m *Mailbox[T]) dropWaiterLocked(seq uint64) {
	for i, wt := range m.waiters {
		if wt.seq == seq {
			m.waiters = slices.Delete(m.waiters, i, i+1)
			return
		}
	}
}

// park is a timed receive's publish func: it files w and books the
// timeout on it, unless an item or the close is already there.
func (r *timedRecv[T]) park(w simtime.Waker) {
	if r.seq, r.registered = r.m.register(w); r.registered {
		r.tm = r.m.clk.WakeAfter(r.d, w)
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
		m.mu.Lock()
		r := m.timed
		m.timed = nil
		m.mu.Unlock()
		if r == nil {
			r = &timedRecv[T]{m: m}
			r.publish = r.park
		}
		r.d = remaining
		m.clk.Suspend(r.publish)
		r.tm.Stop()
		m.mu.Lock()
		if r.registered {
			// Whatever woke us, this Waker is spent: if the timer fired
			// (or a Put raced the registration), the entry is still on
			// the list and would pile up across repeated timeouts.
			m.dropWaiterLocked(r.seq)
		}
		*r = timedRecv[T]{m: m, publish: r.publish}
		m.timed = r
		m.mu.Unlock()
	}
}
