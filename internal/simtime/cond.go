package simtime

import (
	"slices"
	"sync"
	"time"
)

// Cond is a condition variable over a Clock: the one way an actor blocks
// on state other actors or events change. A waiter holds L, checks its
// condition, and calls Wait or WaitFor in a loop; whoever changes the
// state does so under L and calls Broadcast. Waiting parks through the
// clock, so under Sim a blocked waiter lets virtual time advance.
//
// Cond holds the only waiter list in the kernel. Its zero value, once L
// is set, is ready to use; it must not be copied after first use.
type Cond struct {
	L *sync.Mutex

	waiters []condWaiter
	first   [1]condWaiter // waiters' first array, all a lone waiter needs
	seq     uint64        // the number the next waiter files under

	// The park being filed: wait sets them under L, and the clock's
	// suspend hands the park's waker to file, still under L.
	clk Clock
	d   time.Duration // < 0: untimed
}

// condWaiter is one parked waiter: its waker and, for a timed wait, the
// timer booked on it. seq lets a timed wait find its own entry.
type condWaiter struct {
	seq uint64
	w   waker
	tm  Timer
}

// Wait releases L, blocks until a Broadcast, and takes L again before
// it returns. The caller holds L.
func (c *Cond) Wait(clk Clock) { c.wait(clk, -1) }

// WaitFor is Wait that also returns once d has passed on clk. It does
// not say which came first: the caller checks its condition and the
// time, as it would after Wait.
func (c *Cond) WaitFor(clk Clock, d time.Duration) { c.wait(clk, max(d, 0)) }

func (c *Cond) wait(clk Clock, d time.Duration) {
	c.clk, c.d = clk, d
	seq := c.seq
	clk.suspend(c)
	c.L.Lock()
	if d < 0 {
		return // only Broadcast ends an untimed wait, and it took the entry
	}
	// A timed wait whose timer ended it is still listed, and its waker is
	// spent: drop the entry, or it piles up across repeated timeouts.
	for k, e := range c.waiters {
		if e.seq == seq {
			c.waiters = slices.Delete(c.waiters, k, k+1)
			return
		}
	}
}

// file is the park's publish step, run by the clock's suspend with the
// park's waker while the waiter still holds L: it lists w, books the
// timer of a timed wait on it, and releases L.
func (c *Cond) file(w waker) {
	e := condWaiter{seq: c.seq, w: w}
	c.seq++
	if c.d >= 0 {
		e.tm = c.clk.wakeAfter(c.d, w)
	}
	if c.waiters == nil {
		c.waiters = c.first[:0]
	}
	c.waiters = append(c.waiters, e)
	c.L.Unlock()
}

// Broadcast wakes every waiter, in the order they parked, and stops
// their timers. The caller holds L.
func (c *Cond) Broadcast() {
	for _, e := range c.waiters {
		e.tm.Stop()
		e.w.wake()
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}
