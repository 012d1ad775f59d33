package simtime

import (
	"sync"
	"time"
)

// Real is the wall-clock implementation of Clock. Its zero value is ready
// to use.
type Real struct {
	wg sync.WaitGroup
}

// NewReal returns a wall-clock Clock.
func NewReal() *Real { return &Real{} }

// Now implements Clock.
func (r *Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (r *Real) AfterFunc(d time.Duration, fn func()) Timer {
	return Timer{rt: time.AfterFunc(d, fn)}
}

// wakeAfter implements Clock.
func (r *Real) wakeAfter(d time.Duration, w waker) Timer {
	return Timer{rt: time.AfterFunc(d, w.wake)}
}

// Go implements Clock.
func (r *Real) Go(fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn()
	}()
}

// suspend implements Clock. Each park gets a parker of its own, so a
// late wake, say from a timer that fired as a Broadcast woke its waiter,
// lands on a parker nobody waits on again.
func (r *Real) suspend(c *Cond) {
	p := &parker{}
	p.wg.Add(1)
	c.file(waker{p: p})
	p.wg.Wait()
}

// Wait implements Clock.
func (r *Real) Wait() { r.wg.Wait() }
