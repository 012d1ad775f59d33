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

// WakeAfter implements Clock.
func (r *Real) WakeAfter(d time.Duration, w Waker) Timer {
	return Timer{rt: time.AfterFunc(d, w.Wake)}
}

// Go implements Clock.
func (r *Real) Go(fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn()
	}()
}

// Suspend implements Clock. Each park gets a parker of its own, so a
// late Wake, say from a timer that fired as its sleep was cancelled,
// lands on a parker nobody waits on again.
func (r *Real) Suspend(publish func(Waker)) {
	p := &parker{}
	p.wg.Add(1)
	publish(Waker{p: p})
	p.wg.Wait()
}

// Wait implements Clock.
func (r *Real) Wait() { r.wg.Wait() }
