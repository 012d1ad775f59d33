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

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }

// AfterFunc implements Clock.
func (r *Real) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{time.AfterFunc(d, fn)}
}

// Go implements Clock.
func (r *Real) Go(fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn()
	}()
}

// Suspend implements Clock.
func (r *Real) Suspend(publish func(wake func())) {
	ch := make(chan struct{})
	var once sync.Once
	publish(func() { once.Do(func() { close(ch) }) })
	<-ch
}

// Wait implements Clock.
func (r *Real) Wait() { r.wg.Wait() }
