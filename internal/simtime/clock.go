// Package simtime provides the virtual-time kernel used by every simulated
// component in the OddCI reproduction.
//
// Components are written against the Clock interface and never touch the
// time package directly. Two implementations exist:
//
//   - Real: thin wrapper over the time package, for wall-clock demos.
//   - Sim: a deterministic discrete-event clock. Goroutines spawned with
//     Go participate in a runnable-count protocol: virtual time only
//     advances when every participating goroutine is blocked in a clock
//     primitive (Sim.Sleep, or a Cond's Wait or WaitFor), at which point
//     the earliest pending timer fires. This yields deterministic,
//     faster-than-real-time execution of unmodified concurrent component
//     code.
//
// The Sim clock doubles as a plain discrete-event engine: with zero
// participating goroutines, scheduling work with AfterFunc and calling
// Wait runs a classic single-threaded event loop, which is how the
// large-N experiment models in internal/sim execute.
package simtime

import (
	"sync"
	"sync/atomic"
	"time"
)

// Timer is a handle to a pending AfterFunc booking, or to the timer of a
// Cond's timed wait. It is a small comparable value; the zero Timer
// means "no timer", and its Stop reports false.
//
// Under Sim a Timer names its event and the generation the event had
// when it was booked. Sim recycles an event once it is popped, fired or
// stopped, and bumps its generation, so Stop through a handle held past
// that point reports false and leaves the event's later booking alone.
type Timer struct {
	ev  *event      // the Sim booking, or nil
	gen uint64      // ev's generation when booked
	rt  *time.Timer // the Real booking, or nil
}

// Stop cancels the timer. It reports whether the call prevented the
// callback from firing (false if it already fired or was stopped, or if
// t is the zero Timer).
func (t Timer) Stop() bool {
	switch {
	case t.rt != nil:
		return t.rt.Stop()
	case t.ev != nil:
		return t.ev.s.stop(t.ev, t.gen)
	}
	return false
}

// A waker resumes one park of an actor. It is a value naming the parker
// the actor blocks on and that parker's generation: once the actor has
// resumed, the generation moves on, and wake through a waker of the
// finished park does nothing, even while the same parker carries the
// actor's next park. The zero waker wakes nothing.
type waker struct {
	p   *parker
	gen uint64
}

// wake resumes the park w names. Only the first call has an effect; it
// may come from any goroutine, including from inside the publish step
// that was handed w.
func (w waker) wake() {
	switch {
	case w.p == nil:
	case w.p.s != nil:
		w.p.s.wake(w.p, w.gen)
	case w.p.woken.CompareAndSwap(false, true):
		w.p.wg.Done() // Real: the parker serves one park
	}
}

// A parker is what an actor blocks on while parked: the actor adds one
// to wg, waits on it, and the park's one effective wake marks it done.
// Sim keeps idle parkers on a free list and bumps a parker's generation
// each time its actor resumes; Real makes one per park.
type parker struct {
	s     *Sim // the clock whose runnable count a wake raises; nil under Real
	wg    sync.WaitGroup
	gen   uint64      // under Sim, guarded by s.mu
	woken atomic.Bool // under Sim, also guarded by s.mu
}

// Clock abstracts the flow of time for simulated components.
//
// Rules for code running under a Sim clock:
//
//   - Every long-lived goroutine must be spawned through Go, never the go
//     statement, so the clock can account for it.
//   - Goroutines must block only through Sim.Sleep or a Cond (netsim's
//     mailboxes and Interrupter wait on one). Blocking on anything else
//     stalls virtual time and is reported as a deadlock.
//   - AfterFunc callbacks run on the clock's event loop and must not
//     block; they should do bounded work (deliver a message, Broadcast a
//     Cond, schedule more events).
//
// Sim and Real are the only implementations: the unexported methods are
// the kernel's own park protocol, which Cond drives.
type Clock interface {
	// Now returns the current (virtual or wall) time.
	Now() time.Time

	// AfterFunc schedules fn to run once, d from now.
	AfterFunc(d time.Duration, fn func()) Timer

	// Go spawns a participating goroutine running fn.
	Go(fn func())

	// Wait blocks until the system is quiescent: all goroutines spawned
	// with Go have returned and (for the Sim clock) no pending events
	// remain that could wake anything.
	Wait()

	// suspend parks the calling actor, which holds c.L, until the waker
	// of the park is woken. It hands the waker to c.file, which files it
	// and releases c.L, before the actor blocks; under Sim, time does not
	// advance until file has returned.
	suspend(c *Cond)

	// wakeAfter schedules w.wake to run once, d from now. It books what
	// AfterFunc(d, w.wake) would, without the closure the method value
	// costs, so a timed park allocates nothing under Sim.
	wakeAfter(d time.Duration, w waker) Timer
}
