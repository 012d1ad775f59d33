// Package xlet models the JavaTV Xlet application contract used by DTV
// middleware (MHP, ACAP, Ginga): an application with the four lifecycle
// states Loaded, Paused, Started and Destroyed, driven by the receiver's
// application manager. The OddCI PNA is implemented as an Xlet so that
// the broadcast AUTOSTART signalling path is exercised end-to-end.
//
// Substitution note: real middleware loads Java bytecode from the
// carousel; here the carousel carries the code bytes (for transmission
// timing and signature verification) while behaviour comes from a Go
// factory registered with the application manager under the class-file
// name.
package xlet

import (
	"fmt"
	"time"

	"oddci/internal/simtime"
)

// State is an Xlet lifecycle state (JavaTV §6).
type State int

// Lifecycle states.
const (
	Loaded State = iota
	Paused
	Started
	Destroyed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Loaded:
		return "Loaded"
	case Paused:
		return "Paused"
	case Started:
		return "Started"
	case Destroyed:
		return "Destroyed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Context is the middleware-provided environment handed to an Xlet in
// initXlet, mirroring javax.tv.xlet.XletContext plus the carousel file
// access every DTV app uses.
type Context interface {
	// Clock is the receiver's notion of time.
	Clock() simtime.Clock
	// AppKey identifies the application (orgID<<16 | appID).
	AppKey() uint64
	// ReadFile requests a carousel file. fn runs when the object
	// carousel delivers it (possibly a full cycle later), or with err on
	// failure. data is the carousel's own staged bytes, shared with
	// every other receiver of that generation (middleware.ObjectCarousel
	// states the contract): read them, keep them as long as needed,
	// never write them.
	ReadFile(name string, fn func(data []byte, err error))
	// Go spawns a goroutine owned by the Xlet; the middleware tracks it
	// via the clock.
	Go(fn func())
	// NotifyDestroyed tells the application manager the Xlet terminated
	// on its own initiative.
	NotifyDestroyed()
	// After schedules fn on the receiver's timer wheel.
	After(d time.Duration, fn func()) simtime.Timer
	// OnCarouselUpdate registers fn to run whenever the object carousel
	// changes generation (new files on air) — how a resident application
	// notices fresh control messages. It returns a cancel function.
	OnCarouselUpdate(fn func()) (cancel func())
}

// Xlet is the application contract (javax.tv.xlet.Xlet).
type Xlet interface {
	// InitXlet prepares the Xlet; it moves Loaded → Paused.
	InitXlet(ctx Context) error
	// StartXlet begins or resumes service; Paused → Started.
	StartXlet() error
	// PauseXlet suspends service; Started → Paused.
	PauseXlet()
	// DestroyXlet terminates the Xlet; any state → Destroyed. If
	// unconditional is false the Xlet may refuse by returning an error.
	DestroyXlet(unconditional bool) error
}

// Factory builds fresh Xlet instances; registered with the application
// manager under a class-file name.
type Factory func() Xlet

// Lifecycle enforces the legal state transitions of Figure 4 in the
// paper (the JavaTV state diagram). The zero value is Loaded.
type Lifecycle struct {
	state State
}

// State returns the current state.
func (l *Lifecycle) State() State { return l.state }

// legal enumerates the permitted transitions.
func legal(from, to State) bool {
	switch {
	case from == Destroyed:
		return false // terminal: this instance can never be restarted
	case to == Destroyed:
		return true
	case from == Loaded && to == Paused:
		return true // initXlet
	case from == Paused && to == Started:
		return true // startXlet
	case from == Started && to == Paused:
		return true // pauseXlet
	default:
		return false
	}
}

// To performs the transition, or reports why it is illegal.
func (l *Lifecycle) To(to State) error {
	if !legal(l.state, to) {
		return fmt.Errorf("xlet: illegal transition %v → %v", l.state, to)
	}
	l.state = to
	return nil
}
