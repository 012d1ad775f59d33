// Package dve implements the Disposable Virtual Environment: the
// sandbox a PNA creates to run a user application image ("the PNA
// creates a DVE for loading and executing the user's application
// present in the message"). A DVE owns the application's goroutine, its
// direct channel to the Backend, and its share of the device CPU; when
// the instance is reset the DVE is destroyed and everything inside it
// stops.
//
// Substitution note: the paper's DVE executes arbitrary shipped code.
// Here image entry points resolve against a Registry of Go functions;
// the image payload (delivered and digest-verified over broadcast) can
// carry the application's data (e.g. a BLAST database slice).
package dve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/instance"
	"oddci/internal/netsim"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
)

// AppFunc is an application behaviour: it runs inside the DVE until the
// work is done or the environment is destroyed.
type AppFunc func(env *Env) error

// Registry resolves image entry points to behaviours.
type Registry struct {
	mu sync.Mutex
	m  map[string]AppFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]AppFunc)} }

// Register binds an entry point name to fn.
func (r *Registry) Register(entryPoint string, fn AppFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[entryPoint] = fn
}

// Lookup resolves an entry point.
func (r *Registry) Lookup(entryPoint string) (AppFunc, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn, ok := r.m[entryPoint]
	return fn, ok
}

// Env is the application's view of its sandbox.
type Env struct {
	Clk        simtime.Clock
	NodeID     uint64
	InstanceID instance.ID
	// Image is the verified application. Its Payload aliases the bytes
	// the carousel delivered, which every node of the instance shares:
	// applications read it and never write it.
	Image *appimage.Image
	// Backend is the direct channel to the Backend component.
	Backend *netsim.Endpoint
	// TaskDuration converts a reference-STB processing time to this
	// device's wall time (the STB performance model).
	TaskDuration func(refSTBSeconds float64) time.Duration
	// Trace is the span context the hosting PNA launched this DVE
	// under; the worker stamps it onto task requests so backend
	// dispatches join the node's wakeup trace. Zero when untraced.
	Trace span.Context

	noteTask  func()
	interrupt simtime.Interrupter
}

// NoteTaskDone reports one completed task to the hosting PNA (surfaces
// in heartbeat statistics).
func (e *Env) NoteTaskDone() {
	if e.noteTask != nil {
		e.noteTask()
	}
}

// Execute runs one task of the given reference duration, honouring the
// device performance model. It reports false if the DVE was destroyed
// before the task completed (the result must then be discarded).
func (e *Env) Execute(refSTBSeconds float64) bool {
	d := time.Duration(refSTBSeconds * float64(time.Second))
	if e.TaskDuration != nil {
		d = e.TaskDuration(refSTBSeconds)
	}
	return e.interrupt.Sleep(e.Clk, d)
}

// Sleep pauses the application, returning false if destroyed meanwhile.
func (e *Env) Sleep(d time.Duration) bool { return e.interrupt.Sleep(e.Clk, d) }

// Destroyed reports whether the DVE has been torn down.
func (e *Env) Destroyed() bool { return e.interrupt.Cancelled() }

// DVE is the handle the PNA keeps for the running environment.
type DVE struct {
	env       *Env
	hangup    func()
	destroyed *obs.Counter

	mu   sync.Mutex
	done bool
	err  error
	// torn guards the destroyed counter against double Destroy calls.
	torn   bool
	onExit func(err error)
}

// Config launches an environment.
type Config struct {
	Clock      simtime.Clock
	Registry   *Registry
	Image      *appimage.Image
	NodeID     uint64
	InstanceID instance.ID
	// Backend is the freshly dialled channel to the Backend; Hangup
	// releases it on destruction.
	Backend *netsim.Endpoint
	Hangup  func()
	// TaskDuration is the device performance model hook.
	TaskDuration func(refSTBSeconds float64) time.Duration
	// OnExit, if set, runs when the application returns (after a
	// completed run or a destruction). It receives the app error.
	OnExit func(err error)
	// OnTask, if set, observes each completed task.
	OnTask func()
	// Trace seeds Env.Trace (see there).
	Trace span.Context
	// Obs, if set, counts DVE launches, destructions, and app errors
	// (oddci_dve_* metrics).
	Obs *obs.Registry
}

// Launch resolves the image's entry point and starts the application.
func Launch(cfg Config) (*DVE, error) {
	if cfg.Clock == nil || cfg.Registry == nil || cfg.Image == nil {
		return nil, errors.New("dve: clock, registry and image are required")
	}
	fn, ok := cfg.Registry.Lookup(cfg.Image.EntryPoint)
	if !ok {
		return nil, fmt.Errorf("dve: unknown entry point %q", cfg.Image.EntryPoint)
	}
	env := &Env{
		Clk:          cfg.Clock,
		NodeID:       cfg.NodeID,
		InstanceID:   cfg.InstanceID,
		Image:        cfg.Image,
		Backend:      cfg.Backend,
		TaskDuration: cfg.TaskDuration,
		Trace:        cfg.Trace,
		noteTask:     cfg.OnTask,
	}
	d := &DVE{
		env:       env,
		hangup:    cfg.Hangup,
		onExit:    cfg.OnExit,
		destroyed: cfg.Obs.Counter("oddci_dve_destroyed_total", "DVEs torn down"),
	}
	cfg.Obs.Counter("oddci_dve_launched_total", "DVEs launched").Inc()
	appErrors := cfg.Obs.Counter("oddci_dve_app_errors_total", "Applications that exited with an error")
	cfg.Clock.Go(func() {
		err := fn(env)
		if err != nil {
			appErrors.Inc()
		}
		d.mu.Lock()
		d.done = true
		d.err = err
		exit := d.onExit
		d.mu.Unlock()
		if exit != nil {
			exit(err)
		}
	})
	return d, nil
}

// Destroy tears the environment down: the application's blocking
// operations (Execute, Sleep, Backend receives) return immediately and
// the direct channel is released.
func (d *DVE) Destroy() {
	d.mu.Lock()
	first := !d.torn
	d.torn = true
	d.mu.Unlock()
	if first {
		d.destroyed.Inc()
	}
	d.env.interrupt.Cancel()
	if d.env.Backend != nil {
		d.env.Backend.Close()
	}
	if d.hangup != nil {
		d.hangup()
	}
}

// Done reports whether the application goroutine has returned, and its
// error.
func (d *DVE) Done() (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.done, d.err
}
