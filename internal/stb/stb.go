// Package stb models the set-top box: the processing node of an
// OddCI-DTV system. An STB couples a tuner (carousel + AIT signalling
// subscriptions), the DTV middleware (application manager), a CPU
// performance model calibrated to the paper's measurements, and a power
// state driven by the viewer (the churn source of §3.2: "a PNA can
// generally be switched off at the will of its owner").
package stb

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"oddci/internal/core/instance"
	"oddci/internal/dsmcc"
	"oddci/internal/middleware"
	"oddci/internal/simtime"
	"oddci/internal/xlet"
)

// Mode is the viewer-visible activity state of the receiver.
type Mode uint8

// Receiver modes from §4.4: the prototype was measured both with a TV
// channel tuned ("use mode") and with the middleware inactive ("standby
// mode").
const (
	InUse Mode = iota
	Standby
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Standby {
		return "standby"
	}
	return "in-use"
}

// PerfModel converts reference processing times across platforms and
// modes, calibrated from Table II: the STB in use averaged 20.6× slower
// than the reference PC (max error 10%), and in-use runs averaged 1.65×
// slower than standby (max error 17%).
type PerfModel struct {
	// SlowdownVsPC is (STB in-use time) / (PC time).
	SlowdownVsPC float64
	// InUseFactor is (in-use time) / (standby time).
	InUseFactor float64
}

// DefaultPerf returns the paper-calibrated model.
func DefaultPerf() PerfModel { return PerfModel{SlowdownVsPC: 20.6, InUseFactor: 1.65} }

// TaskDuration converts a task's reference-STB processing time p (which
// the paper defines against an in-use reference receiver) to this
// device's wall time in the given mode.
func (m PerfModel) TaskDuration(refSTBSeconds float64, mode Mode) time.Duration {
	sec := refSTBSeconds
	if mode == Standby {
		sec /= m.InUseFactor
	}
	return time.Duration(sec * float64(time.Second))
}

// PCSeconds converts a reference-STB time to the reference PC.
func (m PerfModel) PCSeconds(refSTBSeconds float64) float64 {
	return refSTBSeconds / m.SlowdownVsPC
}

// FromPCSeconds converts a PC-measured time to this device in the given
// mode.
func (m PerfModel) FromPCSeconds(pcSeconds float64, mode Mode) float64 {
	sec := pcSeconds * m.SlowdownVsPC
	if mode == Standby {
		sec /= m.InUseFactor
	}
	return sec
}

// Config assembles an STB.
type Config struct {
	ID          uint64
	Clock       simtime.Clock
	Broadcaster middleware.ObjectCarousel
	Signalling  *middleware.Signalling
	Profile     instance.DeviceProfile
	Mode        Mode
	// Strategy selects the carousel receiver behaviour.
	Strategy dsmcc.ReceiverStrategy
	// Authenticate gates application launch (DTV code signing).
	Authenticate middleware.Authenticator
	// Rng drives this receiver's phases and churn. Required.
	Rng *rand.Rand
	// ChunkCacheBytes sizes this receiver's persistent chunk store
	// (flash-backed, so it survives power cycles). Zero disables
	// caching; negative selects dsmcc.DefaultChunkCacheBytes.
	ChunkCacheBytes int64
	// CacheMetrics, if set, aggregates the chunk cache's telemetry
	// (typically shared across the deployment's whole fleet).
	CacheMetrics *dsmcc.CacheMetrics
}

// STB is one simulated receiver.
type STB struct {
	cfg Config

	mu        sync.Mutex
	mode      Mode
	powered   bool
	mgr       *middleware.Manager
	factories map[string]xlet.Factory
	cache     *dsmcc.ChunkCache

	churning   bool
	churnTimer simtime.Timer
	churnRng   *rand.Rand
	meanOn     time.Duration
	meanOff    time.Duration

	// PowerCycles counts power-off events (churn accounting).
	PowerCycles int
	// OnPower, if set, observes power transitions (tests, experiment
	// accounting). Runs without the STB lock.
	OnPower func(on bool, at time.Time)
}

// New builds a powered-off STB.
func New(cfg Config) (*STB, error) {
	if cfg.Clock == nil || cfg.Broadcaster == nil || cfg.Signalling == nil {
		return nil, errors.New("stb: clock, broadcaster and signalling are required")
	}
	if cfg.Rng == nil {
		return nil, errors.New("stb: rng is required")
	}
	s := &STB{cfg: cfg, mode: cfg.Mode, factories: make(map[string]xlet.Factory)}
	if cfg.ChunkCacheBytes != 0 {
		size := cfg.ChunkCacheBytes
		if size < 0 {
			size = dsmcc.DefaultChunkCacheBytes
		}
		// The chunk cache lives on the STB, not the middleware: like the
		// factory registrations it models persistent (flash) state, so a
		// power cycle reboots into warm content-addressed storage and a
		// recomposed image re-stages as a delta.
		s.cache = dsmcc.NewChunkCache(size)
		s.cache.Instrument(cfg.CacheMetrics)
	}
	return s, nil
}

// ChunkCache exposes the receiver's persistent chunk store (nil when
// caching is disabled).
func (s *STB) ChunkCache() *dsmcc.ChunkCache { return s.cache }

// ID returns the device identifier.
func (s *STB) ID() uint64 { return s.cfg.ID }

// Profile returns the device profile.
func (s *STB) Profile() instance.DeviceProfile { return s.cfg.Profile }

// Mode returns the current viewer mode.
func (s *STB) Mode() Mode {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mode
}

// SetMode switches between in-use and standby. Tasks started before the
// switch keep their sampled duration (documented simplification).
func (s *STB) SetMode(m Mode) {
	s.mu.Lock()
	s.mode = m
	s.mu.Unlock()
}

// TaskDuration converts a reference task time for this device now.
func (s *STB) TaskDuration(refSTBSeconds float64) time.Duration {
	s.mu.Lock()
	mode := s.mode
	s.mu.Unlock()
	return DefaultPerf().TaskDuration(refSTBSeconds, mode)
}

// RegisterApp maps a carousel class file to an Xlet implementation; the
// registration survives power cycles (it models code burned into the
// middleware's trust store, not volatile state).
func (s *STB) RegisterApp(classFile string, f xlet.Factory) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.factories[classFile] = f
	if s.mgr != nil {
		s.mgr.RegisterFactory(classFile, f)
	}
}

// Powered reports power state.
func (s *STB) Powered() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.powered
}

// PowerOn boots the receiver: a fresh middleware instance tunes in and
// begins AIT monitoring. Running applications never survive a power
// cycle.
func (s *STB) PowerOn() error {
	s.mu.Lock()
	if s.powered {
		s.mu.Unlock()
		return nil
	}
	mgr, err := middleware.NewManager(s.cfg.Clock, s.cfg.Broadcaster, s.cfg.Signalling, middleware.Config{
		Strategy:     s.cfg.Strategy,
		Authenticate: s.cfg.Authenticate,
		Rng:          rand.New(rand.NewSource(s.cfg.Rng.Int63())),
		Cache:        s.cache,
	})
	if err != nil {
		s.mu.Unlock()
		return err
	}
	for name, f := range s.factories {
		mgr.RegisterFactory(name, f)
	}
	s.mgr = mgr
	s.powered = true
	hook := s.OnPower
	s.mu.Unlock()
	if err := mgr.Start(); err != nil {
		return fmt.Errorf("stb: tune in: %w", err)
	}
	if hook != nil {
		hook(true, s.cfg.Clock.Now())
	}
	return nil
}

// PowerOff cuts power: all applications die immediately.
func (s *STB) PowerOff() {
	s.mu.Lock()
	if !s.powered {
		s.mu.Unlock()
		return
	}
	s.powered = false
	s.PowerCycles++
	mgr := s.mgr
	s.mgr = nil
	hook := s.OnPower
	s.mu.Unlock()
	if mgr != nil {
		mgr.Stop()
	}
	if hook != nil {
		hook(false, s.cfg.Clock.Now())
	}
}

// Manager exposes the live middleware (nil when powered off).
func (s *STB) Manager() *middleware.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mgr
}

// StartChurn begins viewer-driven power cycling: on-periods and
// off-periods are exponentially distributed with the given means. The
// STB powers on immediately if it is off.
func (s *STB) StartChurn(meanOn, meanOff time.Duration) error {
	if meanOn <= 0 || meanOff <= 0 {
		return errors.New("stb: churn means must be positive")
	}
	s.mu.Lock()
	if s.churning {
		s.mu.Unlock()
		return errors.New("stb: already churning")
	}
	s.churning = true
	s.churnRng = rand.New(rand.NewSource(s.cfg.Rng.Int63()))
	s.meanOn, s.meanOff = meanOn, meanOff
	s.mu.Unlock()
	if err := s.PowerOn(); err != nil {
		return err
	}
	s.scheduleToggle()
	return nil
}

// StopChurn halts power cycling, leaving the STB in its current state.
func (s *STB) StopChurn() {
	s.mu.Lock()
	s.churning = false
	t := s.churnTimer
	s.churnTimer = nil
	s.mu.Unlock()
	if t != nil {
		t.Stop()
	}
}

func (s *STB) scheduleToggle() {
	s.mu.Lock()
	if !s.churning {
		s.mu.Unlock()
		return
	}
	mean := s.meanOff
	if s.powered {
		mean = s.meanOn
	}
	d := time.Duration(s.churnRng.ExpFloat64() * float64(mean))
	s.churnTimer = s.cfg.Clock.AfterFunc(d, func() {
		s.mu.Lock()
		if !s.churning {
			s.mu.Unlock()
			return
		}
		powered := s.powered
		s.mu.Unlock()
		if powered {
			s.PowerOff()
		} else {
			s.PowerOn()
		}
		s.scheduleToggle()
	})
	s.mu.Unlock()
}
