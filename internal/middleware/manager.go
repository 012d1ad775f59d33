package middleware

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"oddci/internal/ait"
	"oddci/internal/dsmcc"
	"oddci/internal/simtime"
	"oddci/internal/xlet"
)

// ObjectCarousel is the receiver-side view of any cyclic file-broadcast
// service (§3.3 lists the DSM-CC object carousel of a DTV network and
// IP multicast as OddCI enabling technologies). One playout engine,
// dsmcc.Broadcaster, serves both, airing a DSM-CC Carousel or a flute
// Session; this is the half of it a receiver may use, reading and
// listening but never changing what is on air. The middleware and the
// applications it hosts are agnostic to which wire layout carries their
// files.
//
// Delivery is by reference. The data a carousel hands to fn is its own
// staged copy of the file, one slice shared by every receiver of that
// generation (a broadcast costs the same for one receiver as for N), and
// it stays shared through the middleware, the application (xlet.Context
// ReadFile), appimage.Decode and the DVE. Whoever staged the bytes and
// everyone they are delivered to may read them; nobody writes them. A
// consumer that needs to change them copies first.
type ObjectCarousel interface {
	// RequestFile delivers the named file as a receiver starting to
	// listen now would obtain it. cache, if non-nil, is the receiver's
	// chunk store: a carrier that advertises content hashes satisfies a
	// read of content already in it at directory latency, and every
	// carrier publishes what it delivers into it. data is shared and
	// read-only, and so is what the cache keeps.
	RequestFile(name string, strategy dsmcc.ReceiverStrategy, cache *dsmcc.ChunkCache, fn func(data []byte, at time.Time, err error))
	// OnGeneration notifies of content changes; it returns a cancel.
	OnGeneration(fn func(gen uint32, at time.Time)) (cancel func())
}

// Authenticator verifies application code fetched from the carousel
// before it runs — the DTV security hook ("the receiver can authenticate
// downloaded applications signed by application developers or
// transmitters"). A nil Authenticator accepts everything. code is the
// carousel's shared delivery (see ObjectCarousel): read-only.
type Authenticator func(classFile string, code []byte) error

// Config parameterizes an application manager.
type Config struct {
	// Strategy selects how the carousel is read (FileGranularity is the
	// paper's receiver behaviour).
	Strategy dsmcc.ReceiverStrategy
	// Authenticate, if set, gates application launch.
	Authenticate Authenticator
	// Rng drives this receiver's signalling phase. Required.
	Rng *rand.Rand
	// Cache, if set, is this receiver's persistent chunk store, handed
	// to the carousel with every application file read. The cache
	// typically belongs to the set-top box and survives the manager
	// (power cycles).
	Cache *dsmcc.ChunkCache
}

// Manager is the receiver's application manager: it watches the AIT,
// fetches application code from the object carousel, and drives Xlet
// lifecycles.
type Manager struct {
	clk   simtime.Clock
	bcast ObjectCarousel
	sig   *Signalling
	cfg   Config

	mu        sync.Mutex
	factories map[string]xlet.Factory
	apps      map[uint64]*runningApp
	cancelSig func()
	running   bool

	// Counters for diagnostics and tests.
	LaunchErrors int
	AuthFailures int
}

type runningApp struct {
	app ait.Application
	x   xlet.Xlet
	lc  xlet.Lifecycle
}

// NewManager builds a manager for one receiver.
func NewManager(clk simtime.Clock, bcast ObjectCarousel, sig *Signalling, cfg Config) (*Manager, error) {
	if cfg.Rng == nil {
		return nil, errors.New("middleware: Config.Rng is required")
	}
	return &Manager{
		clk:       clk,
		bcast:     bcast,
		sig:       sig,
		cfg:       cfg,
		factories: make(map[string]xlet.Factory),
		apps:      make(map[uint64]*runningApp),
	}, nil
}

// RegisterFactory maps a carousel class file to the Go implementation of
// the Xlet (the substitution for Java class loading).
func (m *Manager) RegisterFactory(classFile string, f xlet.Factory) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.factories[classFile] = f
}

// Start tunes the receiver: it begins monitoring the AIT.
func (m *Manager) Start() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		return errors.New("middleware: manager already started")
	}
	m.running = true
	m.cancelSig = m.sig.Subscribe(m.cfg.Rng, m.handleAIT)
	return nil
}

// Stop powers the receiver down: applications are destroyed
// unconditionally and signalling monitoring ceases.
func (m *Manager) Stop() {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	m.running = false
	cancel := m.cancelSig
	m.cancelSig = nil
	apps := make([]*runningApp, 0, len(m.apps))
	for _, a := range m.apps {
		apps = append(apps, a)
	}
	m.apps = make(map[uint64]*runningApp)
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	for _, a := range apps {
		if a.x != nil {
			a.x.DestroyXlet(true) // unconditional destroy cannot be refused
		}
		a.lc.To(xlet.Destroyed)
	}
}

// handleAIT processes one received AIT repetition.
func (m *Manager) handleAIT(raw []byte) {
	table, err := ait.Decode(raw)
	if err != nil {
		m.mu.Lock()
		m.LaunchErrors++
		m.mu.Unlock()
		return
	}
	for _, app := range table.Applications {
		app := app
		switch app.ControlCode {
		case ait.Autostart:
			m.launch(app)
		case ait.Kill, ait.Destroy:
			m.destroy(app.Key(), app.ControlCode == ait.Kill)
		}
	}
}

// launch fetches the application code and walks it to Started.
func (m *Manager) launch(app ait.Application) {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	if _, exists := m.apps[app.Key()]; exists {
		m.mu.Unlock()
		return // already running; AUTOSTART is idempotent
	}
	factory := m.factories[app.ClassFile]
	if factory == nil {
		m.LaunchErrors++
		m.mu.Unlock()
		return
	}
	// Reserve the slot so repeated AITs don't double-launch while the
	// carousel download is in flight.
	ra := &runningApp{app: app}
	m.apps[app.Key()] = ra
	m.mu.Unlock()

	m.bcast.RequestFile(app.ClassFile, m.cfg.Strategy, nil, func(code []byte, _ time.Time, err error) {
		abort := func() {
			m.mu.Lock()
			if m.apps[app.Key()] == ra {
				delete(m.apps, app.Key())
			}
			m.mu.Unlock()
		}
		if err != nil {
			m.mu.Lock()
			m.LaunchErrors++
			m.mu.Unlock()
			abort()
			return
		}
		if m.cfg.Authenticate != nil {
			if err := m.cfg.Authenticate(app.ClassFile, code); err != nil {
				m.mu.Lock()
				m.AuthFailures++
				m.mu.Unlock()
				abort()
				return
			}
		}
		m.mu.Lock()
		if !m.running || m.apps[app.Key()] != ra {
			m.mu.Unlock()
			return // powered off or superseded while downloading
		}
		ra.x = factory()
		m.mu.Unlock()

		ctx := &managerContext{m: m, key: app.Key()}
		if err := ra.x.InitXlet(ctx); err != nil {
			m.failLaunch(ra, app.Key(), fmt.Errorf("initXlet: %w", err))
			return
		}
		m.transition(ra, xlet.Paused)
		if err := ra.x.StartXlet(); err != nil {
			m.failLaunch(ra, app.Key(), fmt.Errorf("startXlet: %w", err))
			return
		}
		m.transition(ra, xlet.Started)
	})
}

func (m *Manager) transition(ra *runningApp, to xlet.State) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ra.lc.To(to) // manager drives only legal sequences
}

func (m *Manager) failLaunch(ra *runningApp, key uint64, _ error) {
	m.mu.Lock()
	m.LaunchErrors++
	if m.apps[key] == ra {
		delete(m.apps, key)
	}
	m.mu.Unlock()
	ra.x.DestroyXlet(true)
}

// destroy tears an application down per a KILL/DESTROY control code.
func (m *Manager) destroy(key uint64, unconditional bool) {
	m.mu.Lock()
	ra := m.apps[key]
	if ra == nil || ra.x == nil {
		if ra != nil {
			delete(m.apps, key) // still downloading: abandon
		}
		m.mu.Unlock()
		return
	}
	delete(m.apps, key)
	m.mu.Unlock()
	ra.x.DestroyXlet(unconditional)
	m.mu.Lock()
	ra.lc.To(xlet.Destroyed)
	m.mu.Unlock()
}

// managerContext implements xlet.Context.
type managerContext struct {
	m   *Manager
	key uint64
}

func (c *managerContext) Clock() simtime.Clock { return c.m.clk }
func (c *managerContext) AppKey() uint64       { return c.key }

func (c *managerContext) ReadFile(name string, fn func([]byte, error)) {
	c.m.bcast.RequestFile(name, c.m.cfg.Strategy, c.m.cfg.Cache, func(data []byte, _ time.Time, err error) {
		fn(data, err)
	})
}

func (c *managerContext) Go(fn func()) { c.m.clk.Go(fn) }

func (c *managerContext) After(d time.Duration, fn func()) simtime.Timer {
	return c.m.clk.AfterFunc(d, fn)
}

func (c *managerContext) OnCarouselUpdate(fn func()) (cancel func()) {
	return c.m.bcast.OnGeneration(func(uint32, time.Time) { fn() })
}

func (c *managerContext) NotifyDestroyed() {
	c.m.mu.Lock()
	ra := c.m.apps[c.key]
	if ra != nil {
		ra.lc.To(xlet.Destroyed)
		delete(c.m.apps, c.key)
	}
	c.m.mu.Unlock()
}
