package dsmcc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"oddci/internal/obs"
	"oddci/internal/simtime"
)

// Content is what a Broadcaster plays out: a versioned set of files
// that knows its own wire schedule. *Carousel is the DSM-CC one
// (contiguous modules behind a directory section); flute.Session is the
// IP-multicast one (datagram chunks interleaved round-robin). The
// Broadcaster serialises every call.
type Content interface {
	// Check reports the error SetFiles would return for files, changing
	// nothing. An empty set never passes.
	Check(files []File) error
	// SetFiles replaces the contents and starts a new generation. It
	// keeps each Data slice, not a copy.
	SetFiles(files []File) error
	// Layout returns the wire schedule of the current generation. It
	// succeeds after every successful SetFiles.
	Layout() (*Layout, error)
}

// Broadcaster transmits a Content cyclically at a fixed rate over
// virtual time: the one playout engine under both of §3.3's broadcast
// substrates. It is the timing model of the broadcast channel: rather
// than emitting an event per TS packet or datagram (unworkable at
// scale), it exposes the deterministic position of the cyclic stream and
// schedules one event per requested file delivery, which is byte-exact
// with respect to the Layout (a test cross-checks this against streaming
// the real encoded bytes).
type Broadcaster struct {
	clk  simtime.Clock
	rate float64 // bits per second (the β of the paper)

	mu           sync.Mutex
	car          Content
	layout       *Layout   // the generation on air; nil before Start
	origin       time.Time // when byte position 0 of the current layout aired
	pending      []File    // queued update (never empty); nil when none is
	genListeners map[int]func(gen uint32, at time.Time)
	nextListener int
	// airedWire accumulates the wire bytes broadcast by generations that
	// have already been replaced; the live generation's contribution is
	// its stream position (telemetry).
	airedWire    int64
	commits      *obs.Counter
	delivered    *obs.Counter
	deltaBytes   *obs.Counter
	deltaModules *obs.Counter
	savedBytes   *obs.Counter
	cacheServed  *obs.Counter
}

// Instrument registers broadcast telemetry against reg: cumulative
// wire bytes aired, carousel cycle time, generation number, and commit
// / file-delivery counters.
func (b *Broadcaster) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	b.mu.Lock()
	b.commits = reg.Counter("oddci_dsmcc_updates_committed_total", "Carousel content updates committed at cycle boundaries")
	b.delivered = reg.Counter("oddci_dsmcc_file_deliveries_total", "Receiver file deliveries completed")
	b.deltaBytes = reg.Counter("oddci_dsmcc_delta_air_bytes_total", "Wire bytes of delta re-airs (DII + changed modules) across commits")
	b.deltaModules = reg.Counter("oddci_dsmcc_delta_modules_total", "Changed modules carried by delta re-airs across commits")
	b.savedBytes = reg.Counter("oddci_dsmcc_reair_saved_bytes_total", "Wire bytes a full re-air would have cost beyond the delta, across commits")
	b.cacheServed = reg.Counter("oddci_dsmcc_cache_deliveries_total", "File deliveries satisfied from a receiver chunk cache at DII time")
	b.mu.Unlock()
	reg.GaugeFunc("oddci_dsmcc_broadcast_bytes", "Cumulative wire bytes aired by the carousel", func() float64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.layout == nil {
			return 0
		}
		return float64(b.airedWire + b.positionLocked(b.clk.Now()))
	})
	reg.GaugeFunc("oddci_dsmcc_cycle_seconds", "Air time of one full carousel cycle", func() float64 {
		return b.CycleDuration().Seconds()
	})
	// The generation gauge reflects the raw uint32 and saws back to 0
	// when a long-lived carousel wraps; treat it as an identifier, not a
	// monotone series (oddci_dsmcc_updates_committed_total is the
	// monotone one). Receivers compare generations with NewerGeneration.
	reg.GaugeFunc("oddci_dsmcc_generation", "Carousel generation on air (wraps at 2^32; compare with serial-number arithmetic)", func() float64 {
		return float64(b.Generation())
	})
}

// NewBroadcaster wraps car for transmission at rateBps.
func NewBroadcaster(clk simtime.Clock, car Content, rateBps float64) (*Broadcaster, error) {
	if rateBps <= 0 {
		return nil, errors.New("dsmcc: broadcast rate must be positive")
	}
	return &Broadcaster{
		clk:          clk,
		rate:         rateBps,
		car:          car,
		genListeners: make(map[int]func(uint32, time.Time)),
	}, nil
}

// airTime converts wire bytes to transmission duration at the broadcast
// rate.
func (b *Broadcaster) airTime(bytes int64) time.Duration {
	return time.Duration(float64(bytes) * 8 / b.rate * float64(time.Second))
}

// Start loads the initial contents and begins cycling immediately.
func (b *Broadcaster) Start(files []File) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.layout != nil {
		return errors.New("dsmcc: broadcaster already started")
	}
	return b.airLocked(files)
}

// airLocked makes files the generation on air, its cycle starting now.
func (b *Broadcaster) airLocked(files []File) error {
	if err := b.car.SetFiles(files); err != nil {
		return err
	}
	l, err := b.car.Layout()
	if err != nil {
		return err
	}
	b.layout, b.origin = l, b.clk.Now()
	return nil
}

// Layout returns the schedule of the generation on air (nil before
// Start). A Layout is never modified once computed; its entries' Data is
// the shared, read-only content RequestFile delivers.
func (b *Broadcaster) Layout() *Layout {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.layout
}

// Generation returns the generation currently on air.
func (b *Broadcaster) Generation() uint32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.layout == nil {
		return 0
	}
	return b.layout.Generation
}

// CycleDuration returns the air time of one full cycle of the current
// layout.
func (b *Broadcaster) CycleDuration() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.layout == nil {
		return 0
	}
	return b.airTime(b.layout.CycleWire)
}

// positionLocked returns the wire-byte position of the stream at t.
func (b *Broadcaster) positionLocked(t time.Time) int64 {
	elapsed := t.Sub(b.origin)
	if elapsed < 0 {
		return 0
	}
	return int64(elapsed.Seconds() * b.rate / 8)
}

// Update replaces the carousel contents at the next cycle boundary, as a
// real playout server would (receivers mid-read of the old generation
// finish their cycle). Successive updates before the boundary coalesce;
// the last one wins. The content set is validated here, so an update the
// carrier cannot air is the caller's error now and never reaches the
// cycle boundary.
func (b *Broadcaster) Update(files []File) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.layout == nil {
		return errors.New("dsmcc: broadcaster not started")
	}
	if err := b.car.Check(files); err != nil {
		return err
	}
	scheduled := b.pending != nil
	b.pending = files
	if scheduled {
		return nil // commit already scheduled
	}
	now := b.clk.Now()
	pos := b.positionLocked(now)
	w := b.layout.CycleWire
	boundary := (pos/w + 1) * w
	delay := b.origin.Add(b.airTime(boundary)).Sub(now)
	b.clk.AfterFunc(delay, b.commit)
	return nil
}

// commit applies the pending update at a cycle boundary.
func (b *Broadcaster) commit() {
	b.mu.Lock()
	files := b.pending
	b.pending = nil
	b.airedWire += b.positionLocked(b.clk.Now())
	if err := b.airLocked(files); err != nil {
		b.mu.Unlock()
		panic(fmt.Sprintf("dsmcc: committing validated update failed: %v", err))
	}
	l := b.layout
	b.commits.Inc()
	// Delta accounting: what this commit costs to re-air (DII + changed
	// modules) versus the full cycle a delta-unaware head-end would burn.
	b.deltaBytes.Add(l.DeltaWire)
	b.deltaModules.Add(int64(l.ChangedModules))
	if saved := l.CycleWire - l.DeltaWire; saved > 0 {
		b.savedBytes.Add(saved)
	}
	gen := l.Generation
	at := b.origin
	listeners := make([]func(uint32, time.Time), 0, len(b.genListeners))
	for _, fn := range b.genListeners {
		listeners = append(listeners, fn)
	}
	b.mu.Unlock()
	for _, fn := range listeners {
		fn(gen, at)
	}
}

// OnGeneration registers fn to run whenever a new generation goes on
// air. It returns a cancel function. fn runs on the clock's event loop.
func (b *Broadcaster) OnGeneration(fn func(gen uint32, at time.Time)) (cancel func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.nextListener
	b.nextListener++
	b.genListeners[id] = fn
	return func() {
		b.mu.Lock()
		delete(b.genListeners, id)
		b.mu.Unlock()
	}
}

// ErrNoSuchFile reports a RequestFile against a name absent from the
// carousel directory.
var ErrNoSuchFile = errors.New("dsmcc: no such file in carousel")

// RequestFile asks for the named file as a receiver that starts
// listening now would obtain it. fn is invoked exactly once with the
// file data and delivery time, or with err != nil if the file
// disappears from the carousel before delivery. If the carousel content
// changes mid-read (version bump), the read restarts against the new
// generation, exactly as a receiver re-acquiring a new module version
// would.
//
// cache, if non-nil, is the receiver's persistent chunk store. When it
// already holds the module's current content (by the hash the directory
// advertises), delivery completes as soon as the next directory airs —
// the receiver needs only that to learn its local bytes are current,
// which is what shrinks a re-stage from I/β to changed/β. Otherwise the
// read proceeds on the cyclic schedule and the delivered bytes are
// published into the cache for next time. A layout without hashes (a
// pre-hash DSM-CC head-end, flute) never hits, so its reads are timed
// exactly as with a nil cache.
//
// The data is shared and read-only: the carousel's own slice
// (LayoutEntry.Data), the same one for every receiver of that
// generation, or on a hit the cache's.
func (b *Broadcaster) RequestFile(name string, strategy ReceiverStrategy, cache *ChunkCache, fn func(data []byte, at time.Time, err error)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.layout == nil {
		now := b.clk.Now()
		b.clk.AfterFunc(0, func() { fn(nil, now, errors.New("dsmcc: broadcaster not started")) })
		return
	}
	b.scheduleDeliveryLocked(name, strategy, cache, fn)
}

func (b *Broadcaster) scheduleDeliveryLocked(name string, strategy ReceiverStrategy, cache *ChunkCache, fn func([]byte, time.Time, error)) {
	now := b.clk.Now()
	e, ok := b.layout.Entry(name)
	if !ok {
		b.clk.AfterFunc(0, func() { fn(nil, now, ErrNoSuchFile) })
		return
	}
	var cached []byte
	hit := false
	if cache != nil && e.Hash != 0 {
		cached, hit = cache.Get(e.Hash)
	}
	version := e.Version
	pos := b.positionLocked(now)
	var done int64
	if hit {
		// Done once the next directory airs and confirms the hash.
		done = b.layout.NextDirectory(pos)
	} else {
		done, _ = b.layout.NextCompletion(name, pos, strategy)
	}
	delay := b.origin.Add(b.airTime(done)).Sub(now)
	if delay < 0 {
		delay = 0
	}
	b.clk.AfterFunc(delay, func() {
		b.mu.Lock()
		cur, ok := b.layout.Entry(name)
		switch {
		case !ok:
			b.mu.Unlock()
			fn(nil, b.clk.Now(), ErrNoSuchFile)
			return
		case cur.Version != version:
			// Content changed under the read: restart on the new
			// generation — the new content may be cached too.
			b.scheduleDeliveryLocked(name, strategy, cache, fn)
			b.mu.Unlock()
			return
		}
		delivered, served := b.delivered, b.cacheServed
		b.mu.Unlock()
		delivered.Inc()
		data := cur.Data
		switch {
		case hit:
			served.Inc()
			data = cached
		case cache != nil:
			cache.Put(HashOf(data), data)
		}
		fn(data, b.clk.Now(), nil)
	})
}
