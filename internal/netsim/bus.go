package netsim

import (
	"math/rand"
	"sync"
	"time"

	"oddci/internal/simtime"
)

// BusConfig describes the broadcast channel.
type BusConfig struct {
	// RateBps is the spare broadcast capacity β in bits per second.
	RateBps float64
	// Latency is the air-interface propagation delay.
	Latency time.Duration
	// DropProb is an independent per-subscriber loss probability,
	// modelling reception errors at individual receivers.
	DropProb float64
	// Rng drives per-subscriber loss; required when DropProb > 0.
	Rng *rand.Rand
}

// Bus is the one-to-many broadcast channel. A single transmission reaches
// every subscriber tuned in when the transmission completes, regardless of
// how many there are — the property OddCI builds on. Transmissions
// serialize on the channel exactly like link packets do.
type Bus struct {
	clk simtime.Clock
	cfg BusConfig

	mu        sync.Mutex
	busyUntil time.Time
	nextID    int
	subs      map[int]func(Packet)
	published int64
	bytes     int64
}

// NewBus creates an idle broadcast channel.
func NewBus(clk simtime.Clock, cfg BusConfig) *Bus {
	return &Bus{clk: clk, cfg: cfg, subs: make(map[int]func(Packet))}
}

// Subscription identifies a bus listener for later cancellation.
type Subscription struct {
	bus *Bus
	id  int
}

// Cancel stops delivery to this subscriber.
func (s *Subscription) Cancel() {
	s.bus.mu.Lock()
	delete(s.bus.subs, s.id)
	s.bus.mu.Unlock()
}

// Subscribe registers fn to receive every packet whose transmission
// completes while the subscription is active. fn runs on the clock's
// event loop and must not block.
func (b *Bus) Subscribe(fn func(Packet)) *Subscription {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.nextID
	b.nextID++
	b.subs[id] = fn
	return &Subscription{bus: b, id: id}
}

// Publish transmits payload of the given wire size. Delivery happens to
// the subscribers present when serialization completes; the per-node
// cyclic-access behaviour of the carousel is layered above in
// internal/dsmcc.
func (b *Bus) Publish(from string, payload any, size int) {
	now := b.clk.Now()
	p := Packet{From: from, Payload: payload, Size: size, SentAt: now}

	b.mu.Lock()
	start := now
	if b.busyUntil.After(start) {
		start = b.busyUntil
	}
	done := start.Add(serialization(size, b.cfg.RateBps))
	b.busyUntil = done
	b.published++
	b.bytes += int64(size)
	b.mu.Unlock()

	arrival := done.Add(b.cfg.Latency)
	b.clk.AfterFunc(arrival.Sub(now), func() {
		p.ArrivedAt = b.clk.Now()
		b.mu.Lock()
		targets := make([]func(Packet), 0, len(b.subs))
		for _, fn := range b.subs {
			if b.cfg.DropProb > 0 && b.cfg.Rng != nil && b.cfg.Rng.Float64() < b.cfg.DropProb {
				continue
			}
			targets = append(targets, fn)
		}
		b.mu.Unlock()
		for _, fn := range targets {
			fn(p)
		}
	})
}

// Stats reports transmissions and bytes accepted onto the channel.
func (b *Bus) Stats() (published, bytes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published, b.bytes
}
