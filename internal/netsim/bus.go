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
	// dropProb is an independent per-subscriber loss probability,
	// modelling reception errors at individual receivers.
	dropProb float64
	// rng drives per-subscriber loss; required when dropProb > 0.
	rng *rand.Rand
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
	subs      []func(Packet) // in subscription order, so delivery and loss draws repeat
}

// NewBus creates an idle broadcast channel.
func NewBus(clk simtime.Clock, cfg BusConfig) *Bus {
	return &Bus{clk: clk, cfg: cfg}
}

// Subscribe registers fn to receive every packet whose transmission
// completes after it subscribed. fn runs on the clock's event loop and
// must not block.
func (b *Bus) Subscribe(fn func(Packet)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs = append(b.subs, fn)
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
	b.mu.Unlock()

	b.clk.AfterFunc(done.Sub(now), func() {
		b.mu.Lock()
		targets := make([]func(Packet), 0, len(b.subs))
		for _, fn := range b.subs {
			if b.cfg.dropProb > 0 && b.cfg.rng != nil && b.cfg.rng.Float64() < b.cfg.dropProb {
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
