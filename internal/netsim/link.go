package netsim

import (
	"math/rand"
	"sync"
	"time"

	"oddci/internal/simtime"
)

// Packet is the unit carried by links and buses. Size is the on-the-wire
// size in bytes and drives serialization delay; Payload is the decoded
// content handed to the receiver (the simulation does not re-serialize
// application objects, it accounts for their size).
type Packet struct {
	From    string
	Payload any
	Size    int
	SentAt  time.Time
}

// LinkConfig describes one direction of a point-to-point channel.
type LinkConfig struct {
	// RateBps is the capacity in bits per second. Zero means infinite.
	RateBps float64
	// Latency is the propagation delay added after serialization.
	Latency time.Duration
	// dropProb is the probability that a packet is silently lost.
	dropProb float64
	// rng drives loss decisions; required when dropProb > 0.
	rng *rand.Rand
}

// Link is a unidirectional bandwidth/latency-modelled channel delivering
// into an endpoint's mailbox. Packets serialize one after another: a
// packet's transmission starts when the previous one finishes, which is
// what makes a shared uplink (e.g. a desktop-grid master staging images
// over unicast) a bottleneck.
//
// In-flight packets wait in a FIFO ring, and every arrival event pops the
// front one, so a send books a timer around a func bound once rather than
// a closure over its packet. That is sound because a link's arrivals
// never decrease (busyUntil only grows and Latency is fixed) and the
// clock fires same-instant events in booking order, which Send keeps
// equal to ring order by booking under l.mu.
type Link struct {
	clk       simtime.Clock
	cfg       LinkConfig
	dst       *mailbox
	deliverFn func()

	mu        sync.Mutex
	busyUntil time.Time
	inflight  Ring[Packet]
}

// newLink creates a link feeding dst.
func newLink(clk simtime.Clock, cfg LinkConfig, dst *mailbox) *Link {
	l := &Link{clk: clk, cfg: cfg, dst: dst}
	l.deliverFn = l.deliver
	return l
}

// deliver hands the oldest in-flight packet to the destination.
func (l *Link) deliver() {
	l.mu.Lock()
	p, _ := l.inflight.PopFront()
	l.mu.Unlock()
	l.dst.Put(p)
}

// serialization returns the time needed to clock size bytes onto the wire.
func serialization(size int, rateBps float64) time.Duration {
	if rateBps <= 0 {
		return 0
	}
	sec := float64(size) * 8 / rateBps
	return time.Duration(sec * float64(time.Second))
}

// Send queues p for transmission. It never blocks; the packet arrives at
// the destination mailbox after queueing + serialization + latency.
func (l *Link) Send(p Packet) {
	now := l.clk.Now()
	p.SentAt = now

	l.mu.Lock()
	start := now
	if l.busyUntil.After(start) {
		start = l.busyUntil
	}
	done := start.Add(serialization(p.Size, l.cfg.RateBps))
	l.busyUntil = done
	if l.cfg.dropProb > 0 && l.cfg.rng != nil && l.cfg.rng.Float64() < l.cfg.dropProb {
		l.mu.Unlock()
		return
	}
	l.inflight.PushBack(p)
	l.clk.AfterFunc(done.Add(l.cfg.Latency).Sub(now), l.deliverFn)
	l.mu.Unlock()
}

// Endpoint is one side of a duplex channel: an outgoing link plus an
// incoming mailbox, which the peer's link feeds.
type Endpoint struct {
	Name string
	out  *Link
	in   mailbox

	// SendHook, when set, may rewrite (or suppress, by returning false)
	// every outgoing payload before it hits the link. It is the seam the
	// adversary layer uses to make a node lie on the wire without the
	// node's own code knowing.
	SendHook func(to string, payload any) (any, bool)
}

// Send transmits payload of the given wire size to the peer endpoint.
func (e *Endpoint) Send(to string, payload any, size int) {
	if e.SendHook != nil {
		mutated, ok := e.SendHook(to, payload)
		if !ok {
			return
		}
		payload = mutated
	}
	e.out.Send(Packet{From: e.Name, Payload: payload, Size: size})
}

// Recv blocks for the next packet.
func (e *Endpoint) Recv() (Packet, error) { return e.in.Recv() }

// RecvTimeout blocks for the next packet up to d.
func (e *Endpoint) RecvTimeout(d time.Duration) (Packet, error) { return e.in.RecvTimeout(d) }

// Close tears down the receive side.
func (e *Endpoint) Close() { e.in.Close() }

// NewDuplex builds a full-duplex channel between two named parties with
// per-direction configs, returning a's endpoint first.
func NewDuplex(clk simtime.Clock, a, b string, aToB, bToA LinkConfig) (*Endpoint, *Endpoint) {
	epA, epB := &Endpoint{Name: a}, &Endpoint{Name: b}
	epA.in.init(clk)
	epB.in.init(clk)
	epA.out = newLink(clk, aToB, &epB.in)
	epB.out = newLink(clk, bToA, &epA.in)
	return epA, epB
}
