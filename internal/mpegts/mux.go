package mpegts

import (
	"fmt"
	"sync"
)

// Mux interleaves per-PID section queues into a single transport stream,
// round-robin across PIDs, maintaining per-PID continuity counters. It is
// the byte-exact tail of the transmission chain; timing is handled by the
// broadcast bus it feeds.
type Mux struct {
	mu     sync.Mutex
	queues map[uint16]*muxQueue
	order  []uint16
	next   int
}

type muxQueue struct {
	pkts []*Packet
	cc   uint8
}

// NewMux returns an empty multiplexer.
func NewMux() *Mux {
	return &Mux{queues: make(map[uint16]*muxQueue)}
}

// EnqueueSection packetizes an encoded section onto pid.
func (m *Mux) EnqueueSection(pid uint16, section []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queues[pid]
	if q == nil {
		q = &muxQueue{}
		m.queues[pid] = q
		m.order = append(m.order, pid)
	}
	pkts, cc, err := PacketizeSection(pid, q.cc, section)
	if err != nil {
		return err
	}
	q.cc = cc
	q.pkts = append(q.pkts, pkts...)
	return nil
}

// NextPacket emits the next packet round-robin, or nil when all queues
// are empty.
func (m *Mux) NextPacket() *Packet {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.order) == 0 {
		return nil
	}
	for i := 0; i < len(m.order); i++ {
		pid := m.order[(m.next+i)%len(m.order)]
		q := m.queues[pid]
		if len(q.pkts) > 0 {
			p := q.pkts[0]
			q.pkts = q.pkts[1:]
			m.next = (m.next + i + 1) % len(m.order)
			return p
		}
	}
	return nil
}

// DrainBytes emits the entire backlog as a contiguous byte stream.
func (m *Mux) DrainBytes() ([]byte, error) {
	var out []byte
	for {
		p := m.NextPacket()
		if p == nil {
			return out, nil
		}
		b, err := p.Marshal()
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
}

// Demux routes a transport stream to per-PID section handlers.
type Demux struct {
	mu         sync.Mutex
	assemblers map[uint16]*Assembler
	handlers   map[uint16]func(section []byte)
	// unhandled counts packets on PIDs with no registered handler.
	unhandled int
}

// NewDemux returns an empty demultiplexer.
func NewDemux() *Demux {
	return &Demux{
		assemblers: make(map[uint16]*Assembler),
		handlers:   make(map[uint16]func([]byte)),
	}
}

// Handle registers fn to receive completed sections on pid.
func (d *Demux) Handle(pid uint16, fn func(section []byte)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.handlers[pid] = fn
	if d.assemblers[pid] == nil {
		d.assemblers[pid] = NewAssembler(pid)
	}
}

// PushPacket routes one decoded packet.
func (d *Demux) PushPacket(p *Packet) {
	d.mu.Lock()
	a := d.assemblers[p.PID]
	fn := d.handlers[p.PID]
	if a == nil || fn == nil {
		d.unhandled++
		d.mu.Unlock()
		return
	}
	sections := a.Push(p)
	d.mu.Unlock()
	for _, s := range sections {
		fn(s)
	}
}

// PushBytes parses and routes a stream of packets; it returns an error on
// framing problems.
func (d *Demux) PushBytes(b []byte) error {
	if len(b)%PacketSize != 0 {
		return fmt.Errorf("mpegts: stream length %d not a packet multiple", len(b))
	}
	for off := 0; off < len(b); off += PacketSize {
		p, err := ParsePacket(b[off : off+PacketSize])
		if err != nil {
			return err
		}
		d.PushPacket(p)
	}
	return nil
}
