// Package flute implements the second broadcast substrate of §3.3: a
// FLUTE/ALC-style file caster over IP multicast, as a broadband operator
// or mobile network would deploy OddCI ("multicast transmission by
// broadband networks, mobile phone networks"). Files are chunked into
// datagram-sized blocks and transmitted cyclically with the chunks of
// all files interleaved round-robin — the standard FLUTE arrangement.
//
// It satisfies the same two interfaces as the DSM-CC broadcaster
// (controller.HeadEnd and middleware.ObjectCarousel), so the whole OddCI
// control plane runs over it unchanged. The observable difference is
// the receiver model: datagram receivers cache any chunk they see, so a
// join at a random phase completes in at most ONE cycle — versus the
// DSM-CC file-granularity receiver's expected 1.5 cycles.
package flute

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"oddci/internal/dsmcc"
	"oddci/internal/simtime"
)

const (
	// ChunkPayload is the file bytes carried per datagram.
	ChunkPayload = 1400
	// chunkOverhead covers IP + UDP + ALC/LCT headers per datagram.
	chunkOverhead = 60
)

// layout is the wire schedule of one cycle: chunks of all files
// interleaved round-robin.
type layout struct {
	generation uint32
	cycleWire  int64
	// chunkEnds maps file name → the wire-byte end offset of each of
	// its chunks within the cycle.
	chunkEnds map[string][]int64
	// files holds the slices Start/Update were handed, capacity clipped
	// so an append reallocates: RequestFile delivers them as they are.
	files map[string][]byte
}

func buildLayout(files []dsmcc.File, generation uint32) (*layout, error) {
	if len(files) == 0 {
		return nil, errors.New("flute: empty content set")
	}
	l := &layout{
		generation: generation,
		chunkEnds:  make(map[string][]int64, len(files)),
		files:      make(map[string][]byte, len(files)),
	}
	remaining := make([]int, len(files))
	for i, f := range files {
		if f.Name == "" {
			return nil, errors.New("flute: empty file name")
		}
		if _, dup := l.files[f.Name]; dup {
			return nil, fmt.Errorf("flute: duplicate file %q", f.Name)
		}
		l.files[f.Name] = f.Data[:len(f.Data):len(f.Data)]
		chunks := (len(f.Data) + ChunkPayload - 1) / ChunkPayload
		if chunks == 0 {
			chunks = 1 // empty files still occupy one announcement chunk
		}
		remaining[i] = chunks
	}
	// Round-robin interleave.
	var pos int64
	active := len(files)
	for active > 0 {
		for i, f := range files {
			if remaining[i] == 0 {
				continue
			}
			size := ChunkPayload
			if remaining[i] == 1 {
				if tail := len(f.Data) % ChunkPayload; tail != 0 {
					size = tail
				}
				if len(f.Data) == 0 {
					size = 0
				}
			}
			pos += int64(size + chunkOverhead)
			l.chunkEnds[f.Name] = append(l.chunkEnds[f.Name], pos)
			remaining[i]--
			if remaining[i] == 0 {
				active--
			}
		}
	}
	l.cycleWire = pos
	return l, nil
}

// completion returns the wire-byte position at which a receiver that
// starts listening at pos holds every chunk of name.
func (l *layout) completion(name string, pos int64) (int64, bool) {
	ends, ok := l.chunkEnds[name]
	if !ok {
		return 0, false
	}
	w := l.cycleWire
	k := pos / w
	inCycle := pos - k*w
	base := k * w
	var max int64
	for _, e := range ends {
		var at int64
		if e > inCycle {
			at = base + e
		} else {
			at = base + w + e
		}
		if at > max {
			max = at
		}
	}
	return max, true
}

// Caster is the transmitter: the multicast analogue of
// dsmcc.Broadcaster.
type Caster struct {
	clk  simtime.Clock
	rate float64 // bps

	mu           sync.Mutex
	cur          *layout
	origin       time.Time
	started      bool
	generation   uint32
	pending      []dsmcc.File
	pendingSet   bool
	genListeners map[int]func(uint32, time.Time)
	nextListener int
}

// NewCaster builds an idle caster transmitting at rateBps.
func NewCaster(clk simtime.Clock, rateBps float64) (*Caster, error) {
	if rateBps <= 0 {
		return nil, errors.New("flute: rate must be positive")
	}
	return &Caster{
		clk:          clk,
		rate:         rateBps,
		genListeners: make(map[int]func(uint32, time.Time)),
	}, nil
}

func (c *Caster) airTime(bytes int64) time.Duration {
	return time.Duration(float64(bytes) * 8 / c.rate * float64(time.Second))
}

// Start implements controller.HeadEnd.
func (c *Caster) Start(files []dsmcc.File) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return errors.New("flute: caster already started")
	}
	c.generation++
	l, err := buildLayout(files, c.generation)
	if err != nil {
		c.generation--
		return err
	}
	c.cur = l
	c.origin = c.clk.Now()
	c.started = true
	return nil
}

// Generation returns the on-air content generation.
func (c *Caster) Generation() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.generation
}

// CycleDuration returns the air time of one full cycle.
func (c *Caster) CycleDuration() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return 0
	}
	return c.airTime(c.cur.cycleWire)
}

func (c *Caster) positionLocked(t time.Time) int64 {
	elapsed := t.Sub(c.origin)
	if elapsed < 0 {
		return 0
	}
	return int64(elapsed.Seconds() * c.rate / 8)
}

// Update implements controller.HeadEnd: new content goes on air at the
// next cycle boundary; queued updates coalesce.
func (c *Caster) Update(files []dsmcc.File) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		return errors.New("flute: caster not started")
	}
	if _, err := buildLayout(files, 0); err != nil {
		return err // validate now; commit later
	}
	c.pending = files
	if c.pendingSet {
		return nil
	}
	c.pendingSet = true
	now := c.clk.Now()
	pos := c.positionLocked(now)
	w := c.cur.cycleWire
	boundary := (pos/w + 1) * w
	delay := c.origin.Add(c.airTime(boundary)).Sub(now)
	c.clk.AfterFunc(delay, c.commit)
	return nil
}

func (c *Caster) commit() {
	c.mu.Lock()
	files := c.pending
	c.pending = nil
	c.pendingSet = false
	c.generation++
	l, err := buildLayout(files, c.generation)
	if err != nil {
		c.mu.Unlock()
		panic(fmt.Sprintf("flute: committing validated update failed: %v", err))
	}
	c.cur = l
	c.origin = c.clk.Now()
	gen := c.generation
	at := c.origin
	ls := make([]func(uint32, time.Time), 0, len(c.genListeners))
	for _, fn := range c.genListeners {
		ls = append(ls, fn)
	}
	c.mu.Unlock()
	for _, fn := range ls {
		fn(gen, at)
	}
}

// OnGeneration implements middleware.ObjectCarousel.
func (c *Caster) OnGeneration(fn func(gen uint32, at time.Time)) (cancel func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextListener
	c.nextListener++
	c.genListeners[id] = fn
	return func() {
		c.mu.Lock()
		delete(c.genListeners, id)
		c.mu.Unlock()
	}
}

// CycleWire returns the current cycle's wire size in bytes.
func (c *Caster) CycleWire() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return 0
	}
	return c.cur.cycleWire
}

// Completion exposes the receiver completion model: the wire-byte
// position at which a receiver that starts listening at pos holds all
// of name's chunks. Used by the transport-comparison experiment.
func (c *Caster) Completion(name string, pos int64) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return 0, false
	}
	return c.cur.completion(name, pos)
}

// ErrNoSuchFile mirrors the dsmcc error.
var ErrNoSuchFile = errors.New("flute: no such file on air")

// RequestFile implements middleware.ObjectCarousel. The strategy is
// ignored: datagram receivers always cache out-of-order chunks (the
// block-cache behaviour is inherent to FLUTE). The data is the slice
// Start/Update was handed, the same one for every receiver of that
// generation: read it, never write it.
func (c *Caster) RequestFile(name string, _ dsmcc.ReceiverStrategy, fn func(data []byte, at time.Time, err error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		now := c.clk.Now()
		c.clk.AfterFunc(0, func() { fn(nil, now, errors.New("flute: caster not started")) })
		return
	}
	c.scheduleLocked(name, fn)
}

func (c *Caster) scheduleLocked(name string, fn func([]byte, time.Time, error)) {
	now := c.clk.Now()
	l := c.cur
	if _, ok := l.files[name]; !ok {
		c.clk.AfterFunc(0, func() { fn(nil, now, ErrNoSuchFile) })
		return
	}
	gen := l.generation
	pos := c.positionLocked(now)
	done, _ := l.completion(name, pos)
	at := c.origin.Add(c.airTime(done))
	delay := at.Sub(now)
	if delay < 0 {
		delay = 0
	}
	c.clk.AfterFunc(delay, func() {
		c.mu.Lock()
		cur := c.cur
		data, ok := cur.files[name]
		switch {
		case !ok:
			c.mu.Unlock()
			fn(nil, c.clk.Now(), ErrNoSuchFile)
			return
		case cur.generation != gen && !bytes.Equal(data, l.files[name]):
			// Content changed mid-read: restart on the new generation.
			c.scheduleLocked(name, fn)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		fn(data, c.clk.Now(), nil)
	})
}
