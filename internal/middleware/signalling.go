// Package middleware models the receiver-resident DTV middleware (Ginga,
// MHP, ACAP): AIT signalling monitoring and the application manager that
// drives Xlet lifecycles. Together with internal/dsmcc it forms the
// receiver half of the OddCI-DTV wakeup path: AIT says AUTOSTART → the
// manager fetches the Xlet code from the object carousel → initXlet /
// startXlet.
package middleware

import (
	"math/rand"
	"sync"
	"time"

	"oddci/internal/ait"
	"oddci/internal/simtime"
)

// DefaultAITPeriod is the AIT repetition interval on air. Real services
// repeat the AIT every few hundred milliseconds — much faster than the
// object carousel cycle — so receivers notice new applications almost
// immediately while the bulk download still takes carousel time.
const DefaultAITPeriod = 500 * time.Millisecond

// Signalling is the head-end ↔ receivers AIT distribution channel: the
// table rides its own PID and repeats every Period. Receivers see a
// newly published table after a uniform delay in [0, Period) — the wait
// for the next repetition — and likewise on first tune.
type Signalling struct {
	clk    simtime.Clock
	period time.Duration

	mu        sync.Mutex
	current   []byte // encoded AIT section
	listeners map[int]*sigListener
	nextID    int
}

type sigListener struct {
	rng *rand.Rand
	fn  func(raw []byte)
}

// NewSignalling creates an AIT channel with the given repetition period
// (0 selects DefaultAITPeriod).
func NewSignalling(clk simtime.Clock, period time.Duration) *Signalling {
	if period <= 0 {
		period = DefaultAITPeriod
	}
	return &Signalling{clk: clk, period: period, listeners: make(map[int]*sigListener)}
}

// Publish puts a new AIT on air. Every subscribed receiver sees it at
// its next repetition slot.
func (s *Signalling) Publish(t *ait.AIT) error {
	raw, err := t.Encode()
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.current = raw
	ls := make([]*sigListener, 0, len(s.listeners))
	for _, l := range s.listeners {
		ls = append(ls, l)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l := l
		delay := time.Duration(l.rng.Int63n(int64(s.period)))
		s.clk.AfterFunc(delay, func() { l.fn(raw) })
	}
	return nil
}

// Subscribe registers a receiver. If a table is already on air, fn sees
// it after the tune-in repetition delay. rng drives this receiver's
// repetition phase. The returned cancel detaches the receiver (power
// off / channel change).
func (s *Signalling) Subscribe(rng *rand.Rand, fn func(raw []byte)) (cancel func()) {
	l := &sigListener{rng: rng, fn: fn}
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.listeners[id] = l
	current := s.current
	s.mu.Unlock()
	if current != nil {
		delay := time.Duration(rng.Int63n(int64(s.period)))
		s.clk.AfterFunc(delay, func() {
			s.mu.Lock()
			_, live := s.listeners[id]
			s.mu.Unlock()
			if live {
				fn(current)
			}
		})
	}
	return func() {
		s.mu.Lock()
		delete(s.listeners, id)
		s.mu.Unlock()
	}
}
