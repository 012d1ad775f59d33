package simtime

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Sim is a deterministic discrete-event Clock.
//
// Virtual time advances only when every goroutine spawned through Go is
// blocked inside a clock primitive; then the earliest pending timer fires.
// Events scheduled for the same instant fire in scheduling order, and a
// fired event's effects (typically waking one goroutine) are fully drained
// before the next event at the same instant fires, so runs are repeatable.
//
// A driver that is not itself an actor (a goroutine spawned through Go)
// and spawns several actors gets no such ordering guarantee: once every
// actor spawned so far is parked, the earliest booked event may fire
// before its next spawn, so spawn them from one actor instead.
//
// With no participating goroutines, Sim degenerates into a classic
// single-threaded event loop: schedule callbacks with AfterFunc and drive
// them with Wait. This is the mode used by the large-N experiment models.
type Sim struct {
	mu   sync.Mutex
	cond *sync.Cond

	now time.Time
	seq uint64

	events eventHeap
	live   int // non-stopped events in the heap

	actors     int // goroutines spawned via Go that have not returned
	runnable   int // actors not currently parked in Sleep/Suspend
	publishing int // actors between runnable-- and their publish returning
	advancing  bool

	fired uint64 // total events fired, for diagnostics
}

// NewSim returns a Sim clock whose virtual time starts at start.
func NewSim(start time.Time) *Sim {
	s := &Sim{now: start}
	s.cond = sync.NewCond(&s.mu)
	return s
}

type event struct {
	at      time.Time
	seq     uint64
	fn      func()
	stopped bool
	index   int // heap index, -1 once popped
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Fired reports how many events have fired so far; useful in tests and
// experiment diagnostics.
func (s *Sim) Fired() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

type simTimer struct {
	s  *Sim
	ev *event
}

func (t simTimer) Stop() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.ev.stopped || t.ev.index == -1 {
		return false
	}
	t.ev.stopped = true
	t.s.live--
	return true
}

// AfterFunc implements Clock.
func (s *Sim) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	ev := &event{at: s.now.Add(d), seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, ev)
	s.live++
	s.cond.Broadcast()
	s.mu.Unlock()
	return simTimer{s, ev}
}

// Go implements Clock.
func (s *Sim) Go(fn func()) {
	s.mu.Lock()
	s.actors++
	s.runnable++
	s.mu.Unlock()
	go func() {
		defer func() {
			s.mu.Lock()
			s.actors--
			s.runnable--
			s.maybeAdvanceLocked()
			s.cond.Broadcast()
			s.mu.Unlock()
		}()
		fn()
	}()
}

// Suspend implements Clock.
func (s *Sim) Suspend(publish func(wake func())) {
	ch := make(chan struct{})
	var once sync.Once
	wake := func() {
		once.Do(func() {
			s.mu.Lock()
			s.runnable++
			s.cond.Broadcast()
			s.mu.Unlock()
			close(ch)
		})
	}

	s.mu.Lock()
	s.runnable--
	s.publishing++
	s.mu.Unlock()

	publish(wake)

	s.mu.Lock()
	s.publishing--
	s.maybeAdvanceLocked()
	s.cond.Broadcast()
	s.mu.Unlock()

	<-ch
}

// Sleep implements Clock.
func (s *Sim) Sleep(d time.Duration) {
	s.Suspend(func(wake func()) { s.AfterFunc(d, wake) })
}

// popLocked removes and returns the earliest live event, or nil.
func (s *Sim) popLocked() *event {
	for s.events.Len() > 0 {
		ev := heap.Pop(&s.events).(*event)
		if ev.stopped {
			continue
		}
		s.live--
		return ev
	}
	return nil
}

// maybeAdvanceLocked fires pending events while no actor is runnable.
// Caller holds s.mu.
func (s *Sim) maybeAdvanceLocked() {
	if s.advancing || s.runnable > 0 || s.publishing > 0 {
		return
	}
	s.advancing = true
	for s.runnable == 0 && s.publishing == 0 {
		ev := s.popLocked()
		if ev == nil {
			break
		}
		if ev.at.After(s.now) {
			s.now = ev.at
		}
		s.fired++
		fn := ev.fn
		s.mu.Unlock()
		fn()
		s.mu.Lock()
	}
	s.advancing = false
	s.cond.Broadcast()
}

// Wait implements Clock. It drives the event loop when no participating
// goroutines exist, and otherwise blocks until all of them have returned
// and the event queue is drained of live events.
//
// Wait is also where a deadlock is declared: every actor parked, nothing
// live, and the driver here, so nobody is left who could book an event.
// An actor that parks before the driver reaches Wait proves nothing —
// the driver may still be about to call AfterFunc.
func (s *Sim) Wait() {
	s.mu.Lock()
	for {
		idle := !s.advancing && s.runnable == 0 && s.publishing == 0
		if idle && s.live > 0 {
			s.maybeAdvanceLocked()
			continue
		}
		if s.actors == 0 && s.live == 0 && !s.advancing {
			s.mu.Unlock()
			return
		}
		if idle && s.actors > 0 {
			msg := fmt.Sprintf("simtime: deadlock: %d goroutine(s) parked with no pending events at %s",
				s.actors, s.now.Format(time.RFC3339Nano))
			s.mu.Unlock() // release before panicking so recovery does not poison the clock
			panic(msg)
		}
		s.cond.Wait()
	}
}

// RunUntil drives the event loop (which must have no participating
// goroutines) until virtual time reaches t or no live events remain.
// It is a convenience for pure-DES experiment models.
func (s *Sim) RunUntil(t time.Time) {
	for {
		s.mu.Lock()
		if s.actors != 0 {
			s.mu.Unlock()
			panic("simtime: RunUntil requires a goroutine-free simulation")
		}
		ev := s.peekLocked()
		if ev == nil || ev.at.After(t) {
			if s.now.Before(t) && (ev == nil || ev.at.After(t)) {
				s.now = t
			}
			s.mu.Unlock()
			return
		}
		ev = s.popLocked()
		if ev.at.After(s.now) {
			s.now = ev.at
		}
		s.fired++
		fn := ev.fn
		s.mu.Unlock()
		fn()
	}
}

// peekLocked returns the earliest live event without removing it.
func (s *Sim) peekLocked() *event {
	for s.events.Len() > 0 {
		if s.events[0].stopped {
			heap.Pop(&s.events)
			continue
		}
		return s.events[0]
	}
	return nil
}
