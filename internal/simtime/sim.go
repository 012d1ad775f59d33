package simtime

import (
	"fmt"
	"math"
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
//
// In steady state Sim allocates nothing per timer or park: events and
// parkers come off free lists, and the Timer and waker handed out are
// values that carry the generation they were issued under.
type Sim struct {
	mu   sync.Mutex
	cond *sync.Cond

	now   time.Time
	nowNS int64 // now, in nanoseconds since the clock's start
	seq   uint64

	events eventHeap
	live   int // non-stopped events in the heap

	actors     int // goroutines spawned via Go that have not returned
	runnable   int // actors not currently parked in Sleep or a Cond
	publishing int // actors between runnable-- and their publish returning
	advancing  bool

	fired uint64 // total events fired, for diagnostics

	idle    []*event  // recycled events for AfterFunc and wakeAfter to reuse
	parkers []*parker // idle parkers for park to reuse
}

// NewSim returns a Sim clock whose virtual time starts at start.
func NewSim(start time.Time) *Sim {
	s := &Sim{now: start}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// An event is one booking's callback: fn, or a wake of w when fn is nil.
// Sim recycles an event once it leaves the heap and bumps gen, which
// turns every Timer issued for the old booking stale.
type event struct {
	s       *Sim
	fn      func()
	w       waker
	gen     uint64
	stopped bool
}

// stop implements Timer.Stop for a booking of ev made in generation gen.
func (s *Sim) stop(ev *event, gen uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.gen != gen || ev.stopped {
		return false
	}
	ev.stopped = true
	s.live--
	return true
}

// slot is one heap entry. The ordering key sits inline, so sifting
// compares without dereferencing an event.
type slot struct {
	at  int64 // nanoseconds since the clock's start
	seq uint64
	ev  *event
}

func (a slot) before(b slot) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventHeap is a binary min-heap of slots by (at, seq).
type eventHeap []slot

func (h *eventHeap) push(x slot) {
	*h = append(*h, x)
	q := *h
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !x.before(q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = x
}

func (h *eventHeap) pop() slot {
	q := *h
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q[n] = slot{}
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(x) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = x
	return top
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

// AfterFunc implements Clock.
func (s *Sim) AfterFunc(d time.Duration, fn func()) Timer {
	return s.book(d, fn, waker{})
}

// wakeAfter implements Clock.
func (s *Sim) wakeAfter(d time.Duration, w waker) Timer {
	return s.book(d, nil, w)
}

// book files an event that runs fn, or wakes w if fn is nil, d from now.
// An instant past the int64 nanosecond range, some 292 years after the
// start, is held at its end.
func (s *Sim) book(d time.Duration, fn func(), w waker) Timer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	var ev *event
	if n := len(s.idle); n > 0 {
		ev = s.idle[n-1]
		s.idle = s.idle[:n-1]
	} else {
		ev = &event{s: s}
	}
	ev.fn, ev.w = fn, w
	t := Timer{ev: ev, gen: ev.gen}
	s.events.push(slot{at: addNS(s.nowNS, d), seq: s.seq, ev: ev})
	s.seq++
	s.live++
	s.cond.Broadcast()
	s.mu.Unlock()
	return t
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

// wake resumes the actor parked on p in generation gen, at most once.
func (s *Sim) wake(p *parker, gen uint64) {
	s.mu.Lock()
	if p.gen != gen || p.woken.Load() {
		s.mu.Unlock()
		return
	}
	p.woken.Store(true)
	s.runnable++
	s.cond.Broadcast()
	s.mu.Unlock()
	p.wg.Done()
}

// suspend implements Clock.
func (s *Sim) suspend(c *Cond) { s.park(c.file) }

// park, the one place an actor gives up its turn (Sleep and suspend call
// it), runs publish with a waker and blocks until it is woken; time does
// not advance before publish returns. The waker is bound to the reused
// parker's generation, which moves on when the actor resumes, so a late
// or repeated wake does nothing to the parker's next park.
func (s *Sim) park(publish func(waker)) {
	s.mu.Lock()
	var p *parker
	if n := len(s.parkers); n > 0 {
		p = s.parkers[n-1]
		s.parkers[n-1] = nil
		s.parkers = s.parkers[:n-1]
	} else {
		p = &parker{s: s}
	}
	p.wg.Add(1)
	gen := p.gen
	s.runnable--
	s.publishing++
	s.mu.Unlock()

	publish(waker{p: p, gen: gen})

	s.mu.Lock()
	s.publishing--
	s.maybeAdvanceLocked()
	s.cond.Broadcast()
	s.mu.Unlock()

	p.wg.Wait()

	s.mu.Lock()
	p.gen++
	p.woken.Store(false)
	s.parkers = append(s.parkers, p)
	s.mu.Unlock()
}

// Sleep blocks the calling actor for d of virtual time. Its timer wakes
// the park's waker directly, so a steady-state Sleep allocates nothing.
func (s *Sim) Sleep(d time.Duration) {
	s.park(func(w waker) { s.wakeAfter(d, w) })
}

// popLocked removes the earliest live event, recycling it and every
// stopped event popped on the way, and returns its instant and what it
// runs. ok is false once nothing live is left.
func (s *Sim) popLocked() (at int64, fn func(), w waker, ok bool) {
	for len(s.events) > 0 {
		top := s.events.pop()
		ev := top.ev
		stopped := ev.stopped
		fn, w = ev.fn, ev.w
		s.recycleLocked(ev)
		if stopped {
			continue
		}
		s.live--
		return top.at, fn, w, true
	}
	return 0, nil, waker{}, false
}

// recycleLocked puts a popped event on the free list under a new
// generation, which every Timer issued for its last booking no longer
// matches.
func (s *Sim) recycleLocked(ev *event) {
	ev.fn, ev.w, ev.stopped = nil, waker{}, false
	ev.gen++
	s.idle = append(s.idle, ev)
}

// addNS returns ns+d, held at the ends of the int64 range.
func addNS(ns int64, d time.Duration) int64 {
	sum := ns + int64(d)
	switch {
	case d > 0 && sum < ns:
		return math.MaxInt64
	case d < 0 && sum > ns:
		return math.MinInt64
	}
	return sum
}

// fireLocked advances now to at, counts the event, and runs it with s.mu
// released. Caller holds s.mu; it is held again on return.
func (s *Sim) fireLocked(at int64, fn func(), w waker) {
	if at > s.nowNS {
		s.now = s.now.Add(time.Duration(at - s.nowNS))
		s.nowNS = at
	}
	s.fired++
	s.mu.Unlock()
	if fn != nil {
		fn()
	} else {
		w.wake()
	}
	s.mu.Lock()
}

// maybeAdvanceLocked fires pending events while no actor is runnable.
// Caller holds s.mu.
func (s *Sim) maybeAdvanceLocked() {
	if s.advancing || s.runnable > 0 || s.publishing > 0 {
		return
	}
	s.advancing = true
	for s.runnable == 0 && s.publishing == 0 {
		at, fn, w, ok := s.popLocked()
		if !ok {
			break
		}
		s.fireLocked(at, fn, w)
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
		limit := addNS(s.nowNS, t.Sub(s.now))
		if at, ok := s.peekLocked(); !ok || at > limit {
			if s.now.Before(t) {
				s.now, s.nowNS = t, limit
			}
			s.mu.Unlock()
			return
		}
		at, fn, w, _ := s.popLocked()
		s.fireLocked(at, fn, w)
		s.mu.Unlock()
	}
}

// peekLocked returns the instant of the earliest live event without
// removing it, recycling the stopped events ahead of it.
func (s *Sim) peekLocked() (int64, bool) {
	for len(s.events) > 0 {
		if top := s.events[0]; !top.ev.stopped {
			return top.at, true
		}
		s.recycleLocked(s.events.pop().ev)
	}
	return 0, false
}
