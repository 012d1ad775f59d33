package simtime

import (
	"slices"
	"sync"
	"time"
)

// Interrupter provides cancellable sleeps over a Clock: long waits
// (heartbeat intervals, task execution) that must end promptly when the
// owning component is torn down (DVE destruction, Xlet destroy, power
// off). The zero value is ready to use.
type Interrupter struct {
	mu        sync.Mutex
	cancelled bool
	wakers    []waker
	first     [1]waker // wakers' first array, all a lone sleeper needs
	seq       uint64
	own       sleep  // the first sleep's state, made without an allocation
	spare     *sleep // the last finished sleep's state, for the next to reuse
}

// waker is one sleep's registered Waker. The sequence number lets a
// sleep that ended on its timer drop its own spent entry, which would
// otherwise stay until Cancel.
type waker struct {
	seq uint64
	w   Waker
}

// sleep is the state of one Sleep call, kept in one struct so that
// nothing escapes on its own. Its publish func is bound once, when the
// struct is made, and the struct is reused by the next Sleep. The timer
// wakes the park's Waker, not the struct, so a timer that fires late
// under Real (Stop came too late) cannot end a later sleep that reuses
// the struct.
type sleep struct {
	i       *Interrupter
	clk     Clock
	d       time.Duration
	tm      Timer
	seq     uint64 // set, with tm, only if filed
	filed   bool
	publish func(Waker)
}

// Cancelled reports whether Cancel has been called.
func (i *Interrupter) Cancelled() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.cancelled
}

// Cancel interrupts all current and future sleeps.
func (i *Interrupter) Cancel() {
	i.mu.Lock()
	i.cancelled = true
	w := i.wakers
	i.wakers = nil
	i.mu.Unlock()
	for _, wk := range w {
		wk.w.Wake()
	}
}

// Sleep blocks for d or until Cancel, whichever comes first. It reports
// whether the full duration elapsed without cancellation.
func (i *Interrupter) Sleep(clk Clock, d time.Duration) bool {
	i.mu.Lock()
	if i.cancelled {
		i.mu.Unlock()
		return false
	}
	sl := i.spare
	i.spare = nil
	if sl == nil && i.own.i == nil {
		sl = &i.own
		sl.i = i
		sl.publish = sl.park
	}
	i.mu.Unlock()
	if sl == nil {
		sl = &sleep{i: i}
		sl.publish = sl.park
	}
	sl.clk, sl.d = clk, d

	clk.Suspend(sl.publish)
	sl.tm.Stop()

	i.mu.Lock()
	if sl.filed {
		for k, wk := range i.wakers {
			if wk.seq == sl.seq {
				i.wakers = slices.Delete(i.wakers, k, k+1)
				break
			}
		}
	}
	ok := !i.cancelled
	*sl = sleep{i: i, publish: sl.publish}
	i.spare = sl
	i.mu.Unlock()
	return ok
}

// park is a sleep's publish func: it files w for Cancel and books the
// timer on it, or wakes at once if Cancel came first.
func (sl *sleep) park(w Waker) {
	i := sl.i
	i.mu.Lock()
	if i.cancelled {
		i.mu.Unlock()
		w.Wake()
		return
	}
	sl.seq, sl.filed = i.seq, true
	i.seq++
	if i.wakers == nil {
		// Safe to reuse: Cancel detaches the list only once, for good.
		i.wakers = i.first[:0]
	}
	i.wakers = append(i.wakers, waker{seq: sl.seq, w: w})
	i.mu.Unlock()
	sl.tm = sl.clk.WakeAfter(sl.d, w)
}
