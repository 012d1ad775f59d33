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
	seq       uint64
	spare     *sleep // the last finished sleep's state, for the next to reuse
}

// waker is one sleep's registered wake callback. The sequence number lets
// a sleep that ended on its timer drop its own spent entry, which would
// otherwise stay until Cancel.
type waker struct {
	seq  uint64
	wake func()
}

// sleep is the state of one Sleep call, kept in one struct so that
// nothing escapes on its own. Its publish func is bound once, when the
// struct is made, and the struct is reused by the next Sleep.
type sleep struct {
	i       *Interrupter
	clk     Clock
	d       time.Duration
	tm      Timer // set, with seq, only if park filed a wake entry
	seq     uint64
	publish func(wake func())
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
		wk.wake()
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
	i.mu.Unlock()
	if sl == nil {
		sl = &sleep{i: i}
		sl.publish = sl.park
	}
	sl.clk, sl.d = clk, d

	clk.Suspend(sl.publish)
	filed := sl.tm != nil
	if filed {
		sl.tm.Stop()
	}

	i.mu.Lock()
	if filed {
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

// park is a sleep's publish func: it files wake for Cancel and books the
// timer, or wakes at once if Cancel came first.
func (sl *sleep) park(wake func()) {
	i := sl.i
	i.mu.Lock()
	if i.cancelled {
		i.mu.Unlock()
		wake()
		return
	}
	sl.seq = i.seq
	i.seq++
	i.wakers = append(i.wakers, waker{seq: sl.seq, wake: wake})
	i.mu.Unlock()
	sl.tm = sl.clk.AfterFunc(sl.d, wake)
}
