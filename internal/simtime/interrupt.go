package simtime

import (
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
	c         Cond // on mu; Cancel broadcasts it
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
	i.c.Broadcast()
	i.mu.Unlock()
}

// Sleep blocks for d or until Cancel, whichever comes first. It reports
// whether the full duration elapsed without cancellation.
func (i *Interrupter) Sleep(clk Clock, d time.Duration) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.cancelled {
		i.c.L = &i.mu
		i.c.WaitFor(clk, d) // only Cancel broadcasts: one wait is the whole sleep
	}
	return !i.cancelled
}
