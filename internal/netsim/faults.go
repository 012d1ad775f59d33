package netsim

import (
	"math/rand"
	"sync"

	"oddci/internal/obs"
)

// FaultPlan is a seeded, concurrency-safe fault-injection schedule:
// each call to Next draws whether the guarded operation should fail.
// It is the deterministic seam churn tests use to make head-end
// updates, broadcast sections, or direct-channel operations flaky
// without wiring randomness into the components themselves.
type FaultPlan struct {
	mu sync.Mutex
	// rng drives the failure draws.
	rng *rand.Rand
	// failProb is the per-operation failure probability.
	failProb float64
	// maxConsecutive bounds runs of injected failures (0 = unbounded):
	// with a bound, progress is guaranteed — the property retry loops
	// are tested against.
	maxConsecutive int
	consecutive    int
	injected       int64
	failed         int64
}

// NewFaultPlan builds a plan failing each operation with probability
// failProb, never injecting more than maxConsecutive failures in a row
// (0 = unbounded). rng is required when failProb is in (0,1).
func NewFaultPlan(rng *rand.Rand, failProb float64, maxConsecutive int) *FaultPlan {
	return &FaultPlan{rng: rng, failProb: failProb, maxConsecutive: maxConsecutive}
}

// Next draws one operation: true means the caller should fail it.
func (f *FaultPlan) Next() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.injected++
	fail := false
	switch {
	case f.failProb >= 1:
		fail = true
	case f.failProb > 0 && f.rng != nil:
		fail = f.rng.Float64() < f.failProb
	}
	if fail && f.maxConsecutive > 0 && f.consecutive >= f.maxConsecutive {
		fail = false
	}
	if fail {
		f.consecutive++
		f.failed++
	} else {
		f.consecutive = 0
	}
	return fail
}

// Stats reports operations seen and failures injected.
func (f *FaultPlan) Stats() (injected, failed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected, f.failed
}

// Instrument exposes the plan's draw and injected-failure counts as
// gauges named oddci_netsim_<label>_ops and oddci_netsim_<label>_faults.
func (f *FaultPlan) Instrument(reg *obs.Registry, label string) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("oddci_netsim_"+label+"_ops", "Operations drawn against the "+label+" fault plan", func() float64 {
		ops, _ := f.Stats()
		return float64(ops)
	})
	reg.GaugeFunc("oddci_netsim_"+label+"_faults", "Failures injected by the "+label+" fault plan", func() float64 {
		_, failed := f.Stats()
		return float64(failed)
	})
}
