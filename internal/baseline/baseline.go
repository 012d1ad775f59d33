// Package baseline implements the comparator infrastructures of Table I
// so the paper's qualitative claims become measurable: how long does it
// take each technology to stage an application image onto N nodes and
// have them ready to compute?
//
//   - Desktop grid: a master unicasts the image to every worker; the
//     master's uplink is the bottleneck, so staging grows linearly in N.
//   - IaaS: virtual machines boot with bounded provisioning concurrency,
//     so staging grows as ceil(N/C)·boot.
//   - Multicast overlay: workers re-serve the image to k children each
//     (store-and-forward), so staging grows logarithmically in N.
//   - OddCI: one broadcast transmission reaches everyone; staging is
//     flat in N (1.5·I/β expected, cyclic carousel).
//
// Each model has a closed form and a discrete-event simulation; tests
// pin them to each other.
package baseline

import (
	"errors"
	"math"
	"time"

	"oddci/internal/simtime"
)

// StagingResult reports one staging run.
type StagingResult struct {
	// Last is when the final node became ready (the setup makespan).
	Last time.Duration
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Unicast models the desktop-grid master: N workers each pull I bytes
// through a master uplink of uplinkBps, each worker additionally capped
// at deltaBps. The master serves transfers fairly (processor sharing
// approximated by serial service in image-sized units, which yields the
// same completion envelope).
type Unicast struct {
	ImageBytes int64
	UplinkBps  float64
	DeltaBps   float64
}

// Analytic returns the closed-form staging envelope.
func (u Unicast) Analytic(n int) (StagingResult, error) {
	if err := u.validate(); err != nil {
		return StagingResult{}, err
	}
	// Worker i (1-based, serial service) finishes at
	// max(i·I/U, I/δ): the uplink serializes, but no single transfer
	// beats the worker's own link.
	iu := float64(u.ImageBytes) * 8 / u.UplinkBps
	id := float64(u.ImageBytes) * 8 / u.DeltaBps
	return StagingResult{Last: secs(math.Max(float64(n)*iu, id))}, nil
}

// Simulate runs the staging as a DES and returns the same envelope.
func (u Unicast) Simulate(clk *simtime.Sim, n int) (StagingResult, error) {
	if err := u.validate(); err != nil {
		return StagingResult{}, err
	}
	start := clk.Now()
	var last time.Duration
	served := 0
	uplinkFree := start
	for i := 0; i < n; i++ {
		txDone := uplinkFree.Add(secs(float64(u.ImageBytes) * 8 / u.UplinkBps))
		uplinkFree = txDone
		ready := txDone
		if minReady := start.Add(secs(float64(u.ImageBytes) * 8 / u.DeltaBps)); ready.Before(minReady) {
			ready = minReady
		}
		clk.AfterFunc(ready.Sub(start), func() {
			d := clk.Now().Sub(start)
			if d > last {
				last = d
			}
			served++
		})
	}
	clk.Wait()
	if served != n {
		return StagingResult{}, errors.New("baseline: unicast simulation lost nodes")
	}
	return StagingResult{Last: last}, nil
}

func (u Unicast) validate() error {
	if u.ImageBytes <= 0 || u.UplinkBps <= 0 || u.DeltaBps <= 0 {
		return errors.New("baseline: unicast needs positive image and rates")
	}
	return nil
}

// IaaS models bounded-concurrency VM provisioning: C machines boot in
// parallel, each taking Boot plus the image pull at deltaBps from a
// well-provisioned store.
type IaaS struct {
	ImageBytes  int64
	DeltaBps    float64
	Boot        time.Duration
	Concurrency int
}

// Analytic returns the staging envelope.
func (v IaaS) Analytic(n int) (StagingResult, error) {
	if v.Concurrency <= 0 || v.Boot <= 0 || v.DeltaBps <= 0 {
		return StagingResult{}, errors.New("baseline: iaas needs positive boot, concurrency and rate")
	}
	per := v.Boot + secs(float64(v.ImageBytes)*8/v.DeltaBps)
	waves := (n + v.Concurrency - 1) / v.Concurrency
	return StagingResult{Last: time.Duration(waves) * per}, nil
}

// MulticastTree models an overlay where every staged worker serves k
// children (store-and-forward levels at deltaBps).
type MulticastTree struct {
	ImageBytes int64
	DeltaBps   float64
	Fanout     int
}

// Analytic returns the staging envelope: level ℓ finishes at ℓ·I/δ.
func (m MulticastTree) Analytic(n int) (StagingResult, error) {
	if m.Fanout < 2 || m.DeltaBps <= 0 || m.ImageBytes <= 0 {
		return StagingResult{}, errors.New("baseline: multicast needs fanout ≥ 2 and positive rates")
	}
	per := float64(m.ImageBytes) * 8 / m.DeltaBps
	// Nodes per level: k, k², ...; node count n ⇒ depth ceil(log_k of
	// covered population).
	level := 1
	remaining := n
	capacity := m.Fanout
	var last float64
	for remaining > 0 {
		take := remaining
		if take > capacity {
			take = capacity
		}
		last = float64(level) * per
		remaining -= take
		capacity *= m.Fanout
		level++
	}
	return StagingResult{Last: secs(last)}, nil
}

// OddCI models the broadcast staging: every tuned node assembles the
// image from the cyclic carousel; for a carousel dominated by the image
// the expected per-node time is 1.5·I/β and the worst case 2·I/β,
// independent of N.
type OddCI struct {
	ImageBytes int64
	BetaBps    float64
}

// Analytic returns the staging envelope.
func (o OddCI) Analytic(n int) (StagingResult, error) {
	if o.ImageBytes <= 0 || o.BetaBps <= 0 {
		return StagingResult{}, errors.New("baseline: oddci needs positive image and rate")
	}
	cycle := float64(o.ImageBytes) * 8 / o.BetaBps
	return StagingResult{Last: secs(2 * cycle)}, nil
}
