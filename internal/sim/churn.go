package sim

import (
	"errors"
	"math/rand"
	"time"

	"oddci/internal/simtime"
)

// ChurnJobConfig extends JobConfig with the viewer behaviour the paper's
// model assumes away: §5.2.1 requires nodes that "will remain tuned for
// at least the time required to complete the execution of the
// application". This model lets them leave.
type ChurnJobConfig struct {
	JobConfig
	// MeanOn and MeanOff are the exponential up/down period means.
	MeanOn, MeanOff time.Duration
}

const (
	// leaseSlackSeconds: a task lost to a departure stays leased for 4·p
	// plus this long before the Backend re-dispatches it.
	leaseSlackSeconds = 120
	// rejoinSlack: a node pulls work again 1.5 carousel cycles plus this
	// long after powering back on (middleware boot + wakeup
	// retransmission + image re-fetch).
	rejoinSlack = time.Minute
	// retryAfter is the idle-node poll backoff.
	retryAfter = 30 * time.Second
	// requestBytes is the per-pull request overhead.
	requestBytes = 64
)

// ChurnJobResult extends the base result with churn accounting.
type ChurnJobResult struct {
	JobResult
	TasksLost  int
	Departures int
}

// RunChurnJob executes the churn model.
func RunChurnJob(cfg ChurnJobConfig) (ChurnJobResult, error) {
	if cfg.MeanOn <= 0 || cfg.MeanOff <= 0 {
		return ChurnJobResult{}, errors.New("sim: churn means must be positive")
	}
	return run(cfg)
}

// run is the one event loop: per-node wakeup draws, then a
// work-conserving pull loop per node. A zero MeanOn switches churn off:
// nobody leaves, so nothing is lost, re-dispatched or polled for.
func run(cfg ChurnJobConfig) (ChurnJobResult, error) {
	var out ChurnJobResult
	if err := cfg.JobConfig.validate(); err != nil {
		return out, err
	}
	churn := cfg.MeanOn > 0
	cycle := float64(cfg.ImageBytes) * 8 / cfg.Beta
	lease := secs(4*cfg.TaskSeconds + leaseSlackSeconds)
	rejoinDelay := secs(1.5*cycle) + rejoinSlack

	rng := rand.New(rand.NewSource(cfg.Seed))
	epoch := time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)
	clk := simtime.NewSim(epoch)
	perTask := secs(float64(requestBytes+cfg.TaskInBytes)*8/cfg.Delta) +
		secs(cfg.TaskSeconds) +
		secs(float64(cfg.TaskOutBytes)*8/cfg.Delta)

	var (
		queue     = cfg.Tasks
		remaining = cfg.Tasks // not yet successfully completed
		lastDone  time.Time
		wakeSum   time.Duration
		deathAt   []time.Time // churn only
		alive     = make([]bool, cfg.Nodes)
		taskCount = make([]int, cfg.Nodes)
	)

	if churn {
		deathAt = make([]time.Time, cfg.Nodes)
	}
	exp := func(mean time.Duration) time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(mean))
	}

	var pull func(i int)
	var nodeUp func(i int)

	pull = func(i int) {
		if !alive[i] || remaining == 0 {
			return
		}
		if queue == 0 {
			if churn {
				// Poll again later: a lease may expire meanwhile (the
				// Backend's RetryAfter backoff).
				clk.AfterFunc(retryAfter, func() { pull(i) })
			}
			return
		}
		queue--
		if churn && deathAt[i].Before(clk.Now().Add(perTask)) {
			// The node dies mid-task: the result is lost; the Backend
			// re-dispatches after the lease expires, and idle nodes find
			// the task on their next poll.
			out.TasksLost++
			clk.AfterFunc(deathAt[i].Sub(clk.Now())+lease, func() { queue++ })
			return
		}
		clk.AfterFunc(perTask, func() {
			remaining--
			taskCount[i]++
			lastDone = clk.Now()
			pull(i)
		})
	}

	nodeUp = func(i int) {
		alive[i] = true
		if churn {
			life := exp(cfg.MeanOn)
			deathAt[i] = clk.Now().Add(life)
			clk.AfterFunc(life, func() {
				alive[i] = false
				if remaining == 0 {
					return // the job already finished; not a departure it felt
				}
				out.Departures++
				off := exp(cfg.MeanOff)
				clk.AfterFunc(off+rejoinDelay, func() {
					if remaining > 0 {
						nodeUp(i) // nodeUp pulls
					}
				})
			})
		}
		pull(i)
	}

	for i := 0; i < cfg.Nodes; i++ {
		// Receivers begin reading at a uniformly random carousel phase:
		// W ~ U(C, 2C) for an image-dominated carousel, the paper's
		// 1.5·I/β expectation.
		w := secs(cycle * (1 + rng.Float64()))
		wakeSum += w
		if w > out.WakeupMax {
			out.WakeupMax = w
		}
		i := i
		clk.AfterFunc(w, func() { nodeUp(i) })
	}
	if churn {
		// Departures can starve a job for ever; give up at a horizon.
		clk.RunUntil(epoch.Add(1000 * time.Hour))
	} else {
		clk.Wait()
	}
	if remaining != 0 {
		return out, errors.New("sim: churn job did not complete within 1000 simulated hours")
	}

	makespan := lastDone.Sub(epoch)
	out.Makespan = makespan
	out.WakeupMean = wakeSum / time.Duration(cfg.Nodes)
	out.Events = clk.Fired()
	out.TasksMin = cfg.Tasks
	for _, tc := range taskCount {
		if tc < out.TasksMin {
			out.TasksMin = tc
		}
		if tc > out.TasksMax {
			out.TasksMax = tc
		}
	}
	p := cfg.Params()
	out.Efficiency = p.Tasks * p.TaskSeconds / (makespan.Seconds() * p.N)
	return out, nil
}
