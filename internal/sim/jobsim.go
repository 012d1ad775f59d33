// Package sim provides the large-N discrete-event model of an OddCI
// instance executing a bag-of-tasks job — the engine behind the Figure
// 6/7 sweeps, where populations up to millions of nodes and task counts
// in the millions make the goroutine-per-node live mode (internal/
// system) impractical.
//
// The model keeps exactly the quantities equation (1) is built from:
// per-node wakeup times drawn from the carousel model, then a
// work-conserving pull loop per node with s/δ input transfer, p
// compute, r/δ result transfer. Everything else (heartbeats, AIT
// signalling, maintenance) is second-order for makespan and is
// validated separately by the live mode; an integration test pins this
// model against the live system at small N.
package sim

import (
	"errors"
	"time"

	"oddci/internal/analytic"
)

// JobConfig parameterizes one run.
type JobConfig struct {
	Nodes      int
	Tasks      int
	ImageBytes int64
	// Beta and Delta are channel capacities in bps.
	Beta, Delta float64
	// TaskInBytes (s), TaskOutBytes (r), TaskSeconds (p).
	TaskInBytes  int
	TaskOutBytes int
	TaskSeconds  float64
	Seed         int64
}

func (c *JobConfig) validate() error {
	switch {
	case c.Nodes <= 0 || c.Tasks <= 0:
		return errors.New("sim: nodes and tasks must be positive")
	case c.Beta <= 0 || c.Delta <= 0:
		return errors.New("sim: channel rates must be positive")
	case c.TaskSeconds <= 0:
		return errors.New("sim: task time must be positive")
	case c.ImageBytes < 0 || c.TaskInBytes < 0 || c.TaskOutBytes < 0:
		return errors.New("sim: sizes must be non-negative")
	}
	return nil
}

// JobResult reports one run.
type JobResult struct {
	Makespan   time.Duration
	WakeupMean time.Duration
	WakeupMax  time.Duration
	// Efficiency is equation (2) evaluated on the measured makespan.
	Efficiency float64
	// TasksMin/TasksMax report per-node load balance.
	TasksMin, TasksMax int
	Events             uint64
}

// Params converts the configuration to the closed-form model's inputs.
func (c JobConfig) Params() analytic.Params {
	return analytic.Params{
		ImageBits:   float64(c.ImageBytes) * 8,
		Beta:        c.Beta,
		Delta:       c.Delta,
		N:           float64(c.Nodes),
		Tasks:       float64(c.Tasks),
		TaskInBits:  float64(c.TaskInBytes) * 8,
		TaskOutBits: float64(c.TaskOutBytes) * 8,
		TaskSeconds: c.TaskSeconds,
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// RunJob executes the model and returns measured quantities: the churn
// model with nobody leaving.
func RunJob(cfg JobConfig) (JobResult, error) {
	out, err := run(ChurnJobConfig{JobConfig: cfg})
	return out.JobResult, err
}
