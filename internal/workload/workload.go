// Package workload models MTC jobs as the paper defines them: a job is
// J = (I, n, T, R) with image size I, n independent tasks, each task
// t = (s, p) with input size s and processing time p on a reference
// set-top box, producing a result of size r. Generators build jobs for
// the experiment sweeps, including the Φ-parameterized scenarios of
// Figures 6 and 7.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"oddci/internal/analytic"
)

// Task is one unit of independent work.
type Task struct {
	ID int
	// InputBytes is s: bytes fetched from the Backend before
	// processing (0 for parametric applications).
	InputBytes int
	// OutputBytes is r: bytes of result returned to the Backend.
	OutputBytes int
	// STBSeconds is p: processing time on a reference set-top box.
	STBSeconds float64
	// Payload optionally carries concrete work (e.g. a BLAST work
	// unit) for byte-exact demos; the simulator only needs the sizes.
	Payload any
}

// Job is a bag of independent tasks plus the application image that must
// be staged to every node.
type Job struct {
	Name       string
	ImageBytes int
	Tasks      []Task
}

// TotalSTBSeconds sums task processing times.
func (j *Job) TotalSTBSeconds() float64 {
	var total float64
	for _, t := range j.Tasks {
		total += t.STBSeconds
	}
	return total
}

// MeanTask returns the average (s, r, p) across the job's tasks.
func (j *Job) MeanTask() (inBytes, outBytes float64, seconds float64) {
	if len(j.Tasks) == 0 {
		return 0, 0, 0
	}
	for _, t := range j.Tasks {
		inBytes += float64(t.InputBytes)
		outBytes += float64(t.OutputBytes)
		seconds += t.STBSeconds
	}
	n := float64(len(j.Tasks))
	return inBytes / n, outBytes / n, seconds / n
}

// Generator builds synthetic jobs.
type Generator struct {
	// Name labels generated jobs.
	Name string
	// ImageBytes is the application image size I.
	ImageBytes int
	// Tasks is n.
	Tasks int
	// InputBytes, OutputBytes are the mean s and r.
	InputBytes, OutputBytes int
	// MeanSeconds is the mean p on a reference STB.
	MeanSeconds float64
	// JitterCV, if positive, draws each task's p from a lognormal with
	// this coefficient of variation around MeanSeconds. Sizes stay
	// fixed.
	JitterCV float64
	// Rng drives jitter; required when JitterCV > 0.
	Rng *rand.Rand
}

// Generate builds the job.
func (g *Generator) Generate() (*Job, error) {
	if g.Tasks <= 0 {
		return nil, fmt.Errorf("workload: task count %d must be positive", g.Tasks)
	}
	if g.MeanSeconds <= 0 {
		return nil, fmt.Errorf("workload: mean task time %v must be positive", g.MeanSeconds)
	}
	if g.JitterCV > 0 && g.Rng == nil {
		return nil, fmt.Errorf("workload: jitter requires a Rng")
	}
	j := &Job{Name: g.Name, ImageBytes: g.ImageBytes, Tasks: make([]Task, g.Tasks)}
	// Lognormal with mean MeanSeconds and CV JitterCV:
	// sigma² = ln(1+CV²), mu = ln(mean) - sigma²/2.
	var mu, sigma float64
	if g.JitterCV > 0 {
		sigma2 := math.Log(1 + g.JitterCV*g.JitterCV)
		sigma = math.Sqrt(sigma2)
		mu = math.Log(g.MeanSeconds) - sigma2/2
	}
	for i := range j.Tasks {
		p := g.MeanSeconds
		if g.JitterCV > 0 {
			p = math.Exp(mu + sigma*g.Rng.NormFloat64())
		}
		j.Tasks[i] = Task{
			ID:          i,
			InputBytes:  g.InputBytes,
			OutputBytes: g.OutputBytes,
			STBSeconds:  p,
		}
	}
	return j, nil
}

// Params derives the analytic parameters that describe this job on an
// instance of N nodes with channel capacities beta and delta.
func (j *Job) Params(nodes int, beta, delta float64) analytic.Params {
	s, r, p := j.MeanTask()
	return analytic.Params{
		ImageBits:   float64(j.ImageBytes) * 8,
		Beta:        beta,
		Delta:       delta,
		N:           float64(nodes),
		Tasks:       float64(len(j.Tasks)),
		TaskInBits:  s * 8,
		TaskOutBits: r * 8,
		TaskSeconds: p,
	}
}
