package workload

import (
	"math"
	"math/rand"
	"testing"

	"oddci/internal/analytic"
)

// fromParams builds the uniform job described by an analytic parameter
// set — the inverse of Job.Params.
func fromParams(p analytic.Params, name string) (*Job, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		Name:        name,
		ImageBytes:  int(p.ImageBits / 8),
		Tasks:       int(p.Tasks),
		InputBytes:  int(p.TaskInBits / 8),
		OutputBytes: int(p.TaskOutBits / 8),
		MeanSeconds: p.TaskSeconds,
	}
	return g.Generate()
}

func TestGeneratorUniform(t *testing.T) {
	g := &Generator{Name: "u", ImageBytes: 1 << 20, Tasks: 100,
		InputBytes: 512, OutputBytes: 512, MeanSeconds: 2}
	j, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Tasks) != 100 {
		t.Fatalf("tasks = %d", len(j.Tasks))
	}
	for i, task := range j.Tasks {
		if task.ID != i || task.STBSeconds != 2 || task.InputBytes != 512 {
			t.Fatalf("task %d: %+v", i, task)
		}
	}
	if got := j.TotalSTBSeconds(); got != 200 {
		t.Fatalf("total = %v", got)
	}
	s, r, p := j.MeanTask()
	if s != 512 || r != 512 || p != 2 {
		t.Fatalf("means = %v %v %v", s, r, p)
	}
}

func TestGeneratorJitterPreservesMean(t *testing.T) {
	g := &Generator{Tasks: 20000, MeanSeconds: 5, JitterCV: 0.5,
		Rng: rand.New(rand.NewSource(42))}
	j, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	_, _, p := j.MeanTask()
	if math.Abs(p-5)/5 > 0.03 {
		t.Fatalf("jittered mean %v, want ≈5", p)
	}
	var differ bool
	for _, task := range j.Tasks[1:] {
		if task.STBSeconds != j.Tasks[0].STBSeconds {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("jitter produced identical tasks")
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := (&Generator{Tasks: 0, MeanSeconds: 1}).Generate(); err == nil {
		t.Fatal("zero tasks accepted")
	}
	if _, err := (&Generator{Tasks: 1}).Generate(); err == nil {
		t.Fatal("zero mean accepted")
	}
	if _, err := (&Generator{Tasks: 1, MeanSeconds: 1, JitterCV: 0.1}).Generate(); err == nil {
		t.Fatal("jitter without rng accepted")
	}
}

func TestFromParamsRoundTrip(t *testing.T) {
	p := analytic.Figure6Defaults(10, 100).WithPhi(100)
	j, err := fromParams(p, "fig6")
	if err != nil {
		t.Fatal(err)
	}
	got := j.Params(100, p.Beta, p.Delta)
	if math.Abs(got.TaskSeconds-p.TaskSeconds) > 1e-9 {
		t.Fatalf("p: %v vs %v", got.TaskSeconds, p.TaskSeconds)
	}
	if got.Tasks != p.Tasks {
		t.Fatalf("n: %v vs %v", got.Tasks, p.Tasks)
	}
	if math.Abs(got.Makespan()-p.Makespan()) > 1e-6*p.Makespan() {
		t.Fatalf("makespan drifted: %v vs %v", got.Makespan(), p.Makespan())
	}
	if _, err := fromParams(analytic.Params{}, "bad"); err == nil {
		t.Fatal("invalid params accepted")
	}
}
