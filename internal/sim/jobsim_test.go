package sim

import (
	"math"
	"testing"
	"time"

	"oddci/internal/analytic"
)

func fig6Config(ratio, nodes int, phi float64) JobConfig {
	p := analytic.Figure6Defaults(float64(ratio), float64(nodes)).WithPhi(phi)
	return JobConfig{
		Nodes:        nodes,
		Tasks:        ratio * nodes,
		ImageBytes:   int64(p.ImageBits / 8),
		Beta:         p.Beta,
		Delta:        p.Delta,
		TaskInBytes:  int(p.TaskInBits / 8),
		TaskOutBytes: int(p.TaskOutBits / 8),
		TaskSeconds:  p.TaskSeconds,
		Seed:         1,
	}
}

func TestRunJobMatchesAnalyticAtHighRatio(t *testing.T) {
	// At n/N ≥ 10 the staggered joins smooth out and the DES should
	// track equation (1) within a few percent.
	for _, ratio := range []int{10, 100} {
		for _, phi := range []float64{100, 1000, 10000} {
			cfg := fig6Config(ratio, 200, phi)
			res, err := RunJob(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := cfg.Params().Makespan()
			got := res.Makespan.Seconds()
			if rel := math.Abs(got-want) / want; rel > 0.06 {
				t.Fatalf("ratio=%d Φ=%v: DES %.1fs vs analytic %.1fs (%.1f%%)",
					ratio, phi, got, want, rel*100)
			}
		}
	}
}

func TestRunJobEfficiencyShape(t *testing.T) {
	// E must increase with Φ at fixed ratio, and with ratio at fixed Φ.
	prev := -1.0
	for _, phi := range []float64{10, 100, 1000, 10000} {
		res, err := RunJob(fig6Config(100, 100, phi))
		if err != nil {
			t.Fatal(err)
		}
		if res.Efficiency <= prev {
			t.Fatalf("efficiency not increasing at Φ=%v: %v after %v", phi, res.Efficiency, prev)
		}
		prev = res.Efficiency
	}
	lo, err := RunJob(fig6Config(1, 100, 1000))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := RunJob(fig6Config(100, 100, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if hi.Efficiency <= lo.Efficiency {
		t.Fatalf("efficiency should grow with n/N: %v vs %v", lo.Efficiency, hi.Efficiency)
	}
}

func TestRunJobWakeupModels(t *testing.T) {
	cfgR := fig6Config(1, 2000, 100)
	cfgR.Seed = 7
	r, err := RunJob(cfgR)
	if err != nil {
		t.Fatal(err)
	}
	cycle := time.Duration(float64(cfgR.ImageBytes) * 8 / cfgR.Beta * float64(time.Second))
	// Random phase: mean ≈ 1.5 cycles, max ≤ 2 cycles.
	if got := r.WakeupMean.Seconds() / cycle.Seconds(); got < 1.45 || got > 1.55 {
		t.Fatalf("random-phase mean wakeup = %.3f cycles", got)
	}
	if r.WakeupMax > 2*cycle {
		t.Fatalf("wakeup max %v exceeds 2 cycles", r.WakeupMax)
	}
}

func TestRunJobLoadBalance(t *testing.T) {
	res, err := RunJob(fig6Config(50, 100, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksMin < 45 || res.TasksMax > 55 {
		t.Fatalf("work pull unbalanced: min=%d max=%d, want ≈50", res.TasksMin, res.TasksMax)
	}
}

func TestRunJobScalesToLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("large-N run")
	}
	cfg := fig6Config(10, 100000, 1000) // 1M tasks
	res, err := RunJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Params().Makespan()
	if rel := math.Abs(res.Makespan.Seconds()-want) / want; rel > 0.06 {
		t.Fatalf("large-N DES off by %.1f%%", rel*100)
	}
	if res.Events < 1000000 {
		t.Fatalf("suspiciously few events: %d", res.Events)
	}
}

func TestRunJobValidation(t *testing.T) {
	bad := []JobConfig{
		{},
		{Nodes: 1, Tasks: 1, Beta: 1},
		{Nodes: 1, Tasks: 1, Beta: 1, Delta: 1},
		{Nodes: 1, Tasks: 1, Beta: 1, Delta: 1, TaskSeconds: 1, ImageBytes: -1},
	}
	for i, cfg := range bad {
		if _, err := RunJob(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func BenchmarkRunJob100kTasks(b *testing.B) {
	cfg := fig6Config(10, 10000, 1000)
	for i := 0; i < b.N; i++ {
		if _, err := RunJob(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
