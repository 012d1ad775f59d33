package oddci

// Benchmarks regenerating every table and figure of the paper, one per
// evaluation artifact (quick sweeps; run cmd/oddci-sim for the full
// versions), plus product benchmarks of the hot paths.

import (
	"testing"
	"time"

	"oddci/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Config{Seed: 2009 + int64(i), Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables)+len(res.Figs) == 0 {
			b.Fatal("no output")
		}
	}
}

// BenchmarkTable1Scalability regenerates Table I quantified: staging
// setup time vs N for OddCI and the comparator infrastructures.
func BenchmarkTable1Scalability(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2BlastSTB regenerates Table II: BLAST runtimes on the
// STB (in use / standby) vs the reference PC.
func BenchmarkTable2BlastSTB(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3Remote regenerates Table III: remote BLAST over the
// direct channel.
func BenchmarkTable3Remote(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkWakeup regenerates the §5.1 wakeup-overhead analysis.
func BenchmarkWakeup(b *testing.B) { benchExperiment(b, "wakeup") }

// BenchmarkFig6Efficiency regenerates Figure 6 (efficiency vs Φ).
func BenchmarkFig6Efficiency(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7Makespan regenerates Figure 7 (makespan vs Φ).
func BenchmarkFig7Makespan(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkAblationProbabilityGate measures instance-sizing accuracy of
// the wakeup probability gate.
func BenchmarkAblationProbabilityGate(b *testing.B) { benchExperiment(b, "abl-prob") }

// BenchmarkAblationChurn measures instance maintenance under churn.
func BenchmarkAblationChurn(b *testing.B) { benchExperiment(b, "abl-churn") }

// BenchmarkAblationHeartbeat measures Controller consolidation
// throughput.
func BenchmarkAblationHeartbeat(b *testing.B) { benchExperiment(b, "abl-heartbeat") }

// BenchmarkAblationCarousel contrasts carousel receiver strategies.
func BenchmarkAblationCarousel(b *testing.B) { benchExperiment(b, "abl-carousel") }

// BenchmarkChurnEfficiency runs the churn-vs-efficiency extension sweep.
func BenchmarkChurnEfficiency(b *testing.B) { benchExperiment(b, "churn-eff") }

// BenchmarkAblationTransport compares the DTV and IP-multicast
// substrates' wakeup distributions.
func BenchmarkAblationTransport(b *testing.B) { benchExperiment(b, "abl-transport") }

// deployAndRun is one whole live-mode deployment through the facade: a
// job of 5-second tasks, a 1 MiB worker image staged to every node, run
// to completion on the virtual clock.
func deployAndRun(tb testing.TB, nodes, tasks int, seed int64) (time.Duration, *JobHandle) {
	tb.Helper()
	sys, err := New(Options{Nodes: nodes, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	job, err := (&Generator{Name: "bench", Tasks: tasks, MeanSeconds: 5,
		InputBytes: 512, OutputBytes: 512, ImageBytes: 1 << 20}).Generate()
	if err != nil {
		tb.Fatal(err)
	}
	h, err := sys.SubmitJob(job)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sys.CreateInstance(InstanceSpec{
		Image: WorkerImage(1 << 20), Target: nodes, InitialProbability: 1,
	}); err != nil {
		tb.Fatal(err)
	}
	makespan, err := sys.RunJob(h)
	if err != nil {
		tb.Fatal(err)
	}
	return makespan, h
}

// BenchmarkEndToEndSmallJob runs a complete live deployment (32 STBs,
// 128 tasks) per iteration: the product's end-to-end hot path.
func BenchmarkEndToEndSmallJob(b *testing.B) {
	for i := 0; i < b.N; i++ {
		deployAndRun(b, 32, 128, int64(i))
	}
}

// BenchmarkSimDeploy128 is the benchmark's sim_deploy op (128 STBs,
// 1024 tasks, 1 MiB image) under `go test -bench SimDeploy -benchmem`:
// B/op is what staging allocates, which must not grow with the node
// count times the image size.
func BenchmarkSimDeploy128(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		deployAndRun(b, 128, 1024, int64(i))
	}
}

// BenchmarkVirtualHoursPerSecond measures simulation speed: how much
// virtual time one deployment-hour of idle heartbeating costs.
func BenchmarkVirtualHoursPerSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := New(Options{Nodes: 100, Seed: int64(i),
			HeartbeatPeriod: 30 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		sys.After(time.Hour, sys.Shutdown)
		sys.Wait()
	}
}
