// Command oddci-bench emits machine-readable CSV sweeps of the core
// models, for plotting or regression tracking:
//
//	oddci-bench -sweep fig6  > fig6.csv
//	oddci-bench -sweep fig7  > fig7.csv
//	oddci-bench -sweep table1 > table1.csv
//	oddci-bench -sweep churn  > churn.csv
//
// The backend sweep instead benchmarks the scheduler hot paths
// (dispatch, result commit, end-to-end round trips) and writes a JSON
// regression gate with ops/sec and allocs/op per path, mirrored as CSV
// on stdout:
//
//	oddci-bench -sweep backend -out BENCH_backend.json
//
// The fleet sweep drives the million-PNA simulation harness
// (internal/fleet) through wakeup→quorum at populations from 10³ to
// 10⁶, recording wall clock, peak RSS, and event counts per run, and
// fails if any run's availability or ramp-up curve leaves its analytic
// tolerance:
//
//	oddci-bench -sweep fleet -out BENCH_fleet.json
//
// The obs sweep is the tracing overhead gate: it measures the task
// hand-off against a coordinator carrying a sampled-off span
// collector versus the untraced baseline, and fails if the sampled-off
// hot path regresses more than 2% or allocates:
//
//	oddci-bench -sweep obs -out BENCH_obs.json
//
// The adversary sweep runs full byzantine deployments (fraction ×
// replication × seed) against the credibility-weighted quorum and gates
// on zero wrong commits at Replication 5, ≥95% byzantine quarantine,
// and armed dispatch throughput within 3% of baseline:
//
//	oddci-bench -sweep adversary -out BENCH_adversary.json
//
// The image sweep gates the content-addressed delta distribution path:
// a 16-module carousel re-airs 1/16, 1/4 and full deltas (re-air wire
// bytes must stay ≤1.25× the changed payload, warm receivers converge
// from the delta alone, legacy receivers converge from lossy full
// cycles), and transport staging encodes must be flat from 1 to 16
// sessions with a one-chunk UpdateImage costing exactly 3 encodes
// (control, manifest, the chunk):
//
//	oddci-bench -sweep image -out BENCH_image.json
//
// The federation sweep gates the sharded control plane: convergence
// latency at 1→16 consistent-hash coordinator shards (fixed per-shard
// population) must stay within 1.15× the single-shard baseline; a
// kill-one-shard run must fail over from its journal and reconverge
// with zero duplicate wakeups; the SoA fleet engine re-runs the claim
// at 10⁶ PNAs with a mid-ramp kill/recover; and four shard carousels
// airing one image through a shared chunk cache must hit on every
// shard after the first:
//
//	oddci-bench -sweep federation -out BENCH_federation.json
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"time"

	"oddci/internal/analytic"
	"oddci/internal/baseline"
	"oddci/internal/sim"
)

func main() {
	var (
		sweep = flag.String("sweep", "fig6", "one of fig6, fig7, table1, churn, backend, fleet, obs, adversary, image, federation")
		seed  = flag.Int64("seed", 2009, "random seed")
		nodes = flag.Int("nodes", 200, "DES population for validated sweeps")
		out   = flag.String("out", "", "output file for a sweep's JSON gate (default BENCH_<sweep>.json)")
	)
	flag.Parse()
	w := csv.NewWriter(os.Stdout)
	defer w.Flush()

	var err error
	switch *sweep {
	case "fig6", "fig7":
		err = sweepFig(w, *sweep, *seed, *nodes)
	case "table1":
		err = sweepTable1(w)
	case "churn":
		err = sweepChurn(w, *seed, *nodes)
	case "backend":
		if *out == "" {
			*out = "BENCH_backend.json"
		}
		err = sweepBackend(w, *out)
	case "fleet":
		if *out == "" {
			*out = "BENCH_fleet.json"
		}
		err = sweepFleet(w, *seed, *out)
	case "obs":
		if *out == "" {
			*out = "BENCH_obs.json"
		}
		err = sweepObs(w, *out)
	case "adversary":
		if *out == "" {
			*out = "BENCH_adversary.json"
		}
		err = sweepAdversary(w, *seed, *out)
	case "image":
		if *out == "" {
			*out = "BENCH_image.json"
		}
		err = sweepImage(w, *seed, *out)
	case "federation":
		if *out == "" {
			*out = "BENCH_federation.json"
		}
		err = sweepFederation(w, *seed, *out)
	default:
		err = fmt.Errorf("unknown sweep %q", *sweep)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

func sweepFig(w *csv.Writer, which string, seed int64, nodes int) error {
	if err := w.Write([]string{"ratio", "phi", "analytic", "des"}); err != nil {
		return err
	}
	for _, ratio := range []float64{1, 10, 100, 1000} {
		for e := 0.0; e <= 5.0; e += 0.5 {
			phi := math.Pow(10, e)
			p := analytic.Figure6Defaults(ratio, float64(nodes)).WithPhi(phi)
			res, err := sim.RunJob(sim.JobConfig{
				Nodes:        nodes,
				Tasks:        int(ratio) * nodes,
				ImageBytes:   int64(p.ImageBits / 8),
				Beta:         p.Beta,
				Delta:        p.Delta,
				TaskInBytes:  int(p.TaskInBits / 8),
				TaskOutBytes: int(p.TaskOutBits / 8),
				TaskSeconds:  p.TaskSeconds,
				Seed:         seed,
			})
			if err != nil {
				return err
			}
			var ana, des float64
			if which == "fig6" {
				ana, des = p.Efficiency(), res.Efficiency
			} else {
				ana, des = p.Makespan(), res.Makespan.Seconds()
			}
			if err := w.Write([]string{f(ratio), f(phi), f(ana), f(des)}); err != nil {
				return err
			}
		}
	}
	return nil
}

func sweepTable1(w *csv.Writer) error {
	if err := w.Write([]string{"n", "oddci", "grid", "iaas", "multicast"}); err != nil {
		return err
	}
	const img = 8 << 20
	oddci := baseline.OddCI{ImageBytes: img, BetaBps: 1e6}
	grid := baseline.Unicast{ImageBytes: img, UplinkBps: 1e9, DeltaBps: 10e6}
	iaas := baseline.IaaS{ImageBytes: img, DeltaBps: 1e9, Boot: 2 * time.Minute, Concurrency: 100}
	tree := baseline.MulticastTree{ImageBytes: img, DeltaBps: 10e6, Fanout: 8}
	for n := 10; n <= 10_000_000; n *= 10 {
		ro, err := oddci.Analytic(n)
		if err != nil {
			return err
		}
		rg, err := grid.Analytic(n)
		if err != nil {
			return err
		}
		ri, err := iaas.Analytic(n)
		if err != nil {
			return err
		}
		rm, err := tree.Analytic(n)
		if err != nil {
			return err
		}
		row := []string{strconv.Itoa(n), f(ro.Last.Seconds()), f(rg.Last.Seconds()),
			f(ri.Last.Seconds()), f(rm.Last.Seconds())}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

func sweepChurn(w *csv.Writer, seed int64, nodes int) error {
	if err := w.Write([]string{"mean_on_min", "phi", "efficiency", "tasks_lost", "departures"}); err != nil {
		return err
	}
	for _, onMin := range []int{10, 20, 30, 60, 120, 240} {
		for _, phi := range []float64{100, 1000, 10000} {
			p := analytic.Figure6Defaults(20, float64(nodes)).WithPhi(phi)
			res, err := sim.RunChurnJob(sim.ChurnJobConfig{
				JobConfig: sim.JobConfig{
					Nodes:        nodes,
					Tasks:        20 * nodes,
					ImageBytes:   int64(p.ImageBits / 8),
					Beta:         p.Beta,
					Delta:        p.Delta,
					TaskInBytes:  int(p.TaskInBits / 8),
					TaskOutBytes: int(p.TaskOutBits / 8),
					TaskSeconds:  p.TaskSeconds,
					Seed:         seed,
				},
				MeanOn:  time.Duration(onMin) * time.Minute,
				MeanOff: 5 * time.Minute,
			})
			if err != nil {
				return err
			}
			row := []string{strconv.Itoa(onMin), f(phi), f(res.Efficiency),
				strconv.Itoa(res.TasksLost), strconv.Itoa(res.Departures)}
			if err := w.Write(row); err != nil {
				return err
			}
		}
	}
	return nil
}
