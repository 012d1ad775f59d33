// Command benchmark is this repository's one benchmark: four
// workloads, one per deployment mode plus a second use of the TCP
// plane, measured end to end with tracing off and layer by layer in a
// separate traced run. README.md has the tables; catalog.go names
// every workload and metric.
//
//	bash benchmark/run.sh --workload tcp_tasks --seed 1 --seconds 20 --trace 0
//	go run -C benchmark . -runs 5 -out a.json     # every workload, five seeds each
//	go run -C benchmark . -trace 1                # per-layer numbers and span files
//	go run -C benchmark . -compare a.json b.json  # apply the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// processStart is as close to process start as Go code gets: set-up
// time is counted from here.
var processStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run this one workload and print its result line; empty runs all four")
		seed      = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds   = fs.Float64("seconds", runSeconds, "measured window in seconds")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		quick     = fs.Bool("quick", false, "shrink every workload for a smoke run; the numbers mean nothing")
		runs      = fs.Int("runs", 1, "with no -workload: runs per workload, on seeds seed, seed+1, ...")
		out       = fs.String("out", "", "with no -workload: result file (default benchmark/out/result.json)")
		compare   = fs.Bool("compare", false, "compare two result files given as arguments; exit 1 on a regression")
		spec      = fs.Bool("spec", false, "print BENCHMARK.json as the catalogue defines it")
		setupOnly = fs.Bool("setup-only", false, "internal: set the workload up in this fresh process, print the seconds, exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *spec {
		blob, err := json.MarshalIndent(buildSpec(), "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", blob)
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files, got %d arguments", fs.NArg()))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse > 0 {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}

	outDir := filepath.Join(repoRoot(), "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	cfg := runConfig{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Quick: *quick, SetupProcs: 4, Start: processStart, OutDir: outDir,
	}
	if *quick {
		cfg.SetupProcs = 0
	}
	switch {
	case *setupOnly:
		s, err := setupOnlyRun(cfg)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, s)
		return 0
	case *workload != "":
		res, notes, err := runWorkload(cfg)
		for _, n := range notes {
			fmt.Fprintln(stdout, n)
		}
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			return 1
		}
		return 0
	default:
		if *out == "" {
			*out = filepath.Join(outDir, "result.json")
		}
		if err := runSuite(stdout, stderr, cfg, *runs, *out); err != nil {
			return fail(err)
		}
		return 0
	}
}

// repoRoot finds the checkout the program runs in: the working
// directory under run.sh, its parent under `go run -C benchmark .`.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}
