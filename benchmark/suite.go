package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// resultFile is what a suite run writes and -compare reads.
type resultFile struct {
	Env  envInfo     `json:"env"`
	Runs []runRecord `json:"runs"`
}

type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Network    string  `json:"network"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	runResult
}

// runSuite runs every workload, each run in a process of its own so
// that peak memory and allocation counts are not inherited, then
// prints the medians and writes the result file.
func runSuite(stdout, stderr io.Writer, cfg runConfig, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rf := resultFile{Env: envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(), Seconds: cfg.Seconds, Quick: cfg.Quick,
		Network: "loopback only; both ends of every TCP op are in this process",
	}}
	failed := 0
	for _, w := range workloads {
		for r := 0; r < runs; r++ {
			seed := cfg.Seed + int64(r)
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-trace", strconv.Itoa(b2i(cfg.Trace))}
			if cfg.Quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			output, runErr := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(output)), "\n")
			rec := runRecord{Workload: w.Name, Seed: seed, Trace: b2i(cfg.Trace)}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.runResult); err != nil {
				return fmt.Errorf("%s seed %d: no result line (%v): %w", w.Name, seed, runErr, err)
			}
			fmt.Fprintf(stderr, "%s seed %d: %d ops, %d failed\n", w.Name, seed, rec.Attempted, rec.Failed)
			failed += rec.Failed
			rf.Runs = append(rf.Runs, rec)
		}
	}
	printSummary(stdout, &rf)
	if err := writeResultFile(out, &rf); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "result file: %s\n", out)
	if failed > 0 {
		return fmt.Errorf("%d ops failed their checks", failed)
	}
	return nil
}

// commit names the source the numbers belong to, when git knows it.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeResultFile writes one run per line, so a baseline diffs well.
func writeResultFile(path string, rf *resultFile) error {
	var b bytes.Buffer
	envBlob, err := json.Marshal(rf.Env)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "{\"env\": %s,\n \"runs\": [\n", envBlob)
	for i, r := range rf.Runs {
		blob, err := json.Marshal(r)
		if err != nil {
			return err
		}
		sep := ","
		if i == len(rf.Runs)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %s%s\n", blob, sep)
	}
	b.WriteString(" ]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(blob, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// values collects one metric of one workload across the runs of the
// given tracing state.
func (rf *resultFile) values(workload, metric string, trace int) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if mv, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, mv.Value)
		}
	}
	return out
}

// center is the median the acceptance rule uses: the second quartile
// cut for two or more runs, the value itself for one.
func center(xs []float64) float64 {
	if len(xs) < 2 {
		return median(xs)
	}
	_, q2, _ := quartiles(xs)
	return q2
}

func printSummary(w io.Writer, rf *resultFile) {
	fmt.Fprintf(w, "nproc=%d GOMAXPROCS=%d %s commit=%s window=%gs; %s\n",
		rf.Env.NProc, rf.Env.GOMAXPROCS, rf.Env.Go, rf.Env.Commit, rf.Env.Seconds, rf.Env.Network)
	for _, wl := range workloads {
		row := func(name, unit string, trace int) {
			xs := rf.values(wl.Name, name, trace)
			if len(xs) == 0 {
				return
			}
			line := fmt.Sprintf("%-11s %-30s %14.6g %-6s n=%d", wl.Name, name, center(xs), unit, len(xs))
			if len(xs) >= 2 {
				q1, _, q3 := quartiles(xs)
				line += fmt.Sprintf("  q1=%.6g q3=%.6g spread=%.2f%%", q1, q3, 100*quartileSpread(xs))
			}
			fmt.Fprintln(w, line)
		}
		for _, m := range endToEnd {
			row(m.Name, m.Unit, 0)
		}
		for _, m := range perLayer {
			row(m.Name, m.Unit, 1)
		}
	}
}

// Verdicts of one metric on one workload.
const (
	vBetter     = "better"
	vSame       = "same"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// judge applies a metric's bound to the runs of two sides. The change
// (b) is worse when its median is worse than the parent's (a) by more
// than the bound, as a share of the parent's median; setup_s also gets
// an absolute floor. When either side's own quartile spread exceeds
// the bound the pair is unresolved, not unchanged; setup_s is exempt
// from that, as it is in the acceptance rule.
func judge(m e2eSpec, a, b []float64) (verdict string, rel, spread float64) {
	ca, cb := center(a), center(b)
	worse := cb - ca
	if m.Better == "higher" {
		worse = -worse
	}
	allowed := m.Bound * ca
	if m.Name == "setup_s" && allowed < setupFloorS {
		allowed = setupFloorS
	}
	spread = max(quartileSpread(a), quartileSpread(b))
	if ca != 0 {
		rel = worse / ca
	}
	switch {
	case spread > m.Bound && m.Name != "setup_s":
		return vUnresolved, rel, spread
	case worse > allowed:
		return vWorse, rel, spread
	case -worse > allowed:
		return vBetter, rel, spread
	}
	return vSame, rel, spread
}

// compareFiles prints one row per end-to-end metric and workload and
// returns how many rows are worse. The bounds are the catalogue's,
// which a test pins to BENCHMARK.json.
func compareFiles(w io.Writer, pathA, pathB string) (worse int, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "a: %s (commit %s)  b: %s (commit %s)\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	fmt.Fprintf(w, "%-11s %-14s %12s %12s %9s %8s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(wl.Name, m.Name, 0), b.values(wl.Name, m.Name, 0)
			if len(va) == 0 || len(vb) == 0 {
				return worse, fmt.Errorf("%s %s: %d runs in a, %d in b", wl.Name, m.Name, len(va), len(vb))
			}
			v, rel, spread := judge(m, va, vb)
			if v == vWorse {
				worse++
			}
			fmt.Fprintf(w, "%-11s %-14s %12.6g %12.6g %+8.2f%% %7.2f%% %6.0f%%  %s\n",
				wl.Name, m.Name, center(va), center(vb), 100*rel, 100*spread, 100*m.Bound, v)
		}
	}
	return worse, nil
}
