package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func e2e(t *testing.T, name string) e2eSpec {
	t.Helper()
	for _, m := range endToEnd {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no end-to-end metric %q", name)
	return e2eSpec{}
}

func TestJudgeAppliesBoundDirectionAndSpread(t *testing.T) {
	lower := e2eSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := e2eSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(x float64) []float64 { return []float64{x, x * 1.01, x * 0.99, x, x * 1.005} }
	for _, c := range []struct {
		name string
		m    e2eSpec
		a, b []float64
		want string
	}{
		{"lower, 5% up", lower, steady(100), steady(105), vSame},
		{"lower, 20% up", lower, steady(100), steady(120), vWorse},
		{"lower, 20% down", lower, steady(100), steady(80), vBetter},
		{"higher, 20% down", higher, steady(100), steady(80), vWorse},
		{"higher, 20% up", higher, steady(100), steady(120), vBetter},
		{"single runs", lower, []float64{100}, []float64{120}, vWorse},
		{"one side too noisy", lower, steady(100), []float64{90, 150, 110, 170, 100}, vUnresolved},
	} {
		if got, _, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// A short set-up gets an absolute floor on top of its relative bound,
// and its own spread never makes it unresolved.
func TestJudgeSetupFloor(t *testing.T) {
	m := e2e(t, "setup_s")
	if m.Bound*0.10 >= setupFloorS {
		t.Fatalf("the test assumes %g of 0.1 s is below the floor", m.Bound)
	}
	for _, c := range []struct {
		a, b float64
		want string
	}{
		{0.10, 0.14, vSame},  // 40% worse, but 40 ms is under the floor
		{0.10, 0.16, vWorse}, // 60 ms is over it
		{2.0, 2.4, vSame},    // 20% of a long set-up is within the bound
		{2.0, 2.6, vWorse},
	} {
		if got, _, _ := judge(m, []float64{c.a}, []float64{c.b}); got != c.want {
			t.Errorf("setup_s %g -> %g: %s, want %s", c.a, c.b, got, c.want)
		}
	}
	if got, _, _ := judge(m, []float64{1, 2, 3, 4}, []float64{1, 2, 3, 4}); got != vSame {
		t.Errorf("noisy setup_s: %s, want %s", got, vSame)
	}
}

func sampleFile(scale float64) *resultFile {
	rf := &resultFile{Env: envInfo{NProc: 2, GOMAXPROCS: 2, Go: "go1.x", Commit: "abc1234", Seconds: 20, Network: "loopback"}}
	for _, w := range workloads {
		for seed := int64(1); seed <= 4; seed++ {
			r := runRecord{Workload: w.Name, Seed: seed, runResult: runResult{Correct: true, Attempted: 100, Metrics: map[string]metricValue{}}}
			for _, m := range endToEnd {
				v := 100 + float64(seed)/10
				if m.Better == "lower" {
					v *= scale
				}
				r.Metrics[m.Name] = metricValue{v, m.Unit}
			}
			rf.Runs = append(rf.Runs, r)
		}
	}
	return rf
}

func TestResultFileRoundTripAndCompare(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	want := sampleFile(1)
	if err := writeResultFile(a, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResultFile(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the file:\n got %+v\nwant %+v", got, want)
	}

	var out bytes.Buffer
	worse, err := compareFiles(&out, a, a)
	if err != nil || worse != 0 {
		t.Fatalf("a file against itself: %d worse, %v\n%s", worse, err, out.String())
	}
	if rows := strings.Count(out.String(), vSame); rows != len(workloads)*len(endToEnd) {
		t.Errorf("%d rows say %q, want one per metric and workload (%d)\n%s", rows, vSame, len(workloads)*len(endToEnd), out.String())
	}
	// Every lower-is-better metric 30% up: those rows, and only those,
	// are regressions.
	if err := writeResultFile(b, sampleFile(1.3)); err != nil {
		t.Fatal(err)
	}
	lowerBetter := 0
	for _, m := range endToEnd {
		if m.Better == "lower" {
			lowerBetter++
		}
	}
	out.Reset()
	if worse, err = compareFiles(&out, a, b); err != nil || worse != len(workloads)*lowerBetter {
		t.Errorf("%d worse, %v; want %d\n%s", worse, err, len(workloads)*lowerBetter, out.String())
	}
	if code := run([]string{"-compare", a, b}, &out, &out); code != 1 {
		t.Errorf("-compare with regressions exited %d, want 1", code)
	}
	if code := run([]string{"-compare", a, a}, &out, &out); code != 0 {
		t.Errorf("-compare of a file with itself exited %d, want 0", code)
	}
}
