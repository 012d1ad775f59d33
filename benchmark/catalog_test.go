package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// BENCHMARK.json is generated from the catalogue (`-spec`); this pins
// the two together and holds the catalogue to the file's limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := buildSpec(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with `go run -C benchmark . -spec > BENCHMARK.json`")
	}
}

// README.md carries the definitions the catalogue only names.
func TestReadmeNamesEveryWorkloadAndMetric(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	names = append(append(names, e2eNames()...), layerNames()...)
	for _, n := range names {
		if !bytes.Contains(readme, []byte("`"+n+"`")) {
			t.Errorf("README.md does not mention `%s`", n)
		}
	}
}

func TestCatalogueWithinLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", n, better)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		check(w.Name, "", "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
		if constructors[w.Name] == nil {
			t.Errorf("%s has no constructor", w.Name)
		}
	}
	setups := 0
	for _, m := range endToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setups++
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s is %s, %s", m.Unit, m.Better)
			}
		}
	}
	if setups != 1 || len(endToEnd) > 16 {
		t.Errorf("%d setup_s among %d end-to-end metrics", setups, len(endToEnd))
	}
	if len(perLayer) == 0 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit, m.Better)
		if m.Moves == "" {
			t.Errorf("%s does not say what it should move", m.Name)
		}
		if (m.Kind == kindProbe) != (m.On == nil) && m.Kind != kindCount {
			t.Errorf("%s: kind %s with workloads %v", m.Name, m.Kind, m.On)
		}
	}
}
