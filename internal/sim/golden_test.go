package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/*.json from this build's results")

// goldenConfig is one Figure 6 point as the experiments build it: the
// closed form's defaults at ratio n/N and Φ, on nodes nodes.
func goldenConfig(ratio, nodes int, phi float64, seed int64) JobConfig {
	cfg := fig6Config(ratio, nodes, phi)
	cfg.Seed = seed
	return cfg
}

// TestGoldenResults pins whole results, every duration, count and
// float to the last bit: the fig6/fig7 -quick cross-validation points
// (N = 50, Φ = 10³, n/N ∈ {10, 100}, the experiments' seeds at 2009)
// and two churn-eff -quick regimes in which nodes depart. A change to
// how the model draws, books or counts must leave them untouched; a
// change to the model itself regenerates them with
// `go test ./internal/sim -run TestGoldenResults -update` and says so.
func TestGoldenResults(t *testing.T) {
	const seed = 2009
	cases := []struct {
		name string
		run  func() (any, error)
	}{
		{"fig67_quick_ratio10", func() (any, error) {
			return RunJob(goldenConfig(10, 50, 1000, seed+10*7+1000))
		}},
		{"fig67_quick_ratio100", func() (any, error) {
			return RunJob(goldenConfig(100, 50, 1000, seed+100*7+1000))
		}},
		{"churn_calm_2h_5m", func() (any, error) {
			return RunChurnJob(ChurnJobConfig{JobConfig: goldenConfig(20, 100, 1000, seed+1000), MeanOn: 2 * time.Hour, MeanOff: 5 * time.Minute})
		}},
		{"churn_zapping_10m_3m", func() (any, error) {
			return RunChurnJob(ChurnJobConfig{JobConfig: goldenConfig(20, 100, 1000, seed+1000), MeanOn: 10 * time.Minute, MeanOff: 3 * time.Minute})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(res, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			if r, ok := res.(ChurnJobResult); ok && r.Departures == 0 {
				t.Fatal("churn case saw no departures")
			}
			path := filepath.Join("testdata", tc.name+".json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("result differs from %s: %s", path, firstDiff(got, want))
			}
		})
	}
}

// firstDiff names the first line on which two JSON renderings part.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: got %s, want %s", i+1, bytes.TrimSpace(g[i]), bytes.TrimSpace(w[i]))
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
