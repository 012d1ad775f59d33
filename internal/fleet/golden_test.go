package fleet

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

// TestGoldenResults pins whole results — every counter, curve point and
// quorum time, to the last bit of every float — to values recorded
// before the wheel stopped booking deadlines past the window (PR 23). A
// change to how the engine books, batches or stores must leave them
// untouched; a change to the model itself regenerates them with
// `go test ./internal/fleet -run TestGoldenResults -update` and says so.
func TestGoldenResults(t *testing.T) {
	cases := []struct {
		name string
		run  func() (any, error)
	}{
		{"run_1e5_seed1", func() (any, error) { return Run(Config{Nodes: 100_000, Seed: 1}) }},
		{"run_1e5_seed2", func() (any, error) { return Run(Config{Nodes: 100_000, Seed: 2}) }},
		{"sharded_5e4_kill_recover", func() (any, error) {
			return RunSharded(ShardedConfig{
				Config: Config{Nodes: 50_000, Seed: 12},
				Shards: 8, KillShard: 3, KillAfter: 90 * time.Second, RecoverAfter: 60 * time.Second,
			})
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
			// sim_events is a retained alias of wheel_batches; hold it there.
			var n struct {
				SimEvents    uint64 `json:"sim_events"`
				WheelBatches uint64 `json:"wheel_batches"`
			}
			if err := json.Unmarshal(got, &n); err != nil || n.SimEvents != n.WheelBatches || n.SimEvents == 0 {
				t.Fatalf("sim_events %d != wheel_batches %d (%v)", n.SimEvents, n.WheelBatches, err)
			}
			path := filepath.Join("testdata", tc.name+".json")
			if *update {
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
