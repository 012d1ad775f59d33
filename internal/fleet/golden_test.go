package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/*.json from this build's results")

// goldenSharded is the sharded golden case: a shard killed mid-ramp and
// recovered inside the window.
var goldenSharded = ShardedConfig{
	Config: Config{Nodes: 50_000, Seed: 12},
	Shards: 8, KillShard: 3, KillAfter: 90 * time.Second, RecoverAfter: 60 * time.Second,
}

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
		{"sharded_5e4_kill_recover", func() (any, error) { return RunSharded(goldenSharded) }},
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

// TestResultsIndependentOfRangeCount: a run cut into k id ranges, each
// played whole on its own wheel, returns the one-range result byte for
// byte, whatever the machine's core count. The cases are the golden
// configs; a run whose quorum is never reached (QuorumFrac 1: some
// wakeup-time node always powers off before it joins); and a run with no
// node on at the wakeup, which has nobody to form a quorum from.
func TestResultsIndependentOfRangeCount(t *testing.T) {
	cases := []struct {
		name    string
		cfg     ShardedConfig
		sharded bool
		quorum  func(*Result) bool
	}{
		{name: "run_1e5_seed1", cfg: ShardedConfig{Config: Config{Nodes: 100_000, Seed: 1}}},
		{name: "run_1e5_seed2", cfg: ShardedConfig{Config: Config{Nodes: 100_000, Seed: 2}}},
		{name: "sharded_5e4_kill_recover", cfg: goldenSharded, sharded: true},
		{
			name:   "quorum_unreached",
			cfg:    ShardedConfig{Config: Config{Nodes: 2_000, Seed: 4, QuorumFrac: 1}},
			quorum: func(r *Result) bool { return r.AvailAtWake > 0 && r.QuorumSimSeconds == -1 },
		},
		{
			name: "none_on_at_wakeup",
			cfg: ShardedConfig{Config: Config{
				Nodes: 2_000, Seed: 4, MeanOn: time.Second, MeanOff: 1000 * time.Hour,
			}},
			quorum: func(r *Result) bool { return r.AvailAtWake == 0 && r.QuorumSimSeconds == -1 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			for _, k := range []int{1, 2, 3, 5, 8} {
				res, err := play(tc.cfg, tc.sharded, k)
				if err != nil {
					t.Fatal(err)
				}
				// JSON has no +Inf, the model time of a quorum the
				// churn-adjusted curve never reaches; compare it apart.
				r := *res.Result
				if math.IsInf(r.QuorumModelSeconds, 1) {
					r.QuorumModelSeconds = -1
				}
				var v any = &r
				if tc.sharded {
					res.Result = &r
					v = res
				}
				got, err := json.MarshalIndent(v, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if k == 1 {
					want = got
					if tc.quorum != nil && !tc.quorum(res.Result) {
						t.Fatalf("avail at wake %d, quorum at %vs: not the case this config is for",
							res.AvailAtWake, res.QuorumSimSeconds)
					}
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("k=%d differs from k=1: %s", k, firstDiff(got, want))
				}
			}
		})
	}
}
