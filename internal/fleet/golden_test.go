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

// goldenCases are the results pinned under testdata/, by file name.
// run_1e6_seed1 is the benchmark's fleet_ramp op itself; in
// run_1e5_short_means most power periods end inside the window, so it
// reaches the exact draws and the deadlines a power-off cuts short that
// the default means, whose periods mostly end past the window, rarely do.
var goldenCases = []struct {
	name    string
	cfg     ShardedConfig
	sharded bool
}{
	{name: "run_1e5_seed1", cfg: ShardedConfig{Config: Config{Nodes: 100_000, Seed: 1}}},
	{name: "run_1e5_seed2", cfg: ShardedConfig{Config: Config{Nodes: 100_000, Seed: 2}}},
	{name: "sharded_5e4_kill_recover", cfg: goldenSharded, sharded: true},
	{name: "run_1e6_seed1", cfg: ShardedConfig{Config: Config{Nodes: 1_000_000, Seed: 1}}},
	{name: "run_1e5_short_means", cfg: goldenShortMeans},
}

// goldenShortMeans is the golden case whose power periods mostly end
// inside the window.
var goldenShortMeans = ShardedConfig{Config: Config{
	Nodes: 100_000, Seed: 3, MeanOn: 10 * time.Minute, MeanOff: 5 * time.Minute,
}}

// resultJSON renders a result the way the golden files hold it. JSON has
// no +Inf, the model time of a quorum the churn-adjusted curve never
// reaches, so that is written as -1.
func resultJSON(res ShardedResult, sharded bool) ([]byte, error) {
	r := *res.Result
	if math.IsInf(r.QuorumModelSeconds, 1) {
		r.QuorumModelSeconds = -1
	}
	var v any = &r
	if sharded {
		res.Result = &r
		v = res
	}
	return json.MarshalIndent(v, "", " ")
}

// TestGoldenResults pins whole results — every counter, curve point and
// quorum time, to the last bit of every float — to values recorded
// before the engine changed how it books, batches or stores them. A
// change of that kind must leave them untouched; a change to the model
// itself regenerates them with
// `go test ./internal/fleet -run TestGoldenResults -update` and says so.
func TestGoldenResults(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var res ShardedResult
			if tc.sharded {
				r, err := RunSharded(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				res = *r
			} else {
				r, err := Run(tc.cfg.Config)
				if err != nil {
					t.Fatal(err)
				}
				res.Result = r
			}
			got, err := resultJSON(res, tc.sharded)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			// sim_events is a retained alias of wheel_batches; hold it there.
			if n := res.Result; n.SimEvents != n.WheelBatches || n.SimEvents == 0 {
				t.Fatalf("sim_events %d != wheel_batches %d", n.SimEvents, n.WheelBatches)
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
// configs but the 10⁶ one; a run whose quorum is never reached (QuorumFrac 1: some
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
			name:   "run_1e5_short_means",
			cfg:    goldenShortMeans,
			quorum: func(r *Result) bool { return math.IsInf(r.QuorumModelSeconds, 1) },
		},
		{
			name:   "quorum_unreached",
			cfg:    ShardedConfig{Config: Config{Nodes: 2_000, Seed: 4, quorumFrac: 1}},
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
