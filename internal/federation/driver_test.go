package federation

import (
	"testing"
	"time"
)

func TestDriverConverges(t *testing.T) {
	res, err := RunDriver(DriverConfig{
		Shards: 2, PerShardPop: 256, TotalTarget: 64,
		ImageBytes: 1 << 20, Beta: 1e6, // C ≈ 8.4 s
		Seed: 1, BaseDir: t.TempDir(), KillShard: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	// W ∈ [C, 2C]: convergence cannot beat one carousel cycle and
	// should land well inside a few cycles.
	c := float64(1<<20) * 8 / 1e6
	if res.ConvergeSeconds < c || res.ConvergeSeconds > 6*c {
		t.Fatalf("convergence %.1fs outside [C, 6C] (C=%.1fs)", res.ConvergeSeconds, c)
	}
	if res.DuplicateWakeup != 0 {
		t.Fatalf("duplicate wakeups: %+v", res)
	}
	if res.Wakeups < 2 {
		t.Fatalf("expected at least one wakeup per shard: %+v", res)
	}
}

func TestDriverFailover(t *testing.T) {
	res, err := RunDriver(DriverConfig{
		Shards: 3, PerShardPop: 256, TotalTarget: 96,
		ImageBytes: 1 << 20, Beta: 1e6,
		Seed: 2, BaseDir: t.TempDir(),
		KillShard: 1, KillAtFrac: 0.5, RecoverAfter: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FailedOver {
		t.Fatalf("kill scenario never failed over: %+v", res)
	}
	if !res.Converged {
		t.Fatalf("did not reconverge after failover: %+v", res)
	}
	if res.DuplicateWakeup != 0 {
		t.Fatalf("failover re-aired a wakeup: %+v", res)
	}
	if res.ReadoptedBusy == 0 {
		t.Fatalf("no busy members survived the failover: %+v", res)
	}
}

func TestDriverRebalance(t *testing.T) {
	res, err := RunDriver(DriverConfig{
		Shards: 3, PerShardPop: 256, TotalTarget: 96,
		ImageBytes: 1 << 20, Beta: 1e6,
		Seed: 3, BaseDir: t.TempDir(), KillShard: -1,
		StarveShard0: true, RebalanceEvery: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("starved federation did not converge: %+v", res)
	}
	if res.MovedTarget == 0 {
		t.Fatalf("convergence without rebalancing a starved shard: %+v", res)
	}
}

// TestDriverConvergenceFlatInShards: with the per-shard population and
// target held fixed, convergence at 2…16 shards stays within 1.15× the
// one-shard run, with no wakeup aired twice — sharding the control plane
// buys capacity, not latency.
func TestDriverConvergenceFlatInShards(t *testing.T) {
	const perShardPop, perShardTarget = 1024, 128
	var oneShard float64
	for _, shards := range []int{1, 2, 4, 8, 16} {
		res, err := RunDriver(DriverConfig{
			Shards: shards, PerShardPop: perShardPop, TotalTarget: perShardTarget * shards,
			ImageBytes: 1_250_000, Beta: 1e6, // C = 10 s
			Seed: 2009, BaseDir: t.TempDir(), KillShard: -1,
		})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if !res.Converged || res.DuplicateWakeup != 0 {
			t.Fatalf("%d shards: converged=%v with %d duplicate wakeups: %+v", shards, res.Converged, res.DuplicateWakeup, res)
		}
		if shards == 1 {
			oneShard = res.ConvergeSeconds
		}
		if ratio := res.ConvergeSeconds / oneShard; ratio > 1.15 {
			t.Fatalf("%d shards converge in %.1fs, %.2f× the one-shard %.1fs (max 1.15×)",
				shards, res.ConvergeSeconds, ratio, oneShard)
		}
	}
}
