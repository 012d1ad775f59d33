package fleet

import (
	"testing"
	"time"
)

func TestShardedMatchesAnalyticAndReconciles(t *testing.T) {
	res, err := RunSharded(ShardedConfig{
		Config: Config{Nodes: 50000, Seed: 11},
		Shards: 8, KillShard: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.WakeupBroadcasts != 8 {
		t.Fatalf("wakeup broadcasts %d, want 8", res.WakeupBroadcasts)
	}
	if res.MaxOwnershipSkew < 1 || res.MaxOwnershipSkew > 1.6 {
		t.Fatalf("ownership skew %.2f out of sane range", res.MaxOwnershipSkew)
	}
	// With every shard up, views track truth exactly.
	for _, s := range res.ViewSamples {
		if s.DownLag != 0 {
			t.Fatalf("down-lag %d with no kill", s.DownLag)
		}
	}
}

func TestShardedKillRecover(t *testing.T) {
	res, err := RunSharded(ShardedConfig{
		Config: Config{Nodes: 50000, Seed: 12},
		Shards: 8,
		// C = 80 s with the 10 MB / 1 Mbps defaults: kill mid-ramp,
		// recover well inside the 200 s window.
		KillShard: 3, KillAfter: 90 * time.Second, RecoverAfter: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.KilledShard != 3 || res.RecoverAtSeconds <= res.KillAtSeconds {
		t.Fatalf("kill/recover schedule: %+v", res)
	}
	// The outage spans the steep part of the ramp: the frozen view must
	// actually have diverged before recovery snapped it back.
	if res.PeakDownLag == 0 {
		t.Fatal("coordinator view never diverged during the outage")
	}
	if res.Readopted == 0 {
		t.Fatal("no members re-adopted at recovery")
	}
	// Zero duplicate wakeups: recovery did not re-broadcast.
	if res.WakeupBroadcasts != 8 {
		t.Fatalf("wakeup broadcasts %d after failover, want 8", res.WakeupBroadcasts)
	}
	if res.LostNodes != 0 {
		t.Fatalf("%d lost nodes after reconciliation", res.LostNodes)
	}
}

func TestShardedRejectsBadConfig(t *testing.T) {
	if _, err := RunSharded(ShardedConfig{Config: Config{Nodes: 100}, Shards: 0}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := RunSharded(ShardedConfig{Config: Config{Nodes: 100}, Shards: 2, KillShard: 5}); err == nil {
		t.Fatal("out-of-range kill shard accepted")
	}
	if _, err := RunSharded(ShardedConfig{
		Config: Config{Nodes: 100}, Shards: 2,
		KillShard: 1, KillAfter: time.Hour, RecoverAfter: time.Hour,
	}); err == nil {
		t.Fatal("kill schedule beyond the window accepted")
	}
	// A schedule only the recovery overshoots is the same config error,
	// and it is returned before the population is allocated and drawn:
	// 10⁶ nodes of SoA state alone would be 17 MB.
	bytes, _ := allocatedBy(func() {
		if _, err := RunSharded(ShardedConfig{
			Config: Config{Nodes: 1_000_000}, Shards: 2,
			KillShard: 1, KillAfter: time.Minute, RecoverAfter: time.Hour,
		}); err == nil {
			t.Fatal("recover schedule beyond the window accepted")
		}
	})
	if bytes > 1<<20 {
		t.Fatalf("rejecting a bad kill schedule allocated %d bytes: the check runs after the engine is built", bytes)
	}
}
