package federation

import (
	"math/rand"
	"testing"
)

func TestRingDeterminismAndTotalCoverage(t *testing.T) {
	r1, err := NewRing(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRing(8, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		id := rng.Uint64()
		a, b := r1.Owner(id), r2.Owner(id)
		if a != b {
			t.Fatalf("non-deterministic owner for %d: %d vs %d", id, a, b)
		}
		if a < 0 || int(a) >= 8 {
			t.Fatalf("owner %d out of range", a)
		}
	}
}

// TestRingBalance: with DefaultVNodes points per shard, ownership skew
// (max shard share over the uniform share) stays modest. The bound here
// is deliberately loose — consistent hashing with 64 vnodes typically
// lands near 1.2 — so the test fails only on a genuinely broken hash.
func TestRingBalance(t *testing.T) {
	for _, shards := range []int{2, 4, 16} {
		r, err := NewRing(shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(shards)))
		const ids = 200000
		counts := make([]int, shards)
		for i := 0; i < ids; i++ {
			counts[r.Owner(rng.Uint64())]++
		}
		uniform := float64(ids) / float64(shards)
		for s, c := range counts {
			if skew := float64(c) / uniform; skew > 1.6 || skew < 0.4 {
				t.Fatalf("%d shards: shard %d owns %d nodes (skew %.2f)", shards, s, c, skew)
			}
		}
	}
}

func TestRingRejectsEmpty(t *testing.T) {
	if _, err := NewRing(0, 8); err == nil {
		t.Fatal("empty ring accepted")
	}
}
