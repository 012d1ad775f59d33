package stb

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"oddci/internal/core/instance"
	"oddci/internal/dsmcc"
	"oddci/internal/middleware"
	"oddci/internal/obs"
	"oddci/internal/simtime"
)

func shardBroadcaster(t *testing.T, clk simtime.Clock, pid uint16, img []byte) *dsmcc.Broadcaster {
	t.Helper()
	car, err := dsmcc.NewCarousel(pid, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dsmcc.NewBroadcaster(clk, car, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start([]dsmcc.File{{Name: "image", Data: img}}); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSharedChunkCacheAcrossShards: the federated deployment seam. Two
// coordinator shards air the same application image on separate
// carousels; receivers built with Config.SharedCache stage through one
// content-addressed store, so the second shard's fetch completes from
// cached chunks (a DII-latency wait) instead of re-reading the module
// off the air.
func TestSharedChunkCacheAcrossShards(t *testing.T) {
	clk := simtime.NewSim(epoch)
	img := make([]byte, 256<<10)
	rand.New(rand.NewSource(31)).Read(img)
	bA := shardBroadcaster(t, clk, 0x300, img)
	bB := shardBroadcaster(t, clk, 0x301, img)

	reg := obs.NewRegistry()
	met := dsmcc.NewCacheMetrics(reg)
	shared := dsmcc.NewChunkCache(4 << 20)
	shared.Instrument(met)

	mkSTB := func(id uint64, b *dsmcc.Broadcaster) *STB {
		s, err := New(Config{
			ID: id, Clock: clk, Broadcaster: b,
			Signalling: middleware.NewSignalling(clk, 0),
			Profile:    instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100},
			Rng:        rand.New(rand.NewSource(int64(id))),
			// Ignored in favour of the shared store.
			ChunkCacheBytes: 1,
			SharedCache:     shared,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := mkSTB(1, bA), mkSTB(2, bB)
	if s1.ChunkCache() != shared || s2.ChunkCache() != shared {
		t.Fatal("SharedCache not adopted as the receivers' chunk store")
	}

	// Cold: receiver 1 stages off shard A's carousel and warms the store.
	var coldAt time.Time
	bA.RequestFile("image", dsmcc.FileGranularity, s1.ChunkCache(), func(data []byte, at time.Time, err error) {
		if err != nil || !bytes.Equal(data, img) {
			t.Errorf("cold fetch via shard A: err=%v", err)
		}
		coldAt = at
	})
	clk.Wait()
	if met.Misses() == 0 || met.Hits() != 0 {
		t.Fatalf("cold fetch: hits=%d misses=%d, want pure misses", met.Hits(), met.Misses())
	}
	coldWait := coldAt.Sub(epoch)

	// Warm: receiver 2 asks shard B — a different carousel airing the
	// same content — and completes from shared chunks.
	start := clk.Now()
	var warmAt time.Time
	bB.RequestFile("image", dsmcc.FileGranularity, s2.ChunkCache(), func(data []byte, at time.Time, err error) {
		if err != nil || !bytes.Equal(data, img) {
			t.Errorf("warm fetch via shard B: err=%v", err)
		}
		warmAt = at
	})
	clk.Wait()
	if met.Hits() == 0 {
		t.Fatal("cross-shard fetch missed the shared cache")
	}
	if warmWait := warmAt.Sub(start); warmWait >= coldWait {
		t.Fatalf("cross-shard warm fetch took %v, want under the cold %v", warmWait, coldWait)
	}
}

// A receiver with neither SharedCache nor ChunkCacheBytes stays
// cacheless, and a per-box cache is still private.
func TestSharedCacheSeamDefaults(t *testing.T) {
	clk := simtime.NewSim(epoch)
	s := newTestSTB(t, clk, 9)
	if s.ChunkCache() != nil {
		t.Fatal("default STB grew a chunk cache")
	}

	// Per-box caches: each box keeps its own store, and what a box stages
	// through it is the carousel's slice itself, not a copy.
	img := make([]byte, 64<<10)
	rand.New(rand.NewSource(32)).Read(img)
	b := shardBroadcaster(t, clk, 0x300, img)
	var boxes [2]*STB
	for i := range boxes {
		box, err := New(Config{
			ID: uint64(10 + i), Clock: clk, Broadcaster: b,
			Signalling:      middleware.NewSignalling(clk, 0),
			Rng:             rand.New(rand.NewSource(int64(10 + i))),
			ChunkCacheBytes: -1, // default budget
		})
		if err != nil {
			t.Fatal(err)
		}
		boxes[i] = box
	}
	if boxes[0].ChunkCache() == nil || boxes[0].ChunkCache() == boxes[1].ChunkCache() {
		t.Fatal("per-box chunk caches missing or shared")
	}
	b.RequestFile("image", dsmcc.FileGranularity, boxes[0].ChunkCache(), func(_ []byte, _ time.Time, err error) {
		if err != nil {
			t.Errorf("staging through box 0: %v", err)
		}
	})
	clk.Wait()
	if kept, ok := boxes[0].ChunkCache().Get(dsmcc.HashOf(img)); !ok || &kept[0] != &img[0] {
		t.Fatal("box 0's cache does not hold the staged slice")
	}
	if _, ok := boxes[1].ChunkCache().Get(dsmcc.HashOf(img)); ok {
		t.Fatal("box 1's private cache saw box 0's staging")
	}
}
