package stb

import (
	"math/rand"
	"testing"
	"time"

	"oddci/internal/dsmcc"
	"oddci/internal/middleware"
	"oddci/internal/simtime"
)

// A receiver without ChunkCacheBytes stays cacheless, and a per-box
// cache is private.
func TestChunkCacheOffByDefaultAndPerBox(t *testing.T) {
	clk := simtime.NewSim(epoch)
	s := newTestSTB(t, clk, 9)
	if s.ChunkCache() != nil {
		t.Fatal("default STB grew a chunk cache")
	}

	// Per-box caches: each box keeps its own store, and what a box stages
	// through it is the carousel's slice itself, not a copy.
	img := make([]byte, 64<<10)
	rand.New(rand.NewSource(32)).Read(img)
	car, err := dsmcc.NewCarousel(0x300, 0)
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
	b.RequestFile("image", dsmcc.FileGranularity, boxes[0].ChunkCache(), readFunc(func(_ []byte, _ time.Time, err error) {
		if err != nil {
			t.Errorf("staging through box 0: %v", err)
		}
	}))
	clk.Wait()
	if kept, ok := boxes[0].ChunkCache().Get(dsmcc.HashOf(img)); !ok || &kept[0] != &img[0] {
		t.Fatal("box 0's cache does not hold the staged slice")
	}
	if _, ok := boxes[1].ChunkCache().Get(dsmcc.HashOf(img)); ok {
		t.Fatal("box 1's private cache saw box 0's staging")
	}
}

// readFunc is a read with no check stage: the callback alone.
type readFunc func(data []byte, at time.Time, err error)

func (readFunc) Check([]byte) {}

func (f readFunc) Deliver(data []byte, at time.Time, err error) { f(data, at, err) }
