package system

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"oddci/blast"
	"oddci/internal/appimage"
	"oddci/internal/core/controller"
	"oddci/internal/core/dve"
	"oddci/internal/dsmcc"
	"oddci/internal/simtime"
	"oddci/internal/workload"
)

// assertCarouselIntact checks that every file on the carousel still
// hashes to what its layout entry recorded when it was staged. Those
// bytes were delivered by reference to every receiver, so a mismatch
// means some consumer wrote into shared bytes.
func assertCarouselIntact(t *testing.T, sys *System, wantImageBytes int) {
	t.Helper()
	l := sys.Broadcaster.(*dsmcc.Broadcaster).Layout()
	staged := false
	for _, e := range l.Entries {
		if got := dsmcc.HashOf(e.Data); got != e.Hash {
			t.Errorf("carousel file %q (%d bytes) hashes to %x, staged as %x", e.Name, e.Size, got, e.Hash)
		}
		staged = staged || e.Size >= wantImageBytes
	}
	if !staged {
		t.Fatalf("no image of ≥ %d bytes among the %d carousel files", wantImageBytes, len(l.Entries))
	}
}

// The built-in worker: a whole job runs off one staged image.
func TestWorkerDeploymentLeavesStagedBytesIntact(t *testing.T) {
	clk := simtime.NewSim(epoch)
	sys := newSystem(t, clk, 24, 41)
	job, err := (&workload.Generator{Name: "intact", ImageBytes: 256 << 10, Tasks: 96,
		InputBytes: 512, OutputBytes: 256, MeanSeconds: 5}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Backend.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	img := testImage(256 << 10)
	rand.New(rand.NewSource(41)).Read(img.Payload)
	if _, err := sys.Provider.Create(controller.InstanceSpec{Image: img, Target: 24, InitialProbability: 1}); err != nil {
		t.Fatal(err)
	}
	h.OnComplete(func(time.Time) { sys.Shutdown() })
	clk.Wait()
	if got := len(h.Results()); got != 96 {
		t.Fatalf("results = %d of 96", got)
	}
	assertCarouselIntact(t, sys, len(img.Payload))
}

// An application that consumes its image: the payload is an encoded
// BLAST work unit (query plus database shard), which every node decodes
// and searches straight out of the shared delivery.
func TestBlastDeploymentLeavesStagedBytesIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	query := blast.RandomSeq(rng, 128)
	db := blast.RandomDB(rng, 64, 1500, 1500)
	blast.PlantHit(rng, db, query, 7, 10, 100, 100, 2)
	params := blast.DefaultParams()
	params.MinScore = 40
	unit := blast.WorkUnit{ID: 1, Query: query, DB: db, Params: params}
	want, err := unit.Run()
	if err != nil || len(want) == 0 {
		t.Fatalf("local search: %d hits, err %v", len(want), err)
	}
	payload, err := unit.Encode()
	if err != nil {
		t.Fatal(err)
	}

	const nodes = 12
	clk := simtime.NewSim(epoch)
	sys := newSystem(t, clk, nodes, 42)
	var searched, wrong atomic.Int32
	sys.Registry.Register("blast.search", func(env *dve.Env) error {
		u, err := blast.DecodeWorkUnit(env.Image.Payload)
		if err != nil {
			return err
		}
		hits, err := u.Run()
		if err != nil {
			return err
		}
		if len(hits) != len(want) || hits[0] != want[0] {
			wrong.Add(1)
		}
		searched.Add(1)
		for env.Sleep(time.Minute) { // stay resident, or maintenance relaunches
		}
		return nil
	})
	img := &appimage.Image{Name: "blast", Version: 1, EntryPoint: "blast.search", Payload: payload}
	if _, err := sys.Provider.Create(controller.InstanceSpec{Image: img, Target: nodes, InitialProbability: 1}); err != nil {
		t.Fatal(err)
	}
	clk.AfterFunc(5*time.Minute, sys.Shutdown)
	clk.Wait()
	if searched.Load() != nodes || wrong.Load() != 0 {
		t.Fatalf("%d of %d nodes searched the staged database, %d got different hits", searched.Load(), nodes, wrong.Load())
	}
	assertCarouselIntact(t, sys, len(payload))
}
