package transport

import (
	"crypto/ed25519"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/controller"
	"oddci/internal/core/instance"
	"oddci/internal/dsmcc"
	"oddci/internal/middleware"
	"oddci/internal/obs"
	"oddci/internal/simtime"
)

// TestRecomposeDrivesDeltaPlane is the end-to-end recomposition path:
// Provider-facing Controller.Recompose commits the new image, its
// OnImageUpdate hook rides the same update onto a live TCP
// coordinator's chunk plane, and a connected node re-stages from
// pushed delta chunks — no full image re-air anywhere on the wire.
func TestRecomposeDrivesDeltaPlane(t *testing.T) {
	img := chunkedImage(t, 20, 8*appimage.ChunkBytes)
	reg := obs.NewRegistry()
	coord := serveCoordinator(t, CoordinatorConfig{
		Image:           img,
		HeartbeatPeriod: 5 * time.Second, // 25 ms at TimeScale 200
		Obs:             reg,
	})

	// The control-plane Controller runs on sim time; only its Recompose
	// commit path matters here. Its OnImageUpdate hook runs with the
	// Controller lock held — UpdateImage never calls back into the
	// Controller, so the direct call is safe.
	var pushed atomic.Int32
	clk := simtime.NewSim(time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC))
	car, err := dsmcc.NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	bcast, err := dsmcc.NewBroadcaster(clk, car, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	_, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(controller.Config{
		Clock: clk, Broadcaster: bcast,
		Signalling: middleware.NewSignalling(clk, 0),
		Key:        priv, Rng: rng,
		OnImageUpdate: func(_ instance.ID, img *appimage.Image) {
			if err := coord.UpdateImage(img); err != nil {
				t.Errorf("UpdateImage from Recompose hook: %v", err)
				return
			}
			pushed.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	id, err := ctrl.CreateInstance(controller.InstanceSpec{
		Image: img, Target: 1, InitialProbability: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	h, err := coord.Submit(testJob(t, 32)) // ~10 ms per task: ample window
	if err != nil {
		t.Fatal(err)
	}
	var report NodeReport
	var nodeErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		report, nodeErr = RunNode(NodeConfig{
			Addr: coord.Addr(), NodeID: 1,
			TimeScale: 200, Seed: 7, PinnedKey: coord.PublicKey(),
		})
	}()

	// Recompose mid-session: one chunk's worth of payload changes.
	time.Sleep(50 * time.Millisecond)
	before := coord.BroadcastEncodes()
	img2 := chunkedImage(t, 20, 8*appimage.ChunkBytes)
	img2.Version = 2
	flipInChunk(img2, 2)
	if err := ctrl.Recompose(id, img2); err != nil {
		t.Fatalf("Recompose: %v", err)
	}
	if pushed.Load() != 1 {
		t.Fatalf("hook pushed %d updates, want 1", pushed.Load())
	}
	// control + manifest + the flipped payload chunk + the header chunk
	// the version bump dirtied: the coordinator never re-encoded the seven
	// unchanged chunks.
	if got := coord.BroadcastEncodes() - before; got != 4 {
		t.Fatalf("recompose cost %d encodes, want 4 (2 artifacts + 2 changed chunks)", got)
	}

	<-done
	if nodeErr != nil {
		t.Fatal(nodeErr)
	}
	if _, ok := h.Done(); !ok {
		t.Fatal("job incomplete")
	}
	if report.Restages != 1 {
		t.Fatalf("report %+v, want 1 restage", report)
	}
	// The Controller committed the recomposition under the bumped
	// sequence, and the coordinator followed.
	st, err := ctrl.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Wakeups != 2 {
		t.Fatalf("controller wakeups = %d, want 2 (create + recompose)", st.Wakeups)
	}
	if coord.ImageEpoch() != 1 || coord.Seq() != 2 {
		t.Fatalf("coordinator epoch=%d seq=%d, want 1/2", coord.ImageEpoch(), coord.Seq())
	}
	// No full re-air: the restage pushed control + manifest + the one
	// missing chunk, a fraction of the staged broadcast.
	restageBytes, _ := reg.Value("oddci_transport_restage_bytes_total")
	if restageBytes <= 0 || restageBytes >= float64(coord.BroadcastBytes()) {
		t.Fatalf("restage bytes = %v, want positive and well under the full broadcast (%d)",
			restageBytes, coord.BroadcastBytes())
	}
}
