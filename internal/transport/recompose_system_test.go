package transport

import (
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/obs"
)

// TestRecomposeDrivesDeltaPlane is the end-to-end recomposition path:
// UpdateImage is the coordinator Controller's Recompose, which commits
// the new image and hands the coordinator, its head-end, the new file
// set; a connected node re-stages from pushed delta chunks — no full
// image re-air anywhere on the wire.
func TestRecomposeDrivesDeltaPlane(t *testing.T) {
	img := chunkedImage(t, 20, 8*appimage.ChunkBytes)
	reg := obs.NewRegistry()
	coord := serveCoordinator(t, CoordinatorConfig{
		Image:           img,
		HeartbeatPeriod: 5 * time.Second, // 25 ms at TimeScale 200
		Obs:             reg,
	})

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
	if err := coord.UpdateImage(img2); err != nil {
		t.Fatalf("UpdateImage: %v", err)
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
	// sequence, and that is the sequence on the wire.
	st, err := coord.Controller().Status(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Wakeups != 2 || coord.Seq() != 2 {
		t.Fatalf("controller wakeups = %d, seq = %d, want 2/2 (create + recompose)", st.Wakeups, coord.Seq())
	}
	// No full re-air: the restage pushed control + manifest + the missing
	// chunks, a fraction of the staged broadcast.
	restageBytes, _ := reg.Value("oddci_transport_restage_bytes_total")
	if restageBytes <= 0 || restageBytes >= float64(coord.broadcastBytes()) {
		t.Fatalf("restage bytes = %v, want positive and well under the full broadcast (%d)",
			restageBytes, coord.broadcastBytes())
	}
}
