package transport

import (
	"runtime"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/simtime"
)

// TestResizeTrimsSessions drives the Controller's size control over
// loopback TCP on a Sim clock: four nodes join at p = 1, a Resize to 2
// ends exactly two sessions with a reset on their next heartbeat, a
// Resize to 1 ends one more, and the last node finishes the job once
// the leases the reset nodes abandoned expire. No maintenance pass
// re-airs a wakeup afterwards: a TCP node reports only while busy, so
// there is never an idle pool to recruit from.
func TestResizeTrimsSessions(t *testing.T) {
	clk := simtime.NewSim(time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC))
	coord := serveCoordinator(t, CoordinatorConfig{
		Image:           testImage(),
		HeartbeatPeriod: time.Second, // 1 ms at TimeScale 1000
		Clock:           clk,
		LeaseBase:       time.Second,
	})
	ctrl := coord.Controller()
	h, err := coord.Submit(testJob(t, 400)) // 2 ms per task
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 4
	reports := make(chan NodeReport, nodes)
	for i := 0; i < nodes; i++ {
		go func(id uint64) {
			rep, err := RunNode(NodeConfig{
				Addr: coord.Addr(), NodeID: id, TimeScale: 1000, PinnedKey: coord.PublicKey(),
			})
			if err != nil {
				t.Errorf("node %d: %v", id, err)
			}
			reports <- rep
		}(uint64(i + 1))
	}
	busy := func() int {
		st, err := ctrl.Status(1)
		if err != nil {
			t.Fatal(err)
		}
		return st.Busy
	}
	waitFor(t, "four members", func() bool { return busy() == nodes })

	// expectResets waits for n sessions to end and requires each to have
	// ended on a reset.
	expectResets := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case rep := <-reports:
				if !rep.Reset || !rep.Joined {
					t.Fatalf("session ended with %+v, want a joined node reset", rep)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of %d trimmed sessions ended", i, n)
			}
		}
	}
	if err := ctrl.Resize(1, 2); err != nil {
		t.Fatal(err)
	}
	expectResets(2)
	if st, _ := ctrl.Status(1); st.Busy != 2 || st.Trimming != 0 {
		t.Fatalf("after Resize(1, 2): %+v, want 2 busy and nothing left to trim", st)
	}
	if err := ctrl.Resize(1, 1); err != nil {
		t.Fatal(err)
	}
	expectResets(1)
	if len(reports) != 0 {
		t.Fatalf("%d more sessions ended than were trimmed", len(reports))
	}

	// The reset nodes walked away from their leases; past the lease the
	// last node picks their tasks up and drains the job.
	clk.RunUntil(clk.Now().Add(20 * time.Second))
	select {
	case rep := <-reports:
		if rep.Reset || rep.TasksDone == 0 {
			t.Fatalf("last node: %+v, want it to finish the job", rep)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the last node never finished")
	}
	if _, done := h.Done(); !done {
		t.Fatal("job incomplete")
	}

	seq := coord.Seq()
	clk.RunUntil(clk.Now().Add(5 * time.Minute)) // five maintenance passes
	if got := coord.Seq(); got != seq || seq != 1 {
		t.Fatalf("seq %d → %d over five maintenance passes, want 1 throughout", seq, got)
	}
}

// TestFreshSessionJoinsAfterUpdate: an UpdateImage recomposes an
// instance that is below its target (every node that answers), so the
// wakeup keeps its probability and a node that connects afterwards
// still joins, on the new image.
func TestFreshSessionJoinsAfterUpdate(t *testing.T) {
	coord := serveCoordinator(t, CoordinatorConfig{Image: chunkedImage(t, 3, 2*appimage.ChunkBytes)})
	if err := coord.UpdateImage(chunkedImage(t, 4, 2*appimage.ChunkBytes)); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Submit(testJob(t, 2)); err != nil {
		t.Fatal(err)
	}
	rep, err := RunNode(NodeConfig{Addr: coord.Addr(), NodeID: 1, TimeScale: 1000, PinnedKey: coord.PublicKey()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Joined || rep.TasksDone != 2 {
		t.Fatalf("node after an update: %+v, want joined with 2 tasks done", rep)
	}
}

// TestCloseLeaksNothing: a coordinator that served one session and was
// closed leaves no goroutine behind and no timer armed on its clock —
// Close stops the Controller's maintenance and refresh-retry timers
// before it closes the journal they would append to.
func TestCloseLeaksNothing(t *testing.T) {
	// The digest helpers start on first use and never exit: count them
	// in the baseline.
	appimage.DigestOf(make([]byte, 4*appimage.ChunkBytes))
	base := runtime.NumGoroutine()

	clk := simtime.NewSim(time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC))
	coord, err := NewCoordinator(CoordinatorConfig{
		Listen: "127.0.0.1:0", Image: testImage(), Clock: clk, StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		coord.Serve()
		close(served)
	}()
	if _, err := coord.Submit(testJob(t, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := RunNode(NodeConfig{Addr: coord.Addr(), NodeID: 1, TimeScale: 1000}); err != nil {
		t.Fatal(err)
	}
	coord.Close()
	<-served

	fired := clk.Fired()
	clk.RunUntil(clk.Now().Add(time.Hour))
	if n := clk.Fired() - fired; n != 0 {
		t.Fatalf("%d timers fired after Close, want none armed", n)
	}
	waitFor(t, "the goroutine count to return to its baseline", func() bool {
		return runtime.NumGoroutine() <= base
	})
}
