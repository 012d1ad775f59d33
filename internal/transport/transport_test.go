package transport

import (
	"bytes"
	"crypto/ed25519"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/instance"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/workload"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := WriteFrame(&buf, FrameControl, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != FrameControl || !bytes.Equal(got, payload) {
		t.Fatalf("type=%d payload=%q", typ, got)
	}
}

// Property: any frame sequence round-trips through a shared buffer.
func TestFrameSequenceProperty(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count)%10 + 1
		var buf bytes.Buffer
		type frame struct {
			t FrameType
			p []byte
		}
		var frames []frame
		for i := 0; i < n; i++ {
			p := make([]byte, rng.Intn(5000))
			rng.Read(p)
			fr := frame{FrameType(rng.Intn(10) + 1), p}
			frames = append(frames, fr)
			if err := WriteFrame(&buf, fr.t, fr.p); err != nil {
				return false
			}
		}
		for _, fr := range frames {
			typ, p, err := readFrame(&buf)
			if err != nil || typ != fr.t || !bytes.Equal(p, fr.p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, FrameHello, []byte("abcdef"))
	raw := buf.Bytes()
	for _, cut := range []int{0, 3, len(raw) - 1} {
		if _, _, err := readFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestReadFrameOversizeRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{byte(FrameImageChunk), 0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := readFrame(&buf); err != ErrFrameTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func testImage() *appimage.Image {
	return &appimage.Image{Name: "net", Version: 1, EntryPoint: "w", Payload: make([]byte, 32<<10)}
}

// serveCoordinator starts a coordinator on a loopback port and closes it
// when the test ends.
func serveCoordinator(t *testing.T, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	go coord.Serve()
	return coord
}

func testJob(t *testing.T, n int) *workload.Job {
	t.Helper()
	g := workload.Generator{Name: "net", Tasks: n, InputBytes: 128, OutputBytes: 64, MeanSeconds: 2}
	j, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// Full deployment over real loopback TCP: coordinator + 4 node agents
// in one process, time-scaled 200× so 2-reference-second tasks take
// ~10 ms each.
func TestTCPEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	coord := serveCoordinator(t, CoordinatorConfig{
		Name:            "test",
		Image:           testImage(),
		HeartbeatPeriod: 5 * time.Second,
		Obs:             reg,
	})

	h, err := coord.Submit(testJob(t, 24))
	if err != nil {
		t.Fatal(err)
	}

	const nodes = 4
	var wg sync.WaitGroup
	reports := make([]NodeReport, nodes)
	errs := make([]error, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], errs[i] = RunNode(NodeConfig{
				Addr:      coord.Addr(),
				NodeID:    uint64(i + 1),
				TimeScale: 200,
				Seed:      9,
				PinnedKey: coord.PublicKey(),
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
	}
	if _, done := h.Done(); !done {
		t.Fatal("job incomplete")
	}
	total := 0
	for i, r := range reports {
		if !r.Joined {
			t.Fatalf("node %d never joined", i+1)
		}
		total += r.TasksDone
	}
	if total != 24 {
		t.Fatalf("nodes report %d tasks, want 24", total)
	}
	if coord.NodeCount() != nodes {
		t.Fatalf("coordinator saw %d nodes", coord.NodeCount())
	}
	for i := 1; i <= nodes; i++ {
		if !coord.nodes.has(uint64(i)) {
			t.Fatalf("node %d missing from the node set", i)
		}
	}
	if coord.nodes.has(999) {
		t.Fatal("phantom node in the node set")
	}
	if v, _ := reg.Value("oddci_transport_frames_in_task_request_total"); v < 24 {
		t.Fatalf("task request frames counter = %v, want >= 24", v)
	}
	if v, _ := reg.Value("oddci_transport_frames_in_task_result_total"); v != 24 {
		t.Fatalf("task result frames counter = %v, want 24", v)
	}
	if v, _ := reg.Value("oddci_transport_bytes_out_total"); v < float64(coord.broadcastBytes()) {
		t.Fatalf("bytes out counter = %v, want at least one staged broadcast (%d)", v, coord.broadcastBytes())
	}
}

// TestJoinWithHugeTimeScale: a TimeScale large enough to round the
// heartbeat period to zero must not panic the node's ticker; it joins
// and finishes the job.
func TestJoinWithHugeTimeScale(t *testing.T) {
	coord := serveCoordinator(t, CoordinatorConfig{Image: testImage()})
	h, err := coord.Submit(testJob(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunNode(NodeConfig{
		Addr: coord.Addr(), NodeID: 1, TimeScale: 1e12, PinnedKey: coord.PublicKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Joined || report.TasksDone != 4 {
		t.Fatalf("report %+v, want joined with 4 tasks done", report)
	}
	if _, done := h.Done(); !done {
		t.Fatal("job incomplete")
	}
}

func TestTCPNodeRejectsForgedCoordinator(t *testing.T) {
	coord := serveCoordinator(t, CoordinatorConfig{Image: testImage()})
	if _, err := coord.Submit(testJob(t, 1)); err != nil {
		t.Fatal(err)
	}

	otherPub, _, _ := ed25519.GenerateKey(rand.New(rand.NewSource(1)))
	_, err := RunNode(NodeConfig{
		Addr:      coord.Addr(),
		NodeID:    1,
		TimeScale: 200,
		PinnedKey: otherPub,
	})
	if err == nil {
		t.Fatal("node accepted a coordinator with the wrong key")
	}
}

func TestTCPRequirementsFilter(t *testing.T) {
	coord := serveCoordinator(t, CoordinatorConfig{
		Image:        testImage(),
		Requirements: instance.Requirements{Class: instance.ClassConsole},
	})
	if _, err := coord.Submit(testJob(t, 1)); err != nil {
		t.Fatal(err)
	}

	report, err := RunNode(NodeConfig{
		Addr: coord.Addr(), NodeID: 1, TimeScale: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Joined {
		t.Fatal("STB joined a console-only instance")
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(CoordinatorConfig{Listen: "127.0.0.1:0"}); err == nil {
		t.Fatal("missing image accepted")
	}
}

func TestCoordinatorDrain(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{
		Listen: "127.0.0.1:0", Image: testImage(),
	})
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve()
	if coord.be == nil {
		t.Fatal("backend accessor nil")
	}
	h, err := coord.Submit(testJob(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := RunNode(NodeConfig{
			Addr: coord.Addr(), NodeID: 1, TimeScale: 500,
		}); err != nil {
			t.Errorf("node: %v", err)
		}
	}()
	<-done
	if _, ok := h.Done(); !ok {
		t.Fatal("job incomplete")
	}
	coord.Drain(5 * time.Second) // returns once the session ended
	coord.Drain(time.Second)     // idempotent
}

// TestCoordinatorRestartKeepsIdentity: a coordinator restarted on the
// same state dir must sign with the same key and resume past the
// recorded wakeup sequence, so nodes that already evaluated the old
// broadcast re-evaluate the new one instead of ignoring a replayed seq.
func TestCoordinatorRestartKeepsIdentity(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCoordinator(CoordinatorConfig{
		Listen: "127.0.0.1:0", Image: testImage(), StateDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Recovered() {
		t.Fatal("fresh state dir reported recovered")
	}
	if c1.Seq() != 1 {
		t.Fatalf("fresh seq = %d, want 1", c1.Seq())
	}
	pub := c1.PublicKey()
	c1.Close()

	c2, err := NewCoordinator(CoordinatorConfig{
		Listen: "127.0.0.1:0", Image: testImage(), StateDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Recovered() {
		t.Fatal("restart on populated state dir did not recover")
	}
	if !c2.PublicKey().Equal(pub) {
		t.Fatal("restarted coordinator changed identity")
	}
	if c2.Seq() != 2 {
		t.Fatalf("restarted seq = %d, want 2 (bumped past the recorded wakeup)", c2.Seq())
	}

	// A pinned node still verifies the restarted coordinator.
	go c2.Serve()
	if _, err := c2.Submit(testJob(t, 2)); err != nil {
		t.Fatal(err)
	}
	rep, err := RunNode(NodeConfig{
		Addr: c2.Addr(), NodeID: 1, TimeScale: 200, Seed: 3, PinnedKey: pub,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Joined || rep.TasksDone != 2 {
		t.Fatalf("node against restarted coordinator: %+v", rep)
	}
}

// TestInjectedClockStampsTransport runs a loopback deployment with a
// frozen Sim clock injected into both sides. Network I/O and tickers
// still run on wall time, but every timestamp the coordinator records
// must come from the injected clock.
func TestInjectedClockStampsTransport(t *testing.T) {
	epoch := time.Date(2030, 6, 1, 12, 0, 0, 0, time.UTC)
	clk := simtime.NewSim(epoch)
	reg := obs.NewRegistry()
	coord := serveCoordinator(t, CoordinatorConfig{
		Name:            "clock-test",
		Image:           testImage(),
		HeartbeatPeriod: 5 * time.Second,
		Clock:           clk,
		Obs:             reg,
	})

	h, err := coord.Submit(testJob(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunNode(NodeConfig{
		Addr:      coord.Addr(),
		NodeID:    1,
		TimeScale: 200,
		Seed:      9,
		PinnedKey: coord.PublicKey(),
		Clock:     clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Joined {
		t.Fatal("node never joined")
	}
	if rep.Heartbeats == 0 {
		t.Fatal("node sent no heartbeats; nothing to assert on")
	}
	if _, done := h.Done(); !done {
		t.Fatal("job incomplete")
	}

	// The Controller consolidated the heartbeats on the injected clock:
	// its silence check measures from the frozen sim epoch, where a
	// wall-clock stamp, years away, would read as silence.
	if coord.Controller().HeartbeatsSeen() == 0 {
		t.Fatal("no heartbeat reached the controller; nothing to assert on")
	}
	if err := reg.Health()["heartbeat-silence"]; err != nil {
		t.Fatalf("heartbeat-silence = %v (heartbeat timestamps must come from the configured clock)", err)
	}
}
