package transport

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/journal"
	"oddci/internal/obs"
)

// broadcastBytes returns the size of the pre-encoded staged broadcast
// (control + manifest + distinct chunk frames) each joining session
// receives.
func (c *Coordinator) broadcastBytes() int { return c.stage.Load().bytes }

// stagedChunks returns how many distinct content-addressed chunk frames
// the current stage holds.
func (c *Coordinator) stagedChunks() int { return len(c.stage.Load().chunks) }

// chunkedImage builds an image whose payload is incompressible random
// bytes, so every chunk carries a distinct content hash.
func chunkedImage(t *testing.T, seed int64, payloadBytes int) *appimage.Image {
	t.Helper()
	p := make([]byte, payloadBytes)
	rand.New(rand.NewSource(seed)).Read(p)
	return &appimage.Image{Name: "net", Version: 1, EntryPoint: "w", Payload: p}
}

// flipInChunk inverts 100 payload bytes that all fall in chunk k of the
// encoded image.
func flipInChunk(img *appimage.Image, k int) {
	for i := k*appimage.ChunkBytes + 1000; i < k*appimage.ChunkBytes+1100; i++ {
		img.Payload[i] ^= 0xFF
	}
}

// TestJoinAssemblesChunkedImage: a node must assemble and verify the
// image from the manifest + chunk plane, and the coordinator's encode
// counter must be exactly the per-artifact count — independent of how
// many sessions joined.
func TestJoinAssemblesChunkedImage(t *testing.T) {
	img := chunkedImage(t, 1, 8*appimage.ChunkBytes)
	coord := serveCoordinator(t, CoordinatorConfig{
		Image:           img,
		HeartbeatPeriod: 5 * time.Second,
	})
	raw, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	wantChunks := (len(raw) + appimage.ChunkBytes - 1) / appimage.ChunkBytes
	if coord.stagedChunks() != wantChunks {
		t.Fatalf("staged chunks = %d, want %d", coord.stagedChunks(), wantChunks)
	}
	// banner + control + manifest + the chunk frames.
	wantEncodes := int64(3 + wantChunks)
	if got := coord.BroadcastEncodes(); got != wantEncodes {
		t.Fatalf("encodes after staging = %d, want %d", got, wantEncodes)
	}

	h, err := coord.Submit(testJob(t, 8))
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
				Addr: coord.Addr(), NodeID: uint64(i + 1),
				TimeScale: 200, Seed: 5, PinnedKey: coord.PublicKey(),
			})
		}()
	}
	wg.Wait()
	for i := 0; i < nodes; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i+1, errs[i])
		}
		if !reports[i].Joined {
			t.Fatalf("node %d report %+v, want joined", i+1, reports[i])
		}
	}
	if _, done := h.Done(); !done {
		t.Fatal("job incomplete")
	}
	// Serving 4 sessions must not have encoded anything new.
	if got := coord.BroadcastEncodes(); got != wantEncodes {
		t.Fatalf("encodes after %d sessions = %d, want %d (flat in session count)", nodes, got, wantEncodes)
	}
}

// TestUpdateImageRestagesOnlyChangedChunks: a mid-flight UpdateImage
// re-encodes only the changed chunk frames (plus the two per-update
// artifacts: control, manifest), and a connected node picks the new
// image up at its next heartbeat, re-verifying the digest from its
// retained chunks plus the pushed delta.
func TestUpdateImageRestagesOnlyChangedChunks(t *testing.T) {
	img := chunkedImage(t, 2, 8*appimage.ChunkBytes)
	reg := obs.NewRegistry()
	coord := serveCoordinator(t, CoordinatorConfig{
		Image:           img,
		HeartbeatPeriod: 5 * time.Second, // 25 ms at TimeScale 200
		Obs:             reg,
	})

	h, err := coord.Submit(testJob(t, 32)) // ~10 ms per task: ample update window
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

	// Flip bytes inside exactly one chunk while the node works.
	time.Sleep(50 * time.Millisecond)
	before := coord.BroadcastEncodes()
	img2 := chunkedImage(t, 2, 8*appimage.ChunkBytes)
	flipInChunk(img2, 2)
	if err := coord.UpdateImage(img2); err != nil {
		t.Fatalf("UpdateImage: %v", err)
	}
	// control + manifest + exactly one changed chunk.
	if got := coord.BroadcastEncodes() - before; got != 3 {
		t.Fatalf("UpdateImage cost %d encodes, want 3 (2 artifacts + 1 changed chunk)", got)
	}
	if coord.Seq() != 2 {
		t.Fatalf("seq after update = %d, want 2", coord.Seq())
	}

	<-done
	if nodeErr != nil {
		t.Fatal(nodeErr)
	}
	if _, ok := h.Done(); !ok {
		t.Fatal("job incomplete")
	}
	if report.Restages != 1 {
		t.Fatalf("node restages = %d, want 1 (one mid-session image update)", report.Restages)
	}
	if v, _ := reg.Value("oddci_transport_restages_total"); v != 1 {
		t.Fatalf("restage counter = %v, want 1", v)
	}
	// The restage push carried the control + manifest + ONE chunk frame,
	// not the whole image.
	restageBytes, _ := reg.Value("oddci_transport_restage_bytes_total")
	if restageBytes <= 0 || restageBytes >= float64(coord.broadcastBytes()) {
		t.Fatalf("restage bytes = %v, want positive and well under the full broadcast (%d)", restageBytes, coord.broadcastBytes())
	}
}

// TestUpdateImagePersistsAcrossRestart: the journal record written by
// UpdateImage must carry the bumped sequence, so a restarted
// coordinator resumes past it.
func TestUpdateImagePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCoordinator(CoordinatorConfig{
		Listen: "127.0.0.1:0", Image: chunkedImage(t, 5, 16<<10), StateDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.UpdateImage(chunkedImage(t, 6, 16<<10)); err != nil {
		t.Fatal(err)
	}
	if c1.Seq() != 2 {
		t.Fatalf("seq after update = %d, want 2", c1.Seq())
	}
	c1.Close()

	c2, err := NewCoordinator(CoordinatorConfig{
		Listen: "127.0.0.1:0", Image: chunkedImage(t, 6, 16<<10), StateDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Seq() != 3 {
		t.Fatalf("restarted seq = %d, want 3 (bumped past the update's recorded wakeup)", c2.Seq())
	}
}

// TestUpdateJournalsAndHashesOnlyChanges: over a state dir, an update
// that changes 2 of 32 chunks appends those 2 chunks and a manifest to
// the journal and hashes those 2 chunks, in the Controller; the
// coordinator stages the digests the Controller hands it (File.Chunks)
// and has no hashing path of its own. After 20 such updates, spanning a
// compaction, the journal recovers the last image bit for bit and a
// restart's wakeup seq continues past it.
func TestUpdateJournalsAndHashesOnlyChanges(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	img := chunkedImage(t, 21, 32*appimage.ChunkBytes-4096)
	coord, err := NewCoordinator(CoordinatorConfig{Listen: "127.0.0.1:0", Image: img, StateDir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	value := func(name string) float64 {
		v, _ := reg.Value(name)
		return v
	}
	journalBytes := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "state.journal"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	const hashedChunks = "oddci_controller_image_chunks_hashed_total"
	if n := value(hashedChunks); n != 32 {
		t.Fatalf("create hashed %v chunks, want each of the 32 once", n)
	}
	rng := rand.New(rand.NewSource(22))
	for u := 1; u <= 20; u++ {
		first := rng.Intn(32)
		for _, k := range []int{first, (first + 1 + rng.Intn(31)) % 32} {
			off := k*appimage.ChunkBytes + 1000 // fresh bytes: never a chunk held before
			rng.Read(img.Payload[off : off+100])
		}
		j0, h0, c0 := journalBytes(), value(hashedChunks), value("oddci_journal_compactions_total")
		if err := coord.UpdateImage(img); err != nil {
			t.Fatal(err)
		}
		if h := value(hashedChunks) - h0; h != 2 {
			t.Fatalf("update %d hashed %v chunks, want the 2 it changed", u, h)
		}
		if grew := journalBytes() - j0; value("oddci_journal_compactions_total") == c0 && grew > 2*appimage.ChunkBytes+4096 {
			t.Fatalf("update %d grew the journal by %d bytes, want ≤ 2 chunks + 4 KiB", u, grew)
		}
	}
	if value("oddci_journal_compactions_total") < 1 {
		t.Fatal("20 updates ran no compaction; the restart below would not cross one")
	}
	raw, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	staged := coord.stage.Load()
	if staged.raw == nil || appimage.DigestOf(staged.raw) != appimage.DigestOf(raw) {
		t.Fatal("the coordinator does not stage the last image")
	}
	seq := coord.Seq()
	coord.Close()

	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Load()
	store.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rec := st.Instances[1]; rec == nil || appimage.DigestOf(rec.Image) != appimage.DigestOf(raw) {
		t.Fatal("the state dir does not recover the last image bit for bit")
	}
	c2, err := NewCoordinator(CoordinatorConfig{Listen: "127.0.0.1:0", Image: img, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Seq() != seq+1 {
		t.Fatalf("restarted seq = %d, want %d (past the last update's %d)", c2.Seq(), seq+1, seq)
	}
}

// TestChunkDedupWithinImage: an image whose chunks are content-identical
// stages (and ships) exactly one chunk frame, and a node still
// assembles the full image from the single held chunk.
func TestChunkDedupWithinImage(t *testing.T) {
	// A zero payload of 8 chunks: every chunk but the first and last
	// identical.
	img := &appimage.Image{Name: "net", Version: 1, EntryPoint: "w", Payload: make([]byte, 8*appimage.ChunkBytes)}
	coord := serveCoordinator(t, CoordinatorConfig{Image: img})
	if coord.stagedChunks() >= 8 {
		t.Fatalf("staged %d chunk frames for a self-similar image, want deduplicated (<8)", coord.stagedChunks())
	}
	if _, err := coord.Submit(testJob(t, 2)); err != nil {
		t.Fatal(err)
	}
	rep, err := RunNode(NodeConfig{
		Addr: coord.Addr(), NodeID: 1,
		TimeScale: 200, Seed: 13, PinnedKey: coord.PublicKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Joined {
		t.Fatalf("report %+v, want a join from deduplicated chunks", rep)
	}
}

// TestRestageABAConverges: re-staging image A, then B, then A again
// must converge on a connected node. Both ends hold exactly the last
// manifest's chunk set, so the chunk only A has is pushed a second time
// on the way back instead of being assumed held.
func TestRestageABAConverges(t *testing.T) {
	imgA := chunkedImage(t, 8, 8*appimage.ChunkBytes)
	imgB := chunkedImage(t, 8, 8*appimage.ChunkBytes)
	flipInChunk(imgB, 2)
	reg := obs.NewRegistry()
	coord := serveCoordinator(t, CoordinatorConfig{
		Image:           imgA,
		HeartbeatPeriod: time.Second, // 5 ms at TimeScale 200
		Obs:             reg,
	})
	h, err := coord.Submit(testJob(t, 64)) // ~10 ms per task
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
	// A heartbeat means the session joined on image A.
	waitFor(t, "the first heartbeat", func() bool { return coord.Controller().HeartbeatsSeen() > 0 })
	var pushed [2]float64
	for i, img := range []*appimage.Image{imgB, imgA} {
		if err := coord.UpdateImage(img); err != nil {
			t.Fatalf("UpdateImage %d: %v", i, err)
		}
		waitFor(t, "the re-staging to reach the session", func() bool {
			v, _ := reg.Value("oddci_transport_restages_total")
			return v == float64(i+1)
		})
		pushed[i], _ = reg.Value("oddci_transport_restage_bytes_total")
	}
	<-done
	if nodeErr != nil {
		t.Fatal(nodeErr)
	}
	if _, ok := h.Done(); !ok {
		t.Fatal("job incomplete")
	}
	if report.Restages != 2 {
		t.Fatalf("node restages = %d, want 2 (A to B and back to A)", report.Restages)
	}
	// Each leg pushed control + manifest + the one chunk that differs.
	if back := pushed[1] - pushed[0]; back != pushed[0] || int(back) <= appimage.ChunkBytes {
		t.Fatalf("re-stage bytes: %v out, %v back; want equal legs of one chunk each", pushed[0], back)
	}
}

// signedWakeup is a valid control file for image.1, as a coordinator
// holding key would stage it.
func signedWakeup(t *testing.T, key ed25519.PrivateKey, digest appimage.Digest) []byte {
	t.Helper()
	file, err := control.SignWakeup(&control.Wakeup{
		InstanceID: 1, Seq: 1, Probability: 1, ImageFile: "image.1",
		ImageDigest: digest, HeartbeatPeriod: time.Second,
	}, key)
	if err != nil {
		t.Fatal(err)
	}
	return file
}

// signedControl is signedWakeup framed.
func signedControl(t *testing.T, key ed25519.PrivateKey, digest appimage.Digest) []byte {
	t.Helper()
	frame, err := AppendFrame(nil, FrameControl, signedWakeup(t, key, digest))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestHostileImagePlaneRejected: the manifest and chunk frames are not
// signed, so a node must survive whatever follows a valid control
// frame. Each case once crashed the node or grew its memory without
// bound; now RunNode returns an error, having allocated nothing the
// frames did not pay for.
func TestHostileImagePlaneRejected(t *testing.T) {
	pub, key, err := ed25519.GenerateKey(rand.New(rand.NewSource(40)))
	if err != nil {
		t.Fatal(err)
	}
	frame := func(typ FrameType, payload []byte) []byte {
		f, err := AppendFrame(nil, typ, payload)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	rawManifest := func(size uint32, digests int) []byte {
		b := append([]byte{0, 7}, "image.1"...)
		b = binary.BigEndian.AppendUint32(b, size)
		return frame(FrameImageManifest, append(b, make([]byte, digestLen*digests)...))
	}
	chunk := func(d appimage.Digest, data []byte) []byte {
		return frame(FrameImageChunk, AppendImageChunk(nil, d, data))
	}
	// A full slot then a 16-byte one, under digests no bytes have.
	data := []byte("sixteen byte blk")
	listed := frame(FrameImageManifest, AppendImageManifest(nil, &ImageManifest{
		Name: "image.1", Size: appimage.ChunkBytes + 16, Digests: []appimage.Digest{{1}, {2}},
	}))
	short := data[:5]
	shortListed := frame(FrameImageManifest, AppendImageManifest(nil, &ImageManifest{
		Name: "image.1", Size: appimage.ChunkBytes + 16, Digests: []appimage.Digest{sha256.Sum256(short), {2}},
	}))
	// A real image of three slots, signed, and two unsigned variants that
	// decode as well as it does.
	raw := encodeImage(t, chunkedImage(t, 41, 2*appimage.ChunkBytes+500))
	signed := onWire(t, generationFrames(t, key, raw, nil))
	flipped := append([]byte(nil), raw...)
	flipped[100] ^= 1
	longer := encodeImage(t, chunkedImage(t, 41, 2*appimage.ChunkBytes+501))
	unsigned := func(variant []byte) []byte { // its manifest and every chunk
		return onWire(t, generationFrames(t, key, variant, slots(0, 3))[1:])
	}
	cases := map[string][]byte{
		"size -1":            rawManifest(0xFFFFFFFF, 1),
		"size 0":             rawManifest(0, 0),
		"size over MaxFrame": rawManifest(MaxFrame+1, MaxFrame/appimage.ChunkBytes+1),
		"too few digests":    rawManifest(1<<20, 3),
		"too many digests":   rawManifest(1<<20, 5),
		"chunk, no manifest": chunk(sha256.Sum256(data), data),
		"unlisted chunk":     append(listed, chunk(appimage.Digest{3}, data)...),
		"mis-hashed chunk":   append(listed, chunk(appimage.Digest{2}, data)...),
		"oversized chunk":    append(listed, chunk(appimage.Digest{1}, make([]byte, appimage.ChunkBytes+1))...),
		// Listed and correctly hashed, but 5 bytes for a full slot: refused
		// on receipt, not at completion.
		"short chunk in a full slot": append(shortListed, chunk(sha256.Sum256(short), short)...),
		// The signed manifest, and chunk 1's bytes under chunk 0's digest:
		// only the per-chunk check can refuse them, and it must do so on
		// receipt, since nothing else follows.
		"chunk under another listed digest": append(signed, chunk(sha256.Sum256(raw[:appimage.ChunkBytes]), raw[appimage.ChunkBytes:2*appimage.ChunkBytes])...),
		// Every chunk matches its manifest digest, but the manifest is not
		// the signed one: refused at completion, by the root.
		"manifest not rooting to the signed digest": append(signed, unsigned(flipped)...),
		"manifest size not the signed length":       append(signed, unsigned(longer)...),
	}
	for name, hostile := range cases {
		frames := append(signedControl(t, key, appimage.Digest{}), hostile...)
		banner := Banner{Wire: WireVersion, ControllerKey: pub, Name: "hostile"}
		addr := fakeCoordinator(t, banner, frames)
		// The fake coordinator never hangs up, so a node that accepts the
		// frame waits for more instead of failing.
		var rep NodeReport
		done := make(chan error, 1)
		go func() {
			var err error
			rep, err = RunNode(NodeConfig{Addr: addr, NodeID: 1, PinnedKey: pub})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || rep.Joined {
				t.Errorf("%s: err=%v joined=%v, want the frame rejected", name, err, rep.Joined)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: node still waiting for frames, want the frame rejected on receipt", name)
		}
	}
}
