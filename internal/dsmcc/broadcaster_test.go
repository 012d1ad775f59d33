package dsmcc

import (
	"bytes"
	"math"
	"testing"
	"time"

	"oddci/internal/mpegts"
	"oddci/internal/simtime"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

func startBroadcaster(t *testing.T, clk simtime.Clock, rate float64, files ...File) *Broadcaster {
	t.Helper()
	c, err := NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroadcaster(clk, c, rate)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(files); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBroadcasterDeliveryAtPhaseZero(t *testing.T) {
	clk := simtime.NewSim(epoch)
	img := make([]byte, 1<<20)
	b := startBroadcaster(t, clk, 1e6, File{Name: "image", Data: img})

	var at time.Time
	var got []byte
	b.RequestFile("image", FileGranularity, nil, readFunc(func(data []byte, when time.Time, err error) {
		if err != nil {
			t.Errorf("request: %v", err)
			return
		}
		got, at = data, when
	}))
	clk.Wait()
	if !bytes.Equal(got, img) {
		t.Fatal("image data mismatch")
	}
	// Tuned at phase 0: delivery at the module's first WireEnd.
	l, _ := b.car.Layout()
	e, _ := l.Entry("image")
	want := epoch.Add(b.airTime(e.WireEnd))
	if d := at.Sub(want); d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestBroadcasterMidCycleWaitsFullRetransmission(t *testing.T) {
	clk := simtime.NewSim(epoch)
	img := make([]byte, 1<<20)
	b := startBroadcaster(t, clk, 1e6, File{Name: "image", Data: img})
	cycle := b.CycleDuration()

	var at time.Time
	clk.Go(func() {
		clk.Sleep(cycle / 2) // tune mid-module
		b.RequestFile("image", FileGranularity, nil, readFunc(func(_ []byte, when time.Time, err error) {
			if err != nil {
				t.Errorf("request: %v", err)
			}
			at = when
		}))
	})
	clk.Wait()
	// Tuned at 0.5 cycles: wait the remaining half cycle for the next
	// module start, then read a full cycle — delivery ≈ 2 cycles from
	// epoch (1.5 cycles after tuning, the paper's average case).
	want := epoch.Add(2 * cycle)
	tol := 50 * time.Millisecond
	if d := at.Sub(want); d < -tol || d > tol {
		t.Fatalf("delivered at %v, want ≈%v", at, want)
	}
}

func TestBroadcasterWakeupMatchesPaperModel(t *testing.T) {
	// The paper: W = 1.5·I/β on average for random tune phases. Sample
	// uniformly and compare.
	clk := simtime.NewSim(epoch)
	const I = 4 << 20 // 4 MiB
	const beta = 1e6
	b := startBroadcaster(t, clk, beta, File{Name: "image", Data: make([]byte, I)})
	cycle := b.CycleDuration()

	// Every tune-in is booked at a fixed phase of the first cycle before
	// Wait: with no actor running, nothing can advance the clock until
	// all of them are on the calendar.
	const n = 200
	var total time.Duration
	var count int
	for i := 0; i < n; i++ {
		offset := time.Duration(i) * cycle / n
		start := epoch.Add(offset)
		clk.AfterFunc(offset, func() {
			b.RequestFile("image", FileGranularity, nil, readFunc(func(_ []byte, when time.Time, err error) {
				if err == nil {
					total += when.Sub(start)
					count++
				}
			}))
		})
	}
	clk.Wait()
	if count != n {
		t.Fatalf("%d of %d deliveries", count, n)
	}
	meanSec := (total / time.Duration(count)).Seconds()
	wantSec := 1.5 * float64(I) * 8 / beta
	// TS framing overhead inflates the wire size ~3%; allow 5%.
	if math.Abs(meanSec-wantSec)/wantSec > 0.05 {
		t.Fatalf("mean wakeup %.2fs, paper model %.2fs", meanSec, wantSec)
	}
}

func TestBroadcasterUpdateAtCycleBoundary(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := startBroadcaster(t, clk, 1e6, File{Name: "image", Data: make([]byte, 1<<20)})
	cycle := b.CycleDuration()

	var gen uint32
	var at time.Time
	b.OnGeneration(func(g uint32, when time.Time) { gen, at = g, when })

	clk.Go(func() {
		clk.Sleep(cycle / 3)
		if err := b.Update([]File{{Name: "image", Data: make([]byte, 2<<20)}}); err != nil {
			t.Errorf("update: %v", err)
		}
	})
	clk.Wait()
	if gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}
	// Commit lands on the first cycle boundary after the update.
	want := epoch.Add(cycle)
	if d := at.Sub(want); d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("committed at %v, want %v", at, want)
	}
	if b.Generation() != 2 {
		t.Fatalf("on-air generation = %d", b.Generation())
	}
}

func TestBroadcasterCoalescesUpdates(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := startBroadcaster(t, clk, 1e6, File{Name: "a", Data: make([]byte, 100000)})
	commits := 0
	b.OnGeneration(func(uint32, time.Time) { commits++ })
	clk.Go(func() {
		b.Update([]File{{Name: "a", Data: []byte("v2")}})
		b.Update([]File{{Name: "a", Data: []byte("v3")}})
	})
	clk.Wait()
	if commits != 1 {
		t.Fatalf("commits = %d, want 1 (coalesced)", commits)
	}
	if got := b.Layout().Entries[0].Data; !bytes.Equal(got, []byte("v3")) {
		t.Fatalf("committed content %q, want v3 (last update wins)", got)
	}
}

func TestBroadcasterRequestUnknownFile(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := startBroadcaster(t, clk, 1e6, File{Name: "a", Data: []byte{1}})
	var got error
	b.RequestFile("missing", FileGranularity, nil, readFunc(func(_ []byte, _ time.Time, err error) { got = err }))
	clk.Wait()
	if got != ErrNoSuchFile {
		t.Fatalf("err = %v, want ErrNoSuchFile", got)
	}
}

func TestBroadcasterGenerationListenerCancel(t *testing.T) {
	clk := simtime.NewSim(epoch)
	b := startBroadcaster(t, clk, 1e6, File{Name: "a", Data: make([]byte, 1000)})
	n := 0
	cancel := b.OnGeneration(func(uint32, time.Time) { n++ })
	cancel()
	clk.Go(func() { b.Update([]File{{Name: "a", Data: []byte("v2")}}) })
	clk.Wait()
	if n != 0 {
		t.Fatal("cancelled listener still invoked")
	}
}

// End-to-end byte path: encode a full cycle, push it through the real TS
// mux/demux, and confirm the Receiver assembles every file — and that
// the wire byte count equals the Layout used for timing.
func TestByteExactEndToEnd(t *testing.T) {
	c, err := NewCarousel(0x310, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := []File{
		{Name: "pna.xlet", Data: bytes.Repeat([]byte{0x50}, 60000)},
		{Name: "image", Data: bytes.Repeat([]byte{0x42}, 250000)},
		{Name: "config", Data: []byte("message_type=wakeup\nprobability=0.5\n")},
	}
	if err := c.SetFiles(files); err != nil {
		t.Fatal(err)
	}
	secs, err := c.EncodeCycle()
	if err != nil {
		t.Fatal(err)
	}
	mux := mpegts.NewMux()
	for _, s := range secs {
		if err := mux.EnqueueSection(c.pid, s); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := mux.DrainBytes()
	if err != nil {
		t.Fatal(err)
	}
	l, _ := c.Layout()
	if int64(len(stream)) != l.CycleWire {
		t.Fatalf("stream %d bytes, layout %d", len(stream), l.CycleWire)
	}

	recv := NewReceiver()
	demux := mpegts.NewDemux()
	demux.Handle(c.pid, recv.HandleSection)
	if err := demux.PushBytes(stream); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		got, ok := recv.File(f.Name)
		if !ok {
			t.Fatalf("file %q not assembled (%v)", f.Name, recv)
		}
		if !bytes.Equal(got, f.Data) {
			t.Fatalf("file %q content mismatch", f.Name)
		}
	}
	if recv.SectionErrors != 0 {
		t.Fatalf("receiver errors: %d", recv.SectionErrors)
	}
}

// A receiver that starts mid-cycle on the byte path assembles files
// after seeing the tail and then the head of the next cycle — the
// BlockCache behaviour.
func TestByteExactMidCycleJoin(t *testing.T) {
	c, _ := NewCarousel(0x311, 0)
	img := bytes.Repeat([]byte{0xEE}, 200000)
	if err := c.SetFiles([]File{{Name: "image", Data: img}}); err != nil {
		t.Fatal(err)
	}
	secs, _ := c.EncodeCycle()
	mux := mpegts.NewMux()
	for _, s := range secs {
		mux.EnqueueSection(c.pid, s)
	}
	cycle1, _ := mux.DrainBytes()
	// Second identical cycle (continuity counters continue).
	for _, s := range secs {
		mux.EnqueueSection(c.pid, s)
	}
	cycle2, _ := mux.DrainBytes()

	recv := NewReceiver()
	demux := mpegts.NewDemux()
	demux.Handle(c.pid, recv.HandleSection)
	// Join mid-way through cycle 1, at a packet boundary.
	skip := len(cycle1) / 2 / mpegts.PacketSize * mpegts.PacketSize
	if err := demux.PushBytes(cycle1[skip:]); err != nil {
		t.Fatal(err)
	}
	if _, ok := recv.File("image"); ok {
		t.Fatal("file complete from half a cycle")
	}
	if err := demux.PushBytes(cycle2); err != nil {
		t.Fatal(err)
	}
	got, ok := recv.File("image")
	if !ok || !bytes.Equal(got, img) {
		t.Fatalf("image not assembled after second cycle (%v)", recv)
	}
}

// Delivery is by reference: every receiver of a generation is handed the
// slice the carousel was staged with, on the air path, on the cold
// cached path (which stores that same slice) and on the cache-hit path.
func TestDeliverySharesStagedBytes(t *testing.T) {
	clk := simtime.NewSim(epoch)
	img := bytes.Repeat([]byte{0xA5}, 200000)
	b := startBroadcaster(t, clk, 1e6, File{Name: "conf", Data: []byte("c")}, File{Name: "image", Data: img})
	cache := NewChunkCache(1 << 20)

	var air [2][]byte
	for i := range air {
		i := i
		b.RequestFile("image", FileGranularity, nil, readFunc(func(d []byte, _ time.Time, err error) {
			if err != nil {
				t.Errorf("air receiver %d: %v", i, err)
			}
			air[i] = d
		}))
	}
	var cold []byte
	b.RequestFile("image", FileGranularity, cache, readFunc(func(d []byte, _ time.Time, err error) {
		if err != nil {
			t.Errorf("cold cached receiver: %v", err)
		}
		cold = d
	}))
	clk.Wait()
	for i, d := range [][]byte{air[0], air[1], cold} {
		if len(d) != len(img) || &d[0] != &img[0] {
			t.Fatalf("receiver %d got a copy (len %d), want the staged slice itself", i, len(d))
		}
		if cap(d) != len(d) {
			t.Fatalf("receiver %d: cap %d beyond len %d, an append would write into shared bytes", i, cap(d), len(d))
		}
	}
	stored, ok := cache.Get(HashOf(img))
	if !ok || &stored[0] != &img[0] {
		t.Fatal("ChunkCache.Put copied the delivered buffer instead of storing it")
	}

	// Cache-hit path: a different backing array under the same hash, so
	// the test can tell the cache's slice from the carousel's.
	twin := append([]byte(nil), img...)
	warm := NewChunkCache(1 << 20)
	warm.Put(HashOf(twin), twin)
	var hit [2][]byte
	for i := range hit {
		i := i
		b.RequestFile("image", FileGranularity, warm, readFunc(func(d []byte, _ time.Time, err error) {
			if err != nil {
				t.Errorf("warm receiver %d: %v", i, err)
			}
			hit[i] = d
		}))
	}
	clk.Wait()
	for i, d := range hit {
		if len(d) != len(twin) || &d[0] != &twin[0] {
			t.Fatalf("warm receiver %d did not get the cache's own slice", i)
		}
	}
}

// A file that leaves the carousel while a read is pending is an error at
// delivery time, never (nil, nil); one that stays is delivered from the
// new generation's layout entry.
func TestBroadcasterFileRemovedMidRead(t *testing.T) {
	clk := simtime.NewSim(epoch)
	keep := make([]byte, 300000)
	b := startBroadcaster(t, clk, 1e6, File{Name: "keep", Data: keep}, File{Name: "gone", Data: make([]byte, 300000)})
	var goneData, keepData []byte
	var goneErr, keepErr error
	clk.Go(func() {
		clk.Sleep(b.CycleDuration() * 3 / 4) // past "keep", inside "gone": both reads span the commit
		b.RequestFile("gone", FileGranularity, nil, readFunc(func(d []byte, _ time.Time, err error) { goneData, goneErr = d, err }))
		b.RequestFile("keep", FileGranularity, nil, readFunc(func(d []byte, _ time.Time, err error) { keepData, keepErr = d, err }))
		if err := b.Update([]File{{Name: "keep", Data: keep}}); err != nil {
			t.Error(err)
		}
	})
	clk.Wait()
	if goneErr != ErrNoSuchFile || goneData != nil {
		t.Fatalf("removed file: %d bytes, err %v; want ErrNoSuchFile", len(goneData), goneErr)
	}
	if keepErr != nil || len(keepData) != len(keep) || &keepData[0] != &keep[0] {
		t.Fatalf("surviving file: %d bytes, err %v; want the staged slice", len(keepData), keepErr)
	}
}
