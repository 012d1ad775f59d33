package flute

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"oddci/internal/dsmcc"
	"oddci/internal/simtime"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

// newCaster puts a fresh Session behind the shared playout engine.
func newCaster(clk simtime.Clock, rate float64) (*dsmcc.Broadcaster, error) {
	return dsmcc.NewBroadcaster(clk, NewSession(), rate)
}

func startCaster(t *testing.T, clk simtime.Clock, rate float64, files ...dsmcc.File) *dsmcc.Broadcaster {
	t.Helper()
	c, err := newCaster(clk, rate)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(files); err != nil {
		t.Fatal(err)
	}
	return c
}

func buildLayout(t *testing.T, files []dsmcc.File) *dsmcc.Layout {
	t.Helper()
	s := NewSession()
	if err := s.SetFiles(files); err != nil {
		t.Fatal(err)
	}
	l, err := s.Layout()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// cycleWire is the on-air cycle's wire size, 0 before Start.
func cycleWire(c *dsmcc.Broadcaster) int64 {
	if l := c.Layout(); l != nil {
		return l.CycleWire
	}
	return 0
}

// completionOf is the receiver completion model of the on-air layout.
func completionOf(c *dsmcc.Broadcaster, name string, pos int64) (int64, bool) {
	l := c.Layout()
	if l == nil {
		return 0, false
	}
	return l.NextCompletion(name, pos, dsmcc.FileGranularity)
}

func TestLayoutInterleavesChunks(t *testing.T) {
	files := []dsmcc.File{
		{Name: "a", Data: make([]byte, 3*ChunkPayload)},
		{Name: "b", Data: make([]byte, 3*ChunkPayload)},
	}
	ends, _ := interleave(files)
	// Interleaving: a's chunks and b's chunks alternate, so a's k-th
	// chunk ends before b's k-th chunk, which ends before a's (k+1)-th.
	ea, eb := ends["a"], ends["b"]
	if len(ea) != 3 || len(eb) != 3 {
		t.Fatalf("chunks: %d/%d", len(ea), len(eb))
	}
	for k := 0; k < 3; k++ {
		if !(ea[k] < eb[k]) {
			t.Fatalf("round %d not interleaved: a=%d b=%d", k, ea[k], eb[k])
		}
		if k > 0 && !(eb[k-1] < ea[k]) {
			t.Fatal("rounds overlap")
		}
	}
}

func TestCompletionAtMostOneCycle(t *testing.T) {
	// The FLUTE receiver property: any join phase completes any file
	// within one cycle.
	rng := rand.New(rand.NewSource(3))
	files := []dsmcc.File{
		{Name: "small", Data: make([]byte, 10*ChunkPayload)},
		{Name: "image", Data: make([]byte, 500*ChunkPayload)},
	}
	l := buildLayout(t, files)
	var sum float64
	const samples = 3000
	for i := 0; i < samples; i++ {
		pos := rng.Int63n(l.CycleWire)
		done, ok := l.NextCompletion("image", pos, dsmcc.FileGranularity)
		if !ok {
			t.Fatal("image missing")
		}
		wait := done - pos
		if wait > l.CycleWire {
			t.Fatalf("completion took %d of a %d-byte cycle", wait, l.CycleWire)
		}
		sum += float64(wait)
	}
	mean := sum / samples / float64(l.CycleWire)
	// Interleaved chunks: the last missing chunk is the one airing just
	// before the join, so the expected wait is ≈ one cycle.
	if mean < 0.95 || mean > 1.0 {
		t.Fatalf("mean completion = %.3f cycles, want ≈1.0", mean)
	}
}

func TestRequestFileDeliversContent(t *testing.T) {
	clk := simtime.NewSim(epoch)
	rng := rand.New(rand.NewSource(4))
	img := make([]byte, 100000)
	rng.Read(img)
	c := startCaster(t, clk, 1e6, dsmcc.File{Name: "image", Data: img})
	var got []byte
	var at time.Time
	c.RequestFile("image", dsmcc.FileGranularity, nil, readFunc(func(data []byte, when time.Time, err error) {
		if err != nil {
			t.Errorf("request: %v", err)
			return
		}
		got, at = data, when
	}))
	clk.Wait()
	if !bytes.Equal(got, img) {
		t.Fatal("content mismatch")
	}
	if at.Sub(epoch) > c.CycleDuration() {
		t.Fatalf("delivery %v exceeds one cycle %v", at.Sub(epoch), c.CycleDuration())
	}
}

func TestWakeupBeatsDSMCC(t *testing.T) {
	// Same content, same β: the multicast caster's random-phase wakeup
	// must beat the DSM-CC file-granularity receiver's (1.0 vs ~1.5
	// cycles when the image dominates).
	img := make([]byte, 2<<20)
	files := []dsmcc.File{
		{Name: "pna.xlet", Data: make([]byte, 20000)},
		{Name: "image", Data: img},
	}
	fl := buildLayout(t, files)
	car, err := dsmcc.NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := car.SetFiles(files); err != nil {
		t.Fatal(err)
	}
	dl, err := car.Layout()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var fluteSum, dsmccSum float64
	const samples = 1000
	for i := 0; i < samples; i++ {
		fp := rng.Int63n(fl.CycleWire)
		fd, _ := fl.NextCompletion("image", fp, dsmcc.FileGranularity)
		fluteSum += float64(fd-fp) / float64(fl.CycleWire)
		dp := rng.Int63n(dl.CycleWire)
		dd, _ := dl.NextCompletion("image", dp, dsmcc.FileGranularity)
		dsmccSum += float64(dd-dp) / float64(dl.CycleWire)
	}
	fluteMean := fluteSum / samples
	dsmccMean := dsmccSum / samples
	if fluteMean >= dsmccMean {
		t.Fatalf("flute %.3f cycles not better than dsmcc %.3f", fluteMean, dsmccMean)
	}
	if dsmccMean < 1.4 || fluteMean > 1.01 {
		t.Fatalf("means off: flute %.3f (≈1.0), dsmcc %.3f (≈1.5)", fluteMean, dsmccMean)
	}
}

func TestUpdateAtCycleBoundary(t *testing.T) {
	clk := simtime.NewSim(epoch)
	c := startCaster(t, clk, 1e6, dsmcc.File{Name: "a", Data: make([]byte, 100000)})
	cycle := c.CycleDuration()
	var gen uint32
	var at time.Time
	c.OnGeneration(func(g uint32, when time.Time) { gen, at = g, when })
	clk.Go(func() {
		clk.Sleep(cycle / 4)
		if err := c.Update([]dsmcc.File{{Name: "a", Data: make([]byte, 200000)}}); err != nil {
			t.Errorf("update: %v", err)
		}
		// Coalesce a second update.
		if err := c.Update([]dsmcc.File{{Name: "a", Data: []byte("final")}}); err != nil {
			t.Errorf("update2: %v", err)
		}
	})
	clk.Wait()
	if gen != 2 {
		t.Fatalf("generation = %d", gen)
	}
	if d := at.Sub(epoch.Add(cycle)); d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("commit at %v, want one cycle", at)
	}
	var got []byte
	c.RequestFile("a", dsmcc.FileGranularity, nil, readFunc(func(data []byte, _ time.Time, err error) { got = data }))
	clk.Wait()
	if string(got) != "final" {
		t.Fatalf("content %q, want coalesced final", got)
	}
}

func TestRequestUnknownFile(t *testing.T) {
	clk := simtime.NewSim(epoch)
	c := startCaster(t, clk, 1e6, dsmcc.File{Name: "a", Data: []byte{1}})
	var got error
	c.RequestFile("missing", dsmcc.FileGranularity, nil, readFunc(func(_ []byte, _ time.Time, err error) { got = err }))
	clk.Wait()
	if got != dsmcc.ErrNoSuchFile {
		t.Fatalf("err = %v", got)
	}
}

func TestValidation(t *testing.T) {
	clk := simtime.NewSim(epoch)
	if _, err := newCaster(clk, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
	c, _ := newCaster(clk, 1e6)
	if err := c.Start(nil); err == nil {
		t.Fatal("empty start accepted")
	}
	if err := c.Update(nil); err == nil {
		t.Fatal("update before start accepted")
	}
	if err := c.Start([]dsmcc.File{{Name: "x", Data: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start([]dsmcc.File{{Name: "x"}}); err == nil {
		t.Fatal("double start accepted")
	}
	if err := c.Update([]dsmcc.File{{Name: "x"}, {Name: "x"}}); err == nil {
		t.Fatal("duplicate files accepted")
	}
	clk.Wait()
}

func TestAccessorsAndListenerCancel(t *testing.T) {
	clk := simtime.NewSim(epoch)
	c, _ := newCaster(clk, 1e6)
	if c.Generation() != 0 || cycleWire(c) != 0 || c.CycleDuration() != 0 {
		t.Fatal("unstarted caster not zero")
	}
	if _, ok := completionOf(c, "x", 0); ok {
		t.Fatal("completion on unstarted caster")
	}
	var got error
	c.RequestFile("x", dsmcc.FileGranularity, nil, readFunc(func(_ []byte, _ time.Time, err error) { got = err }))
	clk.Wait()
	if got == nil {
		t.Fatal("request before start accepted")
	}
	if err := c.Start([]dsmcc.File{{Name: "a", Data: make([]byte, 5000)}}); err != nil {
		t.Fatal(err)
	}
	if c.Generation() != 1 || cycleWire(c) == 0 {
		t.Fatal("accessors wrong after start")
	}
	if done, ok := completionOf(c, "a", 0); !ok || done <= 0 || done > cycleWire(c) {
		t.Fatalf("completion = %d, %v", done, ok)
	}
	n := 0
	cancel := c.OnGeneration(func(uint32, time.Time) { n++ })
	cancel()
	clk.Go(func() { c.Update([]dsmcc.File{{Name: "a", Data: []byte("v2")}}) })
	clk.Wait()
	if n != 0 {
		t.Fatal("cancelled listener invoked")
	}
}

// Content version change mid-read restarts the delivery against the new
// generation (the dsmcc semantics, preserved here).
func TestRequestRestartsOnContentChange(t *testing.T) {
	clk := simtime.NewSim(epoch)
	c := startCaster(t, clk, 1e6, dsmcc.File{Name: "a", Data: make([]byte, 500000)})
	var got []byte
	clk.Go(func() {
		clk.Sleep(c.CycleDuration() / 2)
		c.RequestFile("a", dsmcc.FileGranularity, nil, readFunc(func(data []byte, _ time.Time, err error) {
			if err == nil {
				got = data
			}
		}))
		// The update commits before the read completes.
		c.Update([]dsmcc.File{{Name: "a", Data: []byte("fresh")}})
	})
	clk.Wait()
	if string(got) != "fresh" {
		t.Fatalf("delivered %d bytes, want the fresh content", len(got))
	}
}

// Delivery is by reference: every receiver of a generation is handed the
// slice the caster was started with, and a generation change that leaves
// a file's slice alone does not restart reads of it.
func TestDeliverySharesStagedBytes(t *testing.T) {
	clk := simtime.NewSim(epoch)
	img := bytes.Repeat([]byte{0x5A}, 200000)
	c := startCaster(t, clk, 1e6, dsmcc.File{Name: "conf", Data: []byte("v1")}, dsmcc.File{Name: "image", Data: img})
	var got [2][]byte
	clk.Go(func() {
		clk.Sleep(c.CycleDuration() / 2)
		for i := range got {
			i := i
			c.RequestFile("image", dsmcc.FileGranularity, nil, readFunc(func(d []byte, _ time.Time, err error) {
				if err != nil {
					t.Errorf("receiver %d: %v", i, err)
				}
				got[i] = d
			}))
		}
		// Only the control file changes; the image slice is handed over
		// again unchanged, as the Controller does on every refresh.
		if err := c.Update([]dsmcc.File{{Name: "conf", Data: []byte("v2")}, {Name: "image", Data: img}}); err != nil {
			t.Error(err)
		}
	})
	clk.Wait()
	for i, d := range got {
		if len(d) != len(img) || &d[0] != &img[0] {
			t.Fatalf("receiver %d got a copy (len %d), want the staged slice itself", i, len(d))
		}
		if cap(d) != len(d) {
			t.Fatalf("receiver %d: cap %d beyond len %d, an append would write into shared bytes", i, cap(d), len(d))
		}
	}
}

// A session advertises no content hashes, so a receiver's chunk cache
// never short-cuts a read (a warm one is timed as no cache at all), and
// what is delivered is still published for carriers that do.
func TestCachedReadFallsThroughToAir(t *testing.T) {
	clk := simtime.NewSim(epoch)
	img := bytes.Repeat([]byte{0xA5}, 100000)
	c := startCaster(t, clk, 1e6, dsmcc.File{Name: "image", Data: img})
	cache := dsmcc.NewChunkCache(1 << 20)
	cache.Put(dsmcc.HashOf(img), img)
	var plain, cached time.Time
	clk.Go(func() {
		clk.Sleep(c.CycleDuration() / 3)
		c.RequestFile("image", dsmcc.FileGranularity, nil, readFunc(func(_ []byte, at time.Time, _ error) { plain = at }))
		c.RequestFile("image", dsmcc.FileGranularity, cache, readFunc(func(_ []byte, at time.Time, _ error) { cached = at }))
	})
	clk.Wait()
	if plain.IsZero() || !cached.Equal(plain) {
		t.Fatalf("warm-cache read delivered at %v, uncached at %v", cached, plain)
	}
	cold := dsmcc.NewChunkCache(1 << 20)
	c.RequestFile("image", dsmcc.FileGranularity, cold, readFunc(func([]byte, time.Time, error) {}))
	clk.Wait()
	if d, ok := cold.Get(dsmcc.HashOf(img)); !ok || &d[0] != &img[0] {
		t.Fatal("air delivery not published into the receiver's cache")
	}
}

// readFunc is a read with no check stage: the callback alone.
type readFunc func(data []byte, at time.Time, err error)

func (readFunc) Check([]byte) {}

func (f readFunc) Deliver(data []byte, at time.Time, err error) { f(data, at, err) }
