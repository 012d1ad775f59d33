package dsmcc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"oddci/internal/obs"
	"oddci/internal/simtime"
)

// feedSections pushes raw sections straight into a receiver.
func feedSections(r *Receiver, secs [][]byte) {
	for _, s := range secs {
		r.HandleSection(s)
	}
}

func mustSetFiles(t *testing.T, c *Carousel, files ...File) {
	t.Helper()
	if err := c.SetFiles(files); err != nil {
		t.Fatal(err)
	}
}

func mustCycle(t *testing.T, c *Carousel) [][]byte {
	t.Helper()
	secs, err := c.EncodeCycle()
	if err != nil {
		t.Fatal(err)
	}
	return secs
}

func mustDelta(t *testing.T, c *Carousel) [][]byte {
	t.Helper()
	secs, err := c.EncodeDeltaCycle()
	if err != nil {
		t.Fatal(err)
	}
	return secs
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestDeltaCycleCarriesOnlyChangedModules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, err := NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := randBytes(rng, 30000), randBytes(rng, 30000), randBytes(rng, 30000)
	mustSetFiles(t, c, File{Name: "a", Data: a}, File{Name: "b", Data: b}, File{Name: "d", Data: d})

	// First SetFiles: everything is new, delta == full.
	if got, want := len(mustDelta(t, c)), len(mustCycle(t, c)); got != want {
		t.Fatalf("initial delta has %d sections, full has %d", got, want)
	}

	// Change one module: the delta is the DII + that module's blocks.
	b2 := randBytes(rng, 30000)
	mustSetFiles(t, c, File{Name: "a", Data: a}, File{Name: "b", Data: b2}, File{Name: "d", Data: d})
	delta := mustDelta(t, c)
	wantBlocks := blocksFor(len(b2), c.blockSize)
	if got := len(delta) - 1; got != wantBlocks {
		t.Fatalf("delta carries %d DDBs, want %d (only module b)", got, wantBlocks)
	}
	l, err := c.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if l.ChangedModules != 1 {
		t.Fatalf("ChangedModules = %d, want 1", l.ChangedModules)
	}
	// DeltaWire must equal the wire bytes of exactly these sections.
	var wire int64
	for _, s := range delta {
		wire += sectionWireBytes(len(s))
	}
	if l.DeltaWire != wire {
		t.Fatalf("DeltaWire = %d, encoded delta = %d", l.DeltaWire, wire)
	}
	if l.DeltaWire >= l.CycleWire {
		t.Fatalf("delta (%d) not smaller than full cycle (%d)", l.DeltaWire, l.CycleWire)
	}

	// No-op update: delta is just the DII.
	mustSetFiles(t, c, File{Name: "a", Data: a}, File{Name: "b", Data: b2}, File{Name: "d", Data: d})
	if got := len(mustDelta(t, c)); got != 1 {
		t.Fatalf("no-op delta has %d sections, want 1 (DII only)", got)
	}

	// Re-air cost at image scale: changing k of 16 modules of 64 KiB may
	// put at most 1.25× the changed payload on the wire — section and TS
	// packet framing plus the directory, never an unchanged module.
	const modules, moduleBytes = 16, 64 << 10
	img, err := NewCarousel(0x420, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := make([]File, modules)
	for i := range files {
		files[i] = File{Name: fmt.Sprintf("m%02d", i), Data: randBytes(rng, moduleBytes)}
	}
	mustSetFiles(t, img, files...)
	for _, k := range []int{1, 4, 16} {
		for i := 0; i < k; i++ {
			files[i].Data = randBytes(rng, moduleBytes)
		}
		mustSetFiles(t, img, files...)
		l, err := img.Layout()
		if err != nil {
			t.Fatal(err)
		}
		if l.ChangedModules != k {
			t.Fatalf("ChangedModules = %d after changing %d of %d", l.ChangedModules, k, modules)
		}
		if ratio := float64(l.DeltaWire) / float64(k*moduleBytes); ratio > 1.25 {
			t.Fatalf("re-airing %d of %d modules costs %d wire bytes, %.3f× the changed payload (max 1.25×)",
				k, modules, l.DeltaWire, ratio)
		}
	}
}

// A warm hash-aware receiver must converge to the new generation from
// the delta airing alone: changed modules off the air, unchanged ones
// confirmed by hash against what it already assembled.
func TestWarmReceiverConvergesFromDeltaAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c, err := NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := randBytes(rng, 25000), randBytes(rng, 25000)
	mustSetFiles(t, c, File{Name: "a", Data: a}, File{Name: "b", Data: b})

	recv := NewReceiver()
	feedSections(recv, mustCycle(t, c))
	for name, want := range map[string][]byte{"a": a, "b": b} {
		if got, ok := recv.File(name); !ok || !bytes.Equal(got, want) {
			t.Fatalf("gen1 %s not assembled", name)
		}
	}

	b2 := randBytes(rng, 25000)
	mustSetFiles(t, c, File{Name: "a", Data: a}, File{Name: "b", Data: b2})
	feedSections(recv, mustDelta(t, c))
	if got, ok := recv.File("b"); !ok || !bytes.Equal(got, b2) {
		t.Fatal("changed module b not re-assembled from delta")
	}
	if got, ok := recv.File("a"); !ok || !bytes.Equal(got, a) {
		t.Fatal("unchanged module a lost across delta")
	}
}

// Block loss inside the changed module of a delta airing: the receiver
// must not assemble corrupt bytes, and the re-air (next delta cycle)
// must heal it.
func TestDeltaReairHealsBlockLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, err := NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := randBytes(rng, 25000), randBytes(rng, 25000)
	mustSetFiles(t, c, File{Name: "a", Data: a}, File{Name: "b", Data: b})
	recv := NewReceiver()
	feedSections(recv, mustCycle(t, c))

	b2 := randBytes(rng, 25000)
	mustSetFiles(t, c, File{Name: "a", Data: a}, File{Name: "b", Data: b2})
	delta := mustDelta(t, c)
	// Drop one DDB of the changed module (section index 2: DII, blk0, blk1...).
	lossy := append([][]byte(nil), delta[:2]...)
	lossy = append(lossy, delta[3:]...)
	feedSections(recv, lossy)
	if got, _ := recv.File("b"); bytes.Equal(got, b2) {
		t.Fatal("test vacuous: receiver completed despite the dropped block")
	}
	if got, ok := recv.File("b"); !ok || !bytes.Equal(got, b) {
		t.Fatal("receiver must keep serving the old generation while incomplete")
	}
	// Re-air heals.
	feedSections(recv, delta)
	if got, ok := recv.File("b"); !ok || !bytes.Equal(got, b2) {
		t.Fatal("re-aired delta did not heal the lost block")
	}
}

// Losing the DII of a delta airing: the orphan DDBs buffer, and the
// directory from the next airing promotes them without re-hearing the
// blocks.
func TestDeltaDIILossBuffersBlocksUntilDirectory(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c, err := NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := randBytes(rng, 25000), randBytes(rng, 25000)
	mustSetFiles(t, c, File{Name: "a", Data: a}, File{Name: "b", Data: b})
	recv := NewReceiver()
	feedSections(recv, mustCycle(t, c))

	b2 := randBytes(rng, 25000)
	mustSetFiles(t, c, File{Name: "a", Data: a}, File{Name: "b", Data: b2})
	delta := mustDelta(t, c)
	feedSections(recv, delta[1:]) // DII lost
	if got, ok := recv.File("b"); !ok || !bytes.Equal(got, b) {
		t.Fatal("receiver must stay on the old generation without a directory")
	}
	feedSections(recv, delta[:1]) // just the DII of a re-air
	if got, ok := recv.File("b"); !ok || !bytes.Equal(got, b2) {
		t.Fatal("buffered delta blocks were not promoted by the late DII")
	}
}

// A chunk cache carries assembly across receiver churn (power cycles):
// a rebooted receiver sharing the cache converges from a delta airing
// alone, pulling unchanged modules out of local storage.
func TestCacheHitAssemblyUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, err := NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := randBytes(rng, 25000), randBytes(rng, 25000)
	mustSetFiles(t, c, File{Name: "a", Data: a}, File{Name: "b", Data: b})

	reg := obs.NewRegistry()
	met := NewCacheMetrics(reg)
	cache := NewChunkCache(1 << 20)
	cache.Instrument(met)

	first := NewReceiver()
	first.SetCache(cache)
	feedSections(first, mustCycle(t, c))
	if cache.cachedChunks() != 2 {
		t.Fatalf("cache holds %d chunks after full cycle, want 2", cache.cachedChunks())
	}

	// Power cycle: a brand-new receiver, same cache. Only a delta airs.
	b2 := randBytes(rng, 25000)
	mustSetFiles(t, c, File{Name: "a", Data: a}, File{Name: "b", Data: b2})
	second := NewReceiver()
	second.SetCache(cache)
	feedSections(second, mustDelta(t, c))
	if got, ok := second.File("a"); !ok || !bytes.Equal(got, a) {
		t.Fatal("unchanged module a not served from the chunk cache")
	}
	if got, ok := second.File("b"); !ok || !bytes.Equal(got, b2) {
		t.Fatal("changed module b not assembled from the delta airing")
	}
	if met.Hits() == 0 {
		t.Fatal("expected cache hits to be counted")
	}
	if !cache.contains(HashOf(b2)) {
		t.Fatal("newly assembled module must be published into the cache")
	}
}

// The uint8 module-version wrap regression (satellite 1): drive well
// over 256 content changes through one module. A receiver must track
// the latest content at every step — before the fix, the done-mark
// recorded under {id, version} 256 generations earlier suppressed the
// fresh blocks once the version wrapped.
func TestModuleVersionWrapRegression(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		name := "hash-aware"
		if legacy {
			name = "legacy"
		}
		t.Run(name, func(t *testing.T) {
			c, err := NewCarousel(0x300, 0)
			if err != nil {
				t.Fatal(err)
			}
			if legacy {
				c.noHashExt = true
			}
			fixed := []byte("steady payload that never changes")
			recv := NewReceiver()
			recv.DisableHashes = legacy
			for i := 0; i < 300; i++ {
				content := []byte(fmt.Sprintf("generation %d content", i))
				mustSetFiles(t, c, File{Name: "mod", Data: content}, File{Name: "fixed", Data: fixed})
				feedSections(recv, mustDelta(t, c))
				if got, ok := recv.File("mod"); !ok || !bytes.Equal(got, content) {
					t.Fatalf("update %d (version %d): receiver serves %q, want %q",
						i, uint8(i), got, content)
				}
			}
			if got, ok := recv.File("fixed"); !ok || !bytes.Equal(got, fixed) {
				t.Fatal("unchanged module lost during version churn")
			}
		})
	}
}

// The uint32 generation wrap (satellite 3): a long-lived carousel
// crossing 2³²→0 must not stall receivers, and stale straggler DIIs
// must not roll the directory back.
func TestGenerationWrapReceiverFollows(t *testing.T) {
	c, err := NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustSetFiles(t, c, File{Name: "mod", Data: []byte("old")})
	c.generation = 0xFFFFFFFF - 1 // long-lived instance near the wrap

	recv := NewReceiver()
	feedSections(recv, mustCycle(t, c))
	for i, content := range []string{"newer", "newest", "post-wrap"} {
		mustSetFiles(t, c, File{Name: "mod", Data: []byte(content)})
		feedSections(recv, mustCycle(t, c))
		if got, ok := recv.File("mod"); !ok || string(got) != content {
			t.Fatalf("step %d (generation %#x): receiver serves %q, want %q",
				i, c.generation, got, content)
		}
	}
	if c.generation >= 2 {
		t.Fatalf("test vacuous: generation %#x never wrapped", c.generation)
	}

	// A stale straggler from the pre-wrap generation must be ignored.
	stale := &DII{TransactionID: 0xFFFFFFFF, BlockSize: uint16(c.blockSize),
		Modules: []ModuleInfo{{ID: 0, Version: 0, Size: 3, Name: "mod"}}}
	recv.handleDII(stale)
	if got := recv.dii.TransactionID; got != c.generation {
		t.Fatalf("stale straggler DII rolled the directory back to %#x", got)
	}
}

func TestNewerGeneration(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{1, 0, true},
		{0, 1, false},
		{5, 5, false},
		{0, 0xFFFFFFFF, true},  // wrap: 0 succeeds max
		{0xFFFFFFFF, 0, false}, // and not vice versa
		{2, 0xFFFFFFF0, true},  // small post-wrap vs large pre-wrap
		{1 << 31, 0, false},    // exactly opposite: incomparable
		{0, 1 << 31, false},    // in both directions
		{1<<31 + 1, 0, false},  // more than half the space behind
		{0, 1<<31 + 1, true},   // ... means the other side is newer
		{100, 50, true},
		{50, 100, false},
	}
	for _, tc := range cases {
		if got := NewerGeneration(tc.a, tc.b); got != tc.want {
			t.Errorf("NewerGeneration(%#x, %#x) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// Interop: a hash-unaware receiver fed by a hash-airing broadcaster
// (extension present on the wire) and a hash-aware receiver fed by a
// legacy head-end (no extension) must both assemble correctly.
func TestMixedVersionInterop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := randBytes(rng, 20000)

	t.Run("legacy receiver, hashed wire", func(t *testing.T) {
		c, _ := NewCarousel(0x300, 0)
		mustSetFiles(t, c, File{Name: "mod", Data: data})
		recv := NewReceiver()
		recv.DisableHashes = true
		feedSections(recv, mustCycle(t, c))
		if got, ok := recv.File("mod"); !ok || !bytes.Equal(got, data) {
			t.Fatal("legacy receiver failed against hash extension on the wire")
		}
	})
	t.Run("hash-aware receiver, legacy wire", func(t *testing.T) {
		c, _ := NewCarousel(0x300, 0)
		c.noHashExt = true
		mustSetFiles(t, c, File{Name: "mod", Data: data})
		recv := NewReceiver()
		cache := NewChunkCache(1 << 20)
		recv.SetCache(cache)
		feedSections(recv, mustCycle(t, c))
		if got, ok := recv.File("mod"); !ok || !bytes.Equal(got, data) {
			t.Fatal("hash-aware receiver failed against a pre-hash head-end")
		}
	})
	t.Run("legacy receiver, lossy full cycles", func(t *testing.T) {
		// A delta airing leaves a cold hash-unaware receiver without the
		// unchanged module; it must still converge on the generation from
		// full cycles that each lose a fifth of their sections. A
		// 100-block module never arrives whole in one cycle (0.8¹⁰⁰), so
		// this holds only if blocks are kept across cycles, in whatever
		// order they land.
		c, _ := NewCarousel(0x300, 0)
		keep := randBytes(rng, 400_000)
		mustSetFiles(t, c, File{Name: "mod", Data: data}, File{Name: "keep", Data: keep})
		mustSetFiles(t, c, File{Name: "mod", Data: randBytes(rng, 20000)}, File{Name: "keep", Data: keep})
		recv := NewReceiver()
		recv.DisableHashes = true
		feedSections(recv, mustDelta(t, c))
		if _, ok := recv.File("keep"); ok {
			t.Fatal("cold legacy receiver completed the unchanged module from a delta that does not carry it")
		}
		want := c.files
		for cycle := 1; ; cycle++ {
			if cycle > 20 {
				t.Fatal("legacy receiver did not converge within 20 cycles at 20% section loss")
			}
			for _, sec := range mustCycle(t, c) {
				if rng.Float64() >= 0.2 {
					recv.HandleSection(sec)
				}
			}
			done := true
			for _, f := range want {
				got, ok := recv.File(f.Name)
				done = done && ok && bytes.Equal(got, f.Data)
			}
			if done {
				break
			}
		}
	})
}

func TestDIIHashExtensionCodec(t *testing.T) {
	d := &DII{TransactionID: 7, DownloadID: 9, BlockSize: 4000, Modules: []ModuleInfo{
		{ID: 0, Version: 3, Size: 10, Name: "a", Hash: HashOf([]byte("aaa"))},
		{ID: 1, Version: 0, Size: 20, Name: "b", Hash: HashOf([]byte("bbb"))},
	}}
	raw, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDII(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Modules {
		if got.Modules[i].Hash != d.Modules[i].Hash {
			t.Fatalf("module %d hash %v, want %v", i, got.Modules[i].Hash, d.Modules[i].Hash)
		}
	}

	// Hashless DIIs decode with zero hashes.
	d2 := &DII{TransactionID: 7, Modules: []ModuleInfo{{ID: 0, Size: 10, Name: "a"}}}
	raw2, err := d2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got2, err := DecodeDII(raw2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Modules[0].Hash != 0 {
		t.Fatalf("hashless DII decoded hash %v, want 0", got2.Modules[0].Hash)
	}

	if HashOf([]byte("x")) == 0 {
		t.Fatal("HashOf must never return the zero sentinel")
	}
	if HashOf([]byte("x")) == HashOf([]byte("y")) {
		t.Fatal("distinct contents must not collide in a sane universe")
	}
}

func TestChunkCacheLRUAndBounds(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewCacheMetrics(reg)
	cache := NewChunkCache(100)
	cache.Instrument(met)

	pay := func(c byte, n int) []byte { return bytes.Repeat([]byte{c}, n) }
	h1, h2, h3 := HashOf(pay('1', 40)), HashOf(pay('2', 40)), HashOf(pay('3', 40))
	cache.Put(h1, pay('1', 40))
	cache.Put(h2, pay('2', 40))
	if cache.cachedBytes() != 80 || cache.cachedChunks() != 2 {
		t.Fatalf("cache %d bytes / %d chunks, want 80/2", cache.cachedBytes(), cache.cachedChunks())
	}
	// Touch h1 so h2 is the LRU victim.
	if _, ok := cache.Get(h1); !ok {
		t.Fatal("h1 missing")
	}
	cache.Put(h3, pay('3', 40))
	if _, ok := cache.Get(h2); ok {
		t.Fatal("h2 should have been evicted (LRU)")
	}
	if _, ok := cache.Get(h1); !ok {
		t.Fatal("h1 (recently used) should have survived")
	}
	if met.evictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", met.evictions.Value())
	}
	if met.inserts.Value() != 3 {
		t.Fatalf("inserts = %d, want 3", met.inserts.Value())
	}

	// Oversized payloads are ignored; zero hashes are ignored.
	cache.Put(HashOf(pay('4', 200)), pay('4', 200))
	if cache.cachedBytes() > 100 {
		t.Fatal("oversized payload admitted past the byte bound")
	}
	cache.Put(0, pay('5', 10))
	if _, ok := cache.Get(0); ok {
		t.Fatal("zero-hash entries must not be stored")
	}

	// Nil cache is inert.
	var nilCache *ChunkCache
	nilCache.Put(h1, pay('1', 40))
	if _, ok := nilCache.Get(h1); ok {
		t.Fatal("nil cache returned a value")
	}
	if nilCache.cachedChunks() != 0 || nilCache.cachedBytes() != 0 {
		t.Fatal("nil cache reports contents")
	}
}

// RequestFile with a cache: a warm cache turns a full-module wait into a
// DII-latency wait; a cold cache is timed like no cache and warms up.
func TestCachedRequestDeliveryTiming(t *testing.T) {
	clk := simtime.NewSim(epoch)
	img := randBytes(rand.New(rand.NewSource(7)), 1<<20)
	cfgFile := []byte("config")
	b := startBroadcaster(t, clk, 1e6, File{Name: "image", Data: img}, File{Name: "conf", Data: cfgFile})
	cache := NewChunkCache(4 << 20)

	// Cold: same completion as an uncached receiver, and the cache warms.
	var coldAt time.Time
	b.RequestFile("image", FileGranularity, cache, readFunc(func(data []byte, at time.Time, err error) {
		if err != nil || !bytes.Equal(data, img) {
			t.Errorf("cold fetch: err=%v", err)
		}
		coldAt = at
	}))
	clk.Wait()
	l, _ := b.car.Layout()
	e, _ := l.Entry("image")
	if want := epoch.Add(b.airTime(e.WireEnd)); !coldAt.Equal(want) {
		t.Fatalf("cold delivery at %v, want %v", coldAt, want)
	}
	if !cache.contains(HashOf(img)) {
		t.Fatal("cold fetch did not warm the cache")
	}

	// Warm: a fresh listener holding the bytes completes at the next
	// DII, not after the megabyte module re-airs.
	start := clk.Now()
	var warmAt time.Time
	b.RequestFile("image", FileGranularity, cache, readFunc(func(data []byte, at time.Time, err error) {
		if err != nil || !bytes.Equal(data, img) {
			t.Errorf("warm fetch: err=%v", err)
		}
		warmAt = at
	}))
	clk.Wait()
	warmWait := warmAt.Sub(start)
	cycle := b.airTime(l.CycleWire)
	diiTime := b.airTime(l.DIIWire)
	if warmWait > cycle+diiTime {
		t.Fatalf("warm delivery took %v, want ≤ cycle+DII (%v)", warmWait, cycle+diiTime)
	}
	if fullWait := b.airTime(e.WireEnd); warmWait >= fullWait {
		t.Fatalf("warm delivery (%v) not faster than a full re-read (%v)", warmWait, fullWait)
	}
}

// Four carousels air one image and stage it through one
// content-addressed store, so only the first goes to the air for it and
// the aggregate hit rate is (k−1)/k.
func TestSharedChunkCacheAcrossBroadcasters(t *testing.T) {
	const carousels = 4
	clk := simtime.NewSim(epoch)
	img := randBytes(rand.New(rand.NewSource(9)), 1<<20)
	met := NewCacheMetrics(obs.NewRegistry())
	shared := NewChunkCache(8 << 20)
	shared.Instrument(met)
	for c := 0; c < carousels; c++ {
		b := startBroadcaster(t, clk, 1e6, File{Name: "image", Data: img})
		b.RequestFile("image", FileGranularity, shared, readFunc(func(data []byte, _ time.Time, err error) {
			if err != nil || !bytes.Equal(data, img) {
				t.Errorf("carousel %d: wrong image delivered, err=%v", c, err)
			}
		}))
		clk.Wait()
	}
	hits, misses := met.Hits(), met.Misses()
	if total := hits + misses; total == 0 || float64(hits)/float64(total) < 0.70 {
		t.Fatalf("shared cache saw %d hits and %d misses across %d carousels, want a hit rate ≥0.70", hits, misses, carousels)
	}
}

// A cached RequestFile must restart cleanly when content changes before
// the cached delivery lands, and must not serve stale bytes.
func TestCachedRequestRestartsOnUpdate(t *testing.T) {
	clk := simtime.NewSim(epoch)
	rng := rand.New(rand.NewSource(8))
	v1 := randBytes(rng, 500000)
	b := startBroadcaster(t, clk, 1e6, File{Name: "image", Data: v1})
	cache := NewChunkCache(4 << 20)
	cache.Put(HashOf(v1), v1)

	v2 := randBytes(rng, 500000)
	var got []byte
	b.RequestFile("image", FileGranularity, cache, readFunc(func(data []byte, at time.Time, err error) {
		if err != nil {
			t.Errorf("fetch: %v", err)
		}
		got = data
	}))
	// Commit v2 at the next cycle boundary — before the pending cached
	// delivery's DII confirmation would fire for a mid-cycle joiner.
	if err := b.Update([]File{{Name: "image", Data: v2}}); err != nil {
		t.Fatal(err)
	}
	clk.Wait()
	if !bytes.Equal(got, v2) && !bytes.Equal(got, v1) {
		t.Fatal("delivered bytes match neither generation")
	}
	if bytes.Equal(got, v1) {
		// Acceptable only if delivery landed before the commit; the
		// cached fast path confirms at DII time, which for a phase-0
		// listener precedes the boundary commit.
		return
	}
	if !cache.contains(HashOf(v2)) {
		t.Fatal("restarted fetch did not warm the cache with the new bytes")
	}
}
