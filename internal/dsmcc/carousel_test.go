package dsmcc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"oddci/internal/mpegts"
)

func mkCarousel(t *testing.T, files ...File) *Carousel {
	t.Helper()
	c, err := NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetFiles(files); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCarouselVersioning(t *testing.T) {
	c := mkCarousel(t, File{Name: "a", Data: []byte{1}}, File{Name: "b", Data: []byte{2}})
	if c.generation != 1 {
		t.Fatalf("generation = %d", c.generation)
	}
	d := c.DII()
	if len(d.Modules) != 2 || d.Modules[0].Version != 0 {
		t.Fatalf("DII: %+v", d)
	}
	// Change a, keep b: only a's version bumps; module IDs stay stable.
	if err := c.SetFiles([]File{{Name: "a", Data: []byte{9}}, {Name: "b", Data: []byte{2}}}); err != nil {
		t.Fatal(err)
	}
	d2 := c.DII()
	var va, vb uint8
	var ida, ida0 uint16
	for _, m := range d.Modules {
		if m.Name == "a" {
			ida0 = m.ID
		}
	}
	for _, m := range d2.Modules {
		switch m.Name {
		case "a":
			va, ida = m.Version, m.ID
		case "b":
			vb = m.Version
		}
	}
	if va != 1 || vb != 0 {
		t.Fatalf("versions a=%d b=%d, want 1,0", va, vb)
	}
	if ida != ida0 {
		t.Fatalf("module id for a changed: %d → %d", ida0, ida)
	}
	if c.generation != 2 {
		t.Fatalf("generation = %d", c.generation)
	}
}

func TestCarouselRejectsBadInput(t *testing.T) {
	c, _ := NewCarousel(1, 0)
	if err := c.SetFiles([]File{{Name: "", Data: nil}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := c.SetFiles([]File{{Name: "x"}, {Name: "x"}}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := NewCarousel(1, maxBlockSize+1); err == nil {
		t.Fatal("oversized block size accepted")
	}
	if _, err := c.Layout(); err == nil {
		t.Fatal("layout of empty carousel accepted")
	}
	if _, err := c.EncodeCycle(); err == nil {
		t.Fatal("cycle of empty carousel accepted")
	}
}

// The Layout's analytical wire size must match the actual encoded bytes
// through the real TS packetizer — the timing model and the byte path
// must agree exactly.
func TestLayoutMatchesEncodedWireBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	img := make([]byte, 300000)
	rng.Read(img)
	c := mkCarousel(t,
		File{Name: "pna.xlet", Data: make([]byte, 50000)},
		File{Name: "image", Data: img},
		File{Name: "config", Data: []byte("probability=1.0")},
	)
	l, err := c.Layout()
	if err != nil {
		t.Fatal(err)
	}
	secs, err := c.EncodeCycle()
	if err != nil {
		t.Fatal(err)
	}
	mux := mpegts.NewMux()
	// Enqueue in cycle order on one PID (sequential, as broadcast).
	var wire int64
	for _, s := range secs {
		pkts, _, err := mpegts.PacketizeSection(c.pid, 0, s)
		if err != nil {
			t.Fatal(err)
		}
		wire += int64(len(pkts) * mpegts.PacketSize)
	}
	_ = mux
	if wire != l.CycleWire {
		t.Fatalf("layout says %d wire bytes, encoding produced %d", l.CycleWire, wire)
	}
	// Per-module spans are contiguous and ordered.
	prev := l.Entries[0].WireStart
	for _, e := range l.Entries {
		if e.WireStart != prev {
			t.Fatalf("gap before %s: start %d, want %d", e.Name, e.WireStart, prev)
		}
		if e.WireEnd <= e.WireStart {
			t.Fatalf("empty span for %s", e.Name)
		}
		prev = e.WireEnd
	}
	if prev != l.CycleWire {
		t.Fatalf("last module ends at %d, cycle is %d", prev, l.CycleWire)
	}
}

func TestNextCompletionFileGranularity(t *testing.T) {
	c := mkCarousel(t, File{Name: "image", Data: make([]byte, 100000)})
	l, _ := c.Layout()
	e, _ := l.Entry("image")

	// Tuned before the module starts: complete at first instance end.
	done, ok := l.NextCompletion("image", 0, FileGranularity)
	if !ok || done != e.WireEnd {
		t.Fatalf("pos 0: done=%d want %d", done, e.WireEnd)
	}
	// Tuned mid-module: must wait for the next instance.
	mid := (e.WireStart + e.WireEnd) / 2
	done, _ = l.NextCompletion("image", mid, FileGranularity)
	if done != l.CycleWire+e.WireEnd {
		t.Fatalf("mid: done=%d want %d", done, l.CycleWire+e.WireEnd)
	}
	// Unknown file.
	if _, ok := l.NextCompletion("nope", 0, FileGranularity); ok {
		t.Fatal("unknown file reported ok")
	}
}

func TestNextCompletionBlockCache(t *testing.T) {
	c := mkCarousel(t, File{Name: "image", Data: make([]byte, 100000)})
	l, _ := c.Layout()
	e, _ := l.Entry("image")
	mid := (e.WireStart + e.WireEnd) / 2
	done, ok := l.NextCompletion("image", mid, BlockCache)
	if !ok || done != mid+l.CycleWire {
		t.Fatalf("mid: done=%d want %d (exactly one cycle)", done, mid+l.CycleWire)
	}
	// Before start: same as file granularity.
	done, _ = l.NextCompletion("image", e.WireStart, BlockCache)
	if done != e.WireEnd {
		t.Fatalf("at start: done=%d want %d", done, e.WireEnd)
	}
}

// Property: over random tune positions, when one file dominates the
// cycle the FileGranularity wait averages ≈1.5 cycles and BlockCache
// ≤1 cycle + module — the paper's W model and its optimized variant.
func TestCompletionAverageProperty(t *testing.T) {
	c := mkCarousel(t, File{Name: "image", Data: make([]byte, 2<<20)}) // image-only carousel
	l, _ := c.Layout()
	rng := rand.New(rand.NewSource(11))
	const samples = 5000
	var sumFG, sumBC float64
	for i := 0; i < samples; i++ {
		pos := rng.Int63n(l.CycleWire)
		fg, _ := l.NextCompletion("image", pos, FileGranularity)
		bc, _ := l.NextCompletion("image", pos, BlockCache)
		sumFG += float64(fg - pos)
		sumBC += float64(bc - pos)
		if bc > fg {
			t.Fatal("BlockCache slower than FileGranularity")
		}
	}
	meanFG := sumFG / samples / float64(l.CycleWire)
	meanBC := sumBC / samples / float64(l.CycleWire)
	if meanFG < 1.40 || meanFG > 1.60 {
		t.Fatalf("FileGranularity mean = %.3f cycles, want ≈1.5", meanFG)
	}
	if meanBC < 0.95 || meanBC > 1.05 {
		t.Fatalf("BlockCache mean = %.3f cycles, want ≈1.0", meanBC)
	}
}

func TestEncodeCycleEmptyFile(t *testing.T) {
	c := mkCarousel(t, File{Name: "empty", Data: nil}, File{Name: "x", Data: []byte{1}})
	secs, err := c.EncodeCycle()
	if err != nil {
		t.Fatal(err)
	}
	// DII + 1 empty block + 1 data block.
	if len(secs) != 3 {
		t.Fatalf("sections = %d, want 3", len(secs))
	}
	r := NewReceiver()
	for _, s := range secs {
		r.HandleSection(s)
	}
	if d, ok := r.File("empty"); !ok || len(d) != 0 {
		t.Fatalf("empty file not assembled: %v %v", d, ok)
	}
	if d, ok := r.File("x"); !ok || !bytes.Equal(d, []byte{1}) {
		t.Fatal("x not assembled")
	}
}

// Check's directory budget is the encoder's: around the one-section
// limit, a set passes exactly when its DII encodes.
func TestCheckAgreesWithDIIEncode(t *testing.T) {
	for _, hashed := range []bool{true, false} {
		accepted, rejected := 0, 0
		for n := 10; n < 40; n++ {
			files := make([]File, n)
			for i := range files {
				files[i] = File{Name: fmt.Sprintf("%0150d", i), Data: []byte{byte(i)}}
			}
			c, _ := NewCarousel(1, 0)
			c.noHashExt = !hashed
			checkErr := c.Check(files)
			dii := &DII{}
			for _, f := range files {
				m := ModuleInfo{Name: f.Name}
				if hashed {
					m.Hash = HashOf(f.Data)
				}
				dii.Modules = append(dii.Modules, m)
			}
			_, encErr := dii.Encode()
			if (checkErr == nil) != (encErr == nil) {
				t.Fatalf("hashed=%v n=%d: Check %v, Encode %v", hashed, n, checkErr, encErr)
			}
			if checkErr == nil {
				accepted++
			} else {
				rejected++
			}
		}
		if accepted == 0 || rejected == 0 {
			t.Fatalf("hashed=%v: sweep did not straddle the limit (%d accepted, %d rejected)", hashed, accepted, rejected)
		}
	}
}
