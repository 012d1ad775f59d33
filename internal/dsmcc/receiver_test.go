package dsmcc

import (
	"strings"
	"testing"
	"time"

	"oddci/internal/simtime"
)

func TestReceiverRejectsGarbageSections(t *testing.T) {
	r := NewReceiver()
	r.HandleSection(nil)
	r.HandleSection([]byte{0x3B, 1, 2})       // truncated DII
	r.HandleSection([]byte{0x3C, 1, 2})       // truncated DDB
	r.HandleSection([]byte{0x42, 0, 0, 0, 0}) // foreign table
	if r.SectionErrors != 3 {
		t.Fatalf("section errors = %d, want 3 (nil input is ignored)", r.SectionErrors)
	}
	if r.dii != nil {
		t.Fatal("directory from garbage")
	}
	if !strings.Contains(r.String(), "errors:3") {
		t.Fatalf("diagnostics: %s", r.String())
	}
}

func TestReceiverDirectoryAndCallbacks(t *testing.T) {
	c := mkCarousel(t, File{Name: "f", Data: []byte("hello")})
	secs, err := c.EncodeCycle()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReceiver()
	// Two full cycles: the file completes in the first and the second
	// changes nothing.
	for i := 0; i < 2; i++ {
		for _, s := range secs {
			r.HandleSection(s)
		}
		if data, ok := r.File("f"); !ok || string(data) != "hello" {
			t.Fatalf("cycle %d: File = %q, %v", i+1, data, ok)
		}
	}
	if d := r.dii; d == nil || len(d.Modules) != 1 {
		t.Fatalf("directory: %+v", d)
	}
}

func TestCarouselAccessors(t *testing.T) {
	c := mkCarousel(t, File{Name: "a", Data: make([]byte, 125000)})
	if c.blockSize != DefaultBlockSize {
		t.Fatalf("block size = %d", c.blockSize)
	}
	l, err := c.Layout()
	if err != nil {
		t.Fatal(err)
	}
	// ≈1 s of air time at 1 Mbps for 125 kB + framing.
	d := time.Duration(float64(l.CycleWire) * 8 / 1e6 * float64(time.Second))
	if d < time.Second || d > 1100*time.Millisecond {
		t.Fatalf("cycle duration = %v", d)
	}
}

func TestBroadcasterConstructionErrors(t *testing.T) {
	clk := simtime.NewSim(epoch)
	car, err := NewCarousel(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBroadcaster(clk, car, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
	b, err := NewBroadcaster(clk, car, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	var got error
	b.RequestFile("x", FileGranularity, nil, readFunc(func(_ []byte, _ time.Time, err error) { got = err }))
	clk.Wait()
	if got == nil {
		t.Fatal("request before start accepted")
	}
	if b.Generation() != 0 || b.CycleDuration() != 0 {
		t.Fatal("unstarted accessors not zero")
	}
	if err := b.Update(nil); err == nil || b.Layout() != nil {
		t.Fatal("empty first update accepted")
	}
	// The first Update airs at once; a second waits for the boundary.
	if err := b.Update([]File{{Name: "a", Data: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	first := b.Generation()
	if first == 0 || b.CycleDuration() == 0 {
		t.Fatal("first update did not air at once")
	}
	clk.Go(func() {
		if err := b.Update([]File{{Name: "a", Data: []byte{2}}}); err != nil {
			t.Error(err)
		}
		if b.Generation() != first {
			t.Error("second update aired before the cycle boundary")
		}
	})
	clk.Wait()
	if b.Generation() == first {
		t.Fatal("second update never aired")
	}
}
